"""Finite-difference gradient checking for every differentiable block and op.

Each check builds a scalar objective from random inputs, takes tape
gradients, and compares them against central finite differences with
h = 1e-5. Relative error uses a small absolute floor so near-zero
gradients are compared absolutely:

    err = |analytic - numeric| / max(|analytic|, |numeric|, 1e-6)

``run_suite`` checks each block, then each case of ``OP_CASES``, the one
table of single-op cases, through ``op_case_error``; the tests check the
same cases through the same function. The suite is what the
``grad-check`` CLI subcommand runs; every check must stay below 1e-4.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .attention import MhsaParams, attend_and_pool
from .autodiff import Tape, Tensor
from .consensus import ConceptGraph, consensus_embed, gcn_forward
from .encoders import (GruGates, PaddedBatch, bi_gru, encode_image, encode_text, gru_step,
                       uniform_init)
from .fusion import FUSE_TYPES, FusionParams, fuse
from .losses import contrastive_loss, dynamic_weight, kl_loss

__all__ = ["numeric_gradients", "max_relative_error", "gradient_check",
           "op_case_error", "run_suite", "OP_CASES", "TOLERANCE"]

TOLERANCE = 1e-4
REL_FLOOR = 1e-6


def numeric_gradients(objective, params: dict[str, Tensor],
                      h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar objective.

    ``objective()`` must recompute the value from the parameters' current
    data; entries are perturbed in place and restored.
    """
    out = {}
    for name, p in params.items():
        grad = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = objective()
            flat[i] = orig - h
            minus = objective()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * h)
        out[name] = grad
    return out


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = REL_FLOOR) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    # a zero-size gradient has no entry that can disagree
    return float((np.abs(analytic - numeric) / denom).max(initial=0.0))


def gradient_check(build, params: dict[str, Tensor], h: float = 1e-5) -> float:
    """Worst relative error between tape and finite-difference gradients.

    ``build()`` runs the forward pass and returns the scalar loss tensor;
    it is called once under a tape and repeatedly without one.
    """
    with Tape() as tape:
        loss = build()
    grads = tape.backward(loss)
    numeric = numeric_gradients(lambda: build().item(), params, h)
    worst = 0.0
    for name, p in params.items():
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        worst = max(worst, max_relative_error(analytic, numeric[name]))
    return worst


def _project(t: Tensor, weights: np.ndarray) -> Tensor:
    """Fixed random projection of any output to a scalar objective."""
    return ad.sum(ad.mul(t, Tensor(weights)))


def run_suite(seed: int = 0) -> dict[str, float]:
    """Finite-difference check of every differentiable block at small dims
    and of every case of ``OP_CASES``.

    Returns the worst relative error per block or ``op_<case>`` name. Every
    block takes batched rows; the single-item blocks run a batch of one.
    """
    rng = np.random.default_rng(seed)
    d, h_heads, f_dim, m, l, k, vocab, b = 8, 2, 6, 3, 4, 5, 20, 4
    results: dict[str, float] = {}

    # GRU step
    gates = GruGates.init(rng, d, d // 2)
    x_t = Tensor(rng.normal(size=(1, d)))
    h_prev = Tensor(rng.normal(size=(1, d // 2)))
    params = dict(gates.named_parameters("gru"), **{"x_t": x_t, "h_prev": h_prev})
    proj = rng.normal(size=(1, d // 2))
    results["gru_step"] = gradient_check(
        lambda: _project(gru_step(x_t, h_prev, gates), proj), params)

    # the encoders' tensors, drawn in the model's order
    embedding = uniform_init(rng, (vocab, d), d)
    gru_fwd, gru_bwd = GruGates.init(rng, d, d // 2), GruGates.init(rng, d, d // 2)
    text = {"word_embedding": embedding, **gru_fwd.named_parameters("gru_forward"),
            **gru_bwd.named_parameters("gru_backward")}
    image_proj, image_bias = uniform_init(rng, (f_dim, d), f_dim), Tensor(np.zeros(d))

    # image encoder
    regions = PaddedBatch.of([rng.normal(size=(m, f_dim))])
    proj = rng.normal(size=(1, m, d))
    results["encode_image"] = gradient_check(
        lambda: _project(encode_image(regions, image_proj, image_bias), proj),
        {"image_proj": image_proj, "image_bias": image_bias})

    # text encoder end to end; one projection row weighs every token state
    caption = PaddedBatch.of([rng.integers(0, vocab, size=l)])
    proj = rng.normal(size=(1, 1, d))
    results["encode_text"] = gradient_check(
        lambda: _project(encode_text(caption, embedding, gru_fwd, gru_bwd), proj), text)

    # multi-head attention pooling of one unpadded sequence; the first row
    # of a (1, m, d) draw weighs the pool, which keeps the random inputs of
    # the blocks below as they were
    attn = MhsaParams.init(rng, d, h_heads)
    x = Tensor(rng.normal(size=(1, m, d)))
    proj = rng.normal(size=(1, m, d))[:, 0]
    params = dict(attn.named_parameters("attn"), x=x)
    results["attend_and_pool"] = gradient_check(
        lambda: _project(attend_and_pool(x, attn), proj), params)

    # each fusion mode
    for fuse_type in FUSE_TYPES:
        fp = FusionParams.init(rng, d, fuse_type)
        inst = Tensor(rng.normal(size=(1, d)))
        cons = Tensor(rng.normal(size=(1, d)))
        width = 2 * d if fuse_type == "concat" else d
        proj = rng.normal(size=(1, width))
        params = dict(fp.named_parameters("fusion"), instance=inst, consensus=cons)
        results[f"fusion_{fuse_type}"] = gradient_check(
            lambda: _project(fuse(inst, cons, fp), proj), params)

    # GCN
    graph = _random_graph(rng, k, d)
    w0, w1 = uniform_init(rng, (d, d), d), uniform_init(rng, (d, d), d)
    proj = rng.normal(size=(k, d))
    params = {"concept_embeddings": graph.concept_embeddings, "w0": w0, "w1": w1}
    results["gcn"] = gradient_check(
        lambda: _project(gcn_forward(graph, w0, w1), proj), params)

    # consensus head
    graph = _random_graph(rng, k, d)
    w0, w1 = uniform_init(rng, (d, d), d), uniform_init(rng, (d, d), d)
    predictor = uniform_init(rng, (d, k), d)
    inst = Tensor(rng.normal(size=(1, d)))
    proj = rng.normal(size=(1, d))
    params = {"predictor": predictor, "instance": inst,
              "concept_embeddings": graph.concept_embeddings, "w0": w0, "w1": w1}
    results["consensus_embed"] = gradient_check(
        lambda: _project(consensus_embed(inst, gcn_forward(graph, w0, w1), predictor)[0],
                         proj), params)

    # the four loss terms: three ranking losses (both modes) on raw
    # embeddings, and the KL term through the softmaxes
    emb_i = Tensor(rng.normal(size=(b, d)))
    emb_t = Tensor(rng.normal(size=(b, d)))
    params = {"emb_i": emb_i, "emb_t": emb_t}

    def ranking(mode):
        s = ad.matmul(ad.l2_normalize_rows(emb_i),
                      ad.transpose(ad.l2_normalize_rows(emb_t)))
        return contrastive_loss(s, margin=0.2, mode=mode)

    results["loss_contrastive_sum"] = gradient_check(lambda: ranking("sum"), params)
    results["loss_contrastive_hardest"] = gradient_check(
        lambda: ranking("hardest"), params)

    logits_i = Tensor(rng.normal(size=(b, k)))
    logits_t = Tensor(rng.normal(size=(b, k)))
    params = {"logits_i": logits_i, "logits_t": logits_t}
    results["loss_kl"] = gradient_check(
        lambda: kl_loss(ad.softmax_rows(logits_t), ad.softmax_rows(logits_i)),
        params)

    # total loss with the dynamic weights frozen at their base-point values,
    # which is exactly what detaching them means
    emb_i2 = Tensor(rng.normal(size=(b, d)))
    emb_t2 = Tensor(rng.normal(size=(b, d)))
    params = {"emb_i": emb_i2, "emb_t": emb_t2,
              "logits_i": logits_i, "logits_t": logits_t}

    def four_terms():
        s = ad.matmul(ad.l2_normalize_rows(emb_i2),
                      ad.transpose(ad.l2_normalize_rows(emb_t2)))
        return (contrastive_loss(s, 0.2, "sum"),
                contrastive_loss(s, 0.2, "hardest"),
                contrastive_loss(s, 0.3, "sum"),
                kl_loss(ad.softmax_rows(logits_t), ad.softmax_rows(logits_i)))

    frozen = [dynamic_weight(1.0, t.item()) for t in four_terms()]

    def total():
        terms = four_terms()
        out = ad.mul(terms[0], frozen[0])
        for lam, term in zip(frozen[1:], terms[1:]):
            out = ad.add(out, ad.mul(term, lam))
        return out

    results["loss_total"] = gradient_check(total, params)

    # the Bi-GRU over a padded batch: lengths 1, l and 2
    ids = PaddedBatch.of([[3], list(rng.integers(0, vocab, size=l)), [5, 1]])
    proj = rng.normal(size=(3, l, d))
    results["encode_text_padded"] = gradient_check(
        lambda: _project(encode_text(ids, embedding, gru_fwd, gru_bwd),
                         proj * ids.mask[:, :, None]), text)

    # masked attention pooling over a padded batch: lengths m, 1 and 2
    xs = Tensor(rng.normal(size=(3, m, d)))
    mask = np.arange(m) < np.array([m, 1, 2])[:, None]
    proj = rng.normal(size=(3, d))
    params = dict(attn.named_parameters("attn"), x=xs)
    results["attend_and_pool_masked"] = gradient_check(
        lambda: _project(attend_and_pool(xs, attn, mask), proj), params)

    # every op case, each from its own generator
    for name in OP_CASES:
        results[f"op_{name}"] = op_case_error(name, seed)

    # the fused Bi-GRU op alone: its input and all eighteen gate tensors,
    # over a padded batch of lengths 1, l and 2; the projection also weighs
    # the held states at padded slots
    fwd, bwd = GruGates.init(rng, d, d // 2), GruGates.init(rng, d, d // 2)
    xs = Tensor(rng.normal(size=(3, l, d)))
    mask = np.arange(l) < np.array([1, l, 2])[:, None]
    proj = rng.normal(size=(3, l, d))
    params = dict(fwd.named_parameters("forward"), **bwd.named_parameters("backward"), x=xs)
    results["bi_gru_masked"] = gradient_check(
        lambda: _project(bi_gru(xs, mask, fwd, bwd), proj), params)
    return results


def op_case_error(name: str, seed: int = 0) -> float:
    """Worst relative error of the op case ``name`` of ``OP_CASES``.

    The input and the output's projection come from a generator seeded by
    ``seed`` and the name alone, so a case gives the same number wherever
    it runs. Each input entry is kept at least 0.2 from zero, away from the
    kinks of relu and of the l2 norm; ``relu_near_zero`` moves relu's own
    inputs close to its kink.
    """
    op, shape = OP_CASES[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    x = rng.normal(size=shape)
    t = Tensor(x + 0.2 * np.sign(x))
    proj = rng.normal(size=op(t).shape)
    return gradient_check(lambda: _project(op(t), proj), {name: t})


# a fixed irregular operand for the binary ops
_W = np.sin(np.arange(1.0, 37.0)).reshape(6, 6)
# alternating centres for relu inputs; tanh keeps each within 0.04 of its
# centre, so every input lies in [-0.09, -0.01] or [0.01, 0.09], near the kink
_NEAR_ZERO = np.array([0.05, -0.05] * 6).reshape(3, 4)

# name -> (op of one tensor, input shape); every op of autodiff has a case
OP_CASES = {
    "shared_matmul": (lambda t: ad.matmul(t, Tensor(_W[:4, :5])), (3, 2, 4)),
    "gather": (lambda t: ad.gather(t, np.array([[1, 0], [1, 3]])), (4, 3)),
    "broadcast_mul": (lambda t: ad.mul(t, Tensor(_W[:4, :1])), (4, 2)),
    "matmul_22": (lambda t: ad.matmul(t, Tensor(_W[:4, :3])), (5, 4)),
    "matmul_rhs": (lambda t: ad.matmul(Tensor(_W[:3, :4]), t), (4, 5)),
    "transpose": (ad.transpose, (3, 4)),
    "add": (lambda t: ad.add(t, Tensor(_W[:3, :4])), (3, 4)),
    "add_rank0_lhs": (lambda t: ad.add(t, Tensor(_W[:3, :4])), ()),
    "sub": (lambda t: ad.sub(t, Tensor(_W[:3, :4])), (3, 4)),
    "sub_rank0_rhs": (lambda t: ad.sub(Tensor(_W[:3, :4]), t), ()),
    "mul": (lambda t: ad.mul(t, Tensor(_W[:3, :4])), (3, 4)),
    "mul_rank0": (lambda t: ad.mul(Tensor(_W[:3, :4]), t), ()),
    "add_number": (lambda t: ad.add(t, 1.7), (3, 4)),
    "sub_from_number": (lambda t: ad.sub(1.0, t), (3, 4)),
    "mul_number": (lambda t: ad.mul(t, -2.3), (3, 4)),
    "tanh": (ad.tanh, (3, 4)),
    "sigmoid": (ad.sigmoid, (3, 4)),
    "relu": (ad.relu, (3, 4)),
    "relu_near_zero": (lambda t: ad.relu(ad.add(ad.mul(ad.tanh(t), 0.04),
                                                Tensor(_NEAR_ZERO))), (3, 4)),
    "sum": (ad.sum, (3, 4)),
    "gather_2x3": (lambda t: ad.gather(t, np.array([[2, 0, 2], [1, 2, 3]])), (4, 3)),
    "matmul_32": (lambda t: ad.matmul(t, Tensor(_W[:4, :3])), (2, 5, 4)),
    "matmul_32_rhs": (lambda t: ad.matmul(Tensor(_W[:4, :6].reshape(2, 3, 4)), t),
                      (4, 3)),
    "softmax_r2": (ad.softmax_rows, (3, 4)),
    "softmax_r1": (ad.softmax_rows, (5,)),
    "l2_normalize": (ad.l2_normalize_rows, (3, 4)),
    "add_row": (lambda t: ad.add(t, Tensor(_W[0, :4])), (3, 4)),
    "add_row_v": (lambda t: ad.add(Tensor(_W[:3, :4]), t), (4,)),
    "add_row_r3": (lambda t: ad.add(t, Tensor(_W[0, :4])), (2, 3, 4)),
    "add_row_r3_v": (lambda t: ad.add(Tensor(_W[:4, :6].reshape(2, 3, 4)), t), (4,)),
    "sub_col": (lambda t: ad.sub(t, Tensor(_W[:3, :1])), (3, 4)),
    "sub_col_v": (lambda t: ad.sub(Tensor(_W[:3, :4]), t), (3, 1)),
    "mul_col": (lambda t: ad.mul(t, Tensor(_W[:3, :1])), (3, 4)),
    "mul_col_v": (lambda t: ad.mul(Tensor(_W[:3, :4]), t), (3, 1)),
    "mul_outer": (lambda t: ad.mul(t, Tensor(_W[:1, :4])), (3, 1)),
    "mul_outer_v": (lambda t: ad.mul(Tensor(_W[:3, :1]), t), (1, 4)),
    "mul_mid_r3": (lambda t: ad.mul(Tensor(_W[:4, :6].reshape(2, 3, 4)), t), (2, 1, 4)),
}


def _random_graph(rng: np.random.Generator, k: int, d: int) -> ConceptGraph:
    adj = rng.uniform(0.1, 1.0, size=(k, k))
    adj /= adj.sum(axis=1, keepdims=True)
    return ConceptGraph([f"c{i}" for i in range(k)], [1] * k, adj,
                        uniform_init(rng, (k, d), d))
