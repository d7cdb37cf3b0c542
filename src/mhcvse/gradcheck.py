"""Finite-difference gradient checking for every differentiable block and op.

``CASES`` is the one table of checks. Each name maps to a function of a
random generator that returns an output function and the named
parameters to check. ``case_error(name, seed)`` seeds a generator with
``seed`` and the name alone, builds the case from it, draws a fixed
random projection of the output to a scalar, and compares tape gradients
against central finite differences with h = 1e-5. So adding or changing
a case changes no other case's number. Relative error uses a small
absolute floor so near-zero gradients are compared absolutely:

    err = |analytic - numeric| / max(|analytic|, |numeric|, 1e-6)

``run_suite`` checks every case in table order; it is what the
``grad-check`` CLI subcommand runs, and every check must stay below 1e-4.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .attention import MhsaParams, attend_and_pool
from .autodiff import Tape, Tensor
from .consensus import ConceptGraph, consensus_embed, gcn_forward
from .encoders import GruGates, PaddedBatch, encode_image, encode_text, gru_step, uniform_init
from .fusion import FUSE_TYPES, FusionParams, fuse
from .losses import contrastive_loss, dynamic_weight, kl_loss

__all__ = ["numeric_gradients", "max_relative_error", "gradient_check",
           "case_error", "run_suite", "CASES", "TOLERANCE"]

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


def case_error(name: str, seed: int = 0) -> float:
    """Worst relative error of the case ``name`` of ``CASES``.

    The case's inputs and the projection of its output to a scalar come
    from one generator seeded by ``seed`` and the name alone. A parameter
    that starts at all zeros, as the GRU biases, the image bias,
    ``alpha_raw`` and ``global_logits`` do, is drawn from it too, so no
    check runs at that symmetric point.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    output, params = CASES[name](rng)
    for p in params.values():
        if not p.data.any():
            p.data[...] = rng.normal(size=p.shape)
    proj = Tensor(rng.normal(size=output().shape))
    return gradient_check(lambda: ad.sum(ad.mul(output(), proj)), params)


def run_suite(seed: int = 0) -> dict[str, float]:
    """The worst relative error of every case of ``CASES``, in table order."""
    return {name: case_error(name, seed) for name in CASES}


# the blocks' dims: embedding width, heads, region features, concepts,
# vocabulary and the losses' batch
_D, _HEADS, _F, _K, _VOCAB, _B = 8, 2, 6, 5, 20, 4
# rows per item of a padded batch of regions or attention inputs, and
# tokens per caption
_ROWS, _TOKENS = (4, 1, 3), (3, 1, 5, 2)


def _gru_step(rng):
    gates = GruGates.init(rng, _D, _D // 2)
    x_t, h_prev = Tensor(rng.normal(size=(3, _D))), Tensor(rng.normal(size=(3, _D // 2)))
    return (lambda: gru_step(x_t, h_prev, gates),
            dict(gates.named_parameters("gru"), x_t=x_t, h_prev=h_prev))


def _encode_image(rng):
    proj, bias = uniform_init(rng, (_F, _D), _F), Tensor(np.zeros(_D))
    regions = PaddedBatch.of([rng.normal(size=(n, _F)) for n in _ROWS])
    return (lambda: encode_image(regions, proj, bias),
            {"image_proj": proj, "image_bias": bias})


def _encode_text(real_only: bool):
    """The text encoder end to end over captions of mixed lengths. The
    output is every token state, the states held at padded slots too, or
    with ``real_only`` the real states alone, as the model reads them."""
    def case(rng):
        embedding = uniform_init(rng, (_VOCAB, _D), _D)
        fwd, bwd = GruGates.init(rng, _D, _D // 2), GruGates.init(rng, _D, _D // 2)
        ids = PaddedBatch.of([rng.integers(0, _VOCAB, size=n) for n in _TOKENS])
        real = Tensor(ids.mask[:, :, None] * 1.0)

        def output():
            states = encode_text(ids, embedding, fwd, bwd)
            return ad.mul(states, real) if real_only else states
        return output, {"word_embedding": embedding, **fwd.named_parameters("gru_forward"),
                        **bwd.named_parameters("gru_backward")}
    return case


def _attend_and_pool(masked: bool):
    """Attention pooling of three items: all rows real (no mask), or with
    ``masked`` of ``_ROWS`` real rows each."""
    def case(rng):
        attn = MhsaParams.init(rng, _D, _HEADS)
        x = Tensor(rng.normal(size=(len(_ROWS), max(_ROWS), _D)))
        mask = np.arange(max(_ROWS)) < np.array(_ROWS)[:, None] if masked else None
        return (lambda: attend_and_pool(x, attn, mask),
                dict(attn.named_parameters("attn"), x=x))
    return case


def _fusion(fuse_type: str):
    def case(rng):
        fp = FusionParams.init(rng, _D, fuse_type)
        inst, cons = Tensor(rng.normal(size=(3, _D))), Tensor(rng.normal(size=(3, _D)))
        return (lambda: fuse(inst, cons, fp),
                dict(fp.named_parameters("fusion"), instance=inst, consensus=cons))
    return case


def _gcn(rng):
    adjacency = rng.uniform(0.1, 1.0, size=(_K, _K))
    graph = ConceptGraph([f"c{i}" for i in range(_K)], [1] * _K,
                         adjacency / adjacency.sum(axis=1, keepdims=True),
                         uniform_init(rng, (_K, _D), _D))
    w0, w1 = uniform_init(rng, (_D, _D), _D), uniform_init(rng, (_D, _D), _D)
    return (lambda: gcn_forward(graph, w0, w1),
            {"concept_embeddings": graph.concept_embeddings, "w0": w0, "w1": w1})


def _consensus_embed(rng):
    gcn, params = _gcn(rng)
    predictor = uniform_init(rng, (_D, _K), _D)
    inst = Tensor(rng.normal(size=(3, _D)))
    return (lambda: consensus_embed(inst, gcn(), predictor)[0],
            dict(params, predictor=predictor, instance=inst))


def _scores(rng):
    """Cosine scores of raw image and text embeddings, as the ranking losses take them."""
    emb_i, emb_t = Tensor(rng.normal(size=(_B, _D))), Tensor(rng.normal(size=(_B, _D)))
    return (lambda: ad.matmul(ad.l2_normalize_rows(emb_i),
                              ad.transpose(ad.l2_normalize_rows(emb_t))),
            {"emb_i": emb_i, "emb_t": emb_t})


def _ranking(mode: str):
    def case(rng):
        scores, params = _scores(rng)
        return (lambda: contrastive_loss(scores(), 0.2, mode)), params
    return case


def _kl(rng):
    logits_i, logits_t = Tensor(rng.normal(size=(_B, _K))), Tensor(rng.normal(size=(_B, _K)))
    return (lambda: kl_loss(ad.softmax_rows(logits_t), ad.softmax_rows(logits_i)),
            {"logits_i": logits_i, "logits_t": logits_t})


def _loss_total(rng):
    """The four loss terms summed with their dynamic weights frozen at the
    base point's values, which is exactly what detaching them means."""
    scores, params = _scores(rng)
    kl, kl_params = _kl(rng)

    def terms():
        s = scores()
        return (contrastive_loss(s, 0.2, "sum"), contrastive_loss(s, 0.2, "hardest"),
                contrastive_loss(s, 0.3, "sum"), kl())

    frozen = [dynamic_weight(1.0, t.item()) for t in terms()]

    def total():
        first, *rest = terms()
        out = ad.mul(first, frozen[0])
        for lam, term in zip(frozen[1:], rest):
            out = ad.add(out, ad.mul(term, lam))
        return out
    return total, dict(params, **kl_params)


def _op(op, shape):
    """The case of ``op`` applied to one input of ``shape``. Each input entry
    is kept at least 0.2 from zero, away from the kinks of relu and of the
    l2 norm; ``op_relu_near_zero`` moves relu's own inputs close to its kink."""
    def case(rng):
        x = rng.normal(size=shape)
        t = Tensor(x + 0.2 * np.sign(x))
        return (lambda: op(t)), {"x": t}
    return case


# a fixed irregular operand for the binary ops
_W = np.sin(np.arange(1.0, 37.0)).reshape(6, 6)
# alternating centres for relu inputs; tanh keeps each within 0.04 of its
# centre, so every input lies in [-0.09, -0.01] or [0.01, 0.09], near the kink
_NEAR_ZERO = np.array([0.05, -0.05] * 6).reshape(3, 4)

# name -> case: a function of a generator that returns the output function
# and the named parameters to check; every block has a case, and every op
# of autodiff has an op_ case of its own
CASES = {
    "gru_step": _gru_step,
    "encode_image": _encode_image,
    "encode_text": _encode_text(real_only=False),
    "attend_and_pool": _attend_and_pool(masked=False),
    **{f"fusion_{fuse_type}": _fusion(fuse_type) for fuse_type in FUSE_TYPES},
    "gcn": _gcn,
    "consensus_embed": _consensus_embed,
    "loss_contrastive_sum": _ranking("sum"),
    "loss_contrastive_hardest": _ranking("hardest"),
    "loss_kl": _kl,
    "loss_total": _loss_total,
    "encode_text_padded": _encode_text(real_only=True),
    "attend_and_pool_masked": _attend_and_pool(masked=True),
    "op_shared_matmul": _op(lambda t: ad.matmul(t, Tensor(_W[:4, :5])), (3, 2, 4)),
    "op_broadcast_mul": _op(lambda t: ad.mul(t, Tensor(_W[:4, :1])), (4, 2)),
    "op_matmul_22": _op(lambda t: ad.matmul(t, Tensor(_W[:4, :3])), (5, 4)),
    "op_matmul_rhs": _op(lambda t: ad.matmul(Tensor(_W[:3, :4]), t), (4, 5)),
    "op_transpose": _op(ad.transpose, (3, 4)),
    "op_add": _op(lambda t: ad.add(t, Tensor(_W[:3, :4])), (3, 4)),
    "op_add_rank0_lhs": _op(lambda t: ad.add(t, Tensor(_W[:3, :4])), ()),
    "op_sub": _op(lambda t: ad.sub(t, Tensor(_W[:3, :4])), (3, 4)),
    "op_sub_rank0_rhs": _op(lambda t: ad.sub(Tensor(_W[:3, :4]), t), ()),
    "op_mul": _op(lambda t: ad.mul(t, Tensor(_W[:3, :4])), (3, 4)),
    "op_mul_rank0": _op(lambda t: ad.mul(Tensor(_W[:3, :4]), t), ()),
    "op_add_number": _op(lambda t: ad.add(t, 1.7), (3, 4)),
    "op_sub_from_number": _op(lambda t: ad.sub(1.0, t), (3, 4)),
    "op_mul_number": _op(lambda t: ad.mul(t, -2.3), (3, 4)),
    "op_tanh": _op(ad.tanh, (3, 4)),
    "op_sigmoid": _op(ad.sigmoid, (3, 4)),
    "op_relu": _op(ad.relu, (3, 4)),
    "op_relu_near_zero": _op(lambda t: ad.relu(ad.add(ad.mul(ad.tanh(t), 0.04),
                                                       Tensor(_NEAR_ZERO))), (3, 4)),
    "op_sum": _op(ad.sum, (3, 4)),
    "op_matmul_32": _op(lambda t: ad.matmul(t, Tensor(_W[:4, :3])), (2, 5, 4)),
    "op_matmul_32_rhs": _op(lambda t: ad.matmul(Tensor(_W[:4, :6].reshape(2, 3, 4)), t),
                            (4, 3)),
    "op_softmax_r2": _op(ad.softmax_rows, (3, 4)),
    "op_softmax_r1": _op(ad.softmax_rows, (5,)),
    "op_l2_normalize": _op(ad.l2_normalize_rows, (3, 4)),
    "op_add_row": _op(lambda t: ad.add(t, Tensor(_W[0, :4])), (3, 4)),
    "op_add_row_v": _op(lambda t: ad.add(Tensor(_W[:3, :4]), t), (4,)),
    "op_add_row_r3": _op(lambda t: ad.add(t, Tensor(_W[0, :4])), (2, 3, 4)),
    "op_add_row_r3_v": _op(lambda t: ad.add(Tensor(_W[:4, :6].reshape(2, 3, 4)), t), (4,)),
    "op_sub_col": _op(lambda t: ad.sub(t, Tensor(_W[:3, :1])), (3, 4)),
    "op_sub_col_v": _op(lambda t: ad.sub(Tensor(_W[:3, :4]), t), (3, 1)),
    "op_mul_col": _op(lambda t: ad.mul(t, Tensor(_W[:3, :1])), (3, 4)),
    "op_mul_col_v": _op(lambda t: ad.mul(Tensor(_W[:3, :4]), t), (3, 1)),
    "op_mul_outer": _op(lambda t: ad.mul(t, Tensor(_W[:1, :4])), (3, 1)),
    "op_mul_outer_v": _op(lambda t: ad.mul(Tensor(_W[:3, :1]), t), (1, 4)),
    "op_mul_mid_r3": _op(lambda t: ad.mul(Tensor(_W[:4, :6].reshape(2, 3, 4)), t),
                         (2, 1, 4)),
}
