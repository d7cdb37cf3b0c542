"""Acceptance suite: the nine headline guarantees, one pass/fail line each.

Each test prints ``acceptance N/9 <name>: PASS`` (or FAIL) so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist. The end-to-end
run (check 7) trains the default configuration on the canonical synthetic
dataset and takes the bulk of the suite's runtime.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tinymodel import snapshot, states_equal, tiny_setup

from mhcvse.attention import MhsaParams, attend_and_pool, head_attention_weights
from mhcvse.autodiff import AdamState, Tape, Tensor, matmul, mul, sum as t_sum
from mhcvse.config import TrainConfig
from mhcvse.data import generate_synthetic, load_dataset, read_features, write_features
from mhcvse.evaluation import evaluate, recall_at_k
from mhcvse.gradcheck import TOLERANCE, max_relative_error, numeric_gradients, run_suite
from mhcvse.losses import contrastive_loss, dynamic_weight, kl_loss, total_loss
from mhcvse.model import load_checkpoint, model_for, save_checkpoint
from mhcvse.training import LrSchedule, fit, lr_at, train_epoch


def report(index, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {index}/9 {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    """The canonical 64/16/16 synthetic dataset at the default seed."""
    out = tmp_path_factory.mktemp("synthetic")
    generate_synthetic(out)
    return out


def test_1_gradient_suite():
    start = time.perf_counter()
    results = run_suite(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(results.values())
    expected_blocks = {"gru_step", "attend_and_pool", "attend_and_pool_masked", "gcn",
                       "loss_contrastive_hardest", "loss_kl", "loss_total"}
    ok = (worst < TOLERANCE and elapsed < 60.0
          and expected_blocks <= results.keys()
          and all(f"fusion_{t}" in results
                  for t in ("concat", "adap_sum", "weight_sum")))
    report(1, "gradient suite", ok,
           f"worst rel err {worst:.2e} over {len(results)} blocks, {elapsed:.1f}s")


def test_2_attention_invariants():
    rng = np.random.default_rng(101)
    d, n = 8, 5
    x = rng.normal(size=(1, n, d))
    ok = True
    for h in (1, 2, 4, 8):
        params = MhsaParams.init(rng, d, h)
        ok &= attend_and_pool(Tensor(x), params).shape == (1, d)
        for weights in head_attention_weights(Tensor(x), params):
            ok &= bool(np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12))

    params = MhsaParams.init(rng, d, 2)
    perm = rng.permutation(n)
    base = head_attention_weights(Tensor(x), params)
    shuffled = head_attention_weights(Tensor(x[:, perm]), params)
    ok &= all(bool(np.abs(b - a[perm][:, perm]).max() <= 1e-10)
              for a, b in zip(base, shuffled))
    pooled = attend_and_pool(Tensor(x), params).data
    ok &= bool(np.abs(attend_and_pool(Tensor(x[:, perm]), params).data - pooled).max()
               <= 1e-10)

    single = MhsaParams.init(rng, d, 1)
    single.w_out.data[...] = np.eye(d)
    wq, wk, wv = (w.data for w in single.heads[0])
    q, k, v = x[0] @ wq, x[0] @ wk, x[0] @ wv
    scores = q @ k.T / np.sqrt(d)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    direct = (e / e.sum(axis=1, keepdims=True) @ v).mean(axis=0)
    ok &= bool(np.abs(attend_and_pool(Tensor(x), single).data[0] - direct).max() <= 1e-12)
    report(2, "attention invariants", ok)


def test_3_scheduler():
    eta0, eta_min, period = 0.006, 6e-05, 1000
    s = LrSchedule(eta0, eta_min, period)
    ok = abs(lr_at(s, 0) - eta0) <= 1e-12
    ok &= abs(lr_at(s, period // 2) - (eta0 + eta_min) / 2) <= 1e-12
    ok &= abs(lr_at(s, period) - eta0) <= 1e-12

    within = [lr_at(s, t) for t in range(period)]
    ok &= all(b <= a + 1e-18 for a, b in zip(within, within[1:]))

    rng = np.random.default_rng(103)
    for t in rng.integers(0, 50_000, size=1000):
        t = int(t)
        phase = (t % period) / period
        reference = eta_min + 0.5 * (eta0 - eta_min) * (1 + math.cos(math.pi * phase))
        ok &= abs(lr_at(s, t) - reference) <= 1e-12
        ok &= abs(lr_at(s, t + period) - lr_at(s, t)) <= 1e-12
    report(3, "lr schedule", ok)


def test_4_dynamic_weight():
    w = 1.7
    ok = abs(dynamic_weight(w, 0.0) - 0.5 * w) <= 1e-9
    ok &= abs(dynamic_weight(w, math.log(3.0)) - 0.75 * w) <= 1e-9
    ok &= abs(dynamic_weight(w, 50.0) - w) <= 1e-9
    ok &= abs(dynamic_weight(w, -50.0)) <= 1e-9

    grid = [dynamic_weight(w, x) for x in np.linspace(-25, 25, 1000)]
    ok &= all(b > a for a, b in zip(grid, grid[1:]))

    # detachment: tape gradients of the weighted total must match finite
    # differences of the total with the weights frozen at their base values
    rng = np.random.default_rng(107)
    img = Tensor(rng.normal(size=(4, 6)))
    txt = Tensor(rng.normal(size=(4, 6)))
    probe = Tensor(rng.normal(size=(4, 4)))

    def terms_of():
        from mhcvse.autodiff import l2_normalize_rows, transpose
        s = matmul(l2_normalize_rows(img), transpose(l2_normalize_rows(txt)))
        l1 = contrastive_loss(s, 0.2, "sum")
        l2 = contrastive_loss(s, 0.2, "hardest")
        l3 = t_sum(mul(s, probe))
        l3 = mul(l3, l3)  # squared so the term is nonnegative
        l4 = contrastive_loss(s, 0.3, "sum")
        return l1, l2, l3, l4

    with Tape() as tape:
        terms = total_loss(*terms_of())
        grads = tape.backward(terms.total)
    frozen = terms.effective_weights

    def frozen_objective():
        return sum(lam * t.item() for lam, t in zip(frozen, terms_of()))

    numeric = numeric_gradients(frozen_objective, {"img": img, "txt": txt})
    worst = max(max_relative_error(grads[img], numeric["img"]),
                max_relative_error(grads[txt], numeric["txt"]))
    ok &= worst < 1e-4
    report(4, "dynamic loss weights", ok, f"detachment rel err {worst:.2e}")


def test_5_loss_oracles():
    def hinge_oracle(s, margin, mode):
        b = s.shape[0]
        t_rows = [[max(0.0, margin - s[i, i] + s[i, j])
                   for j in range(b) if j != i] for i in range(b)]
        i_rows = [[max(0.0, margin - s[i, i] + s[j, i])
                   for j in range(b) if j != i] for i in range(b)]
        if mode == "sum":
            return (sum(map(sum, t_rows)) + sum(map(sum, i_rows))) / (b * (b - 1))
        return (sum(map(max, t_rows)) + sum(map(max, i_rows))) / b

    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(4, 9))
        s = rng.normal(size=(b, b))
        for mode in ("sum", "hardest"):
            got = contrastive_loss(Tensor(s), 0.2, mode).item()
            worst = max(worst, abs(got - hinge_oracle(s, 0.2, mode)))
    ok = worst <= 1e-12

    for _ in range(1000):
        k = int(rng.integers(2, 10))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        ok &= kl_loss(Tensor(p[None]), Tensor(q[None])).item() >= -1e-12
    p = rng.dirichlet(np.ones(6))
    ok &= kl_loss(Tensor(p[None]), Tensor(p[None].copy())).item() == 0.0
    report(5, "loss oracles", ok, f"worst hinge gap {worst:.2e}")


def test_6_retrieval_oracles(synthetic_dir):
    def sort_oracle(scores, relevant, k):
        hits = 0
        for i, rel in enumerate(relevant):
            order = sorted(range(scores.shape[1]),
                           key=lambda j: (-scores[i, j], j))
            hits += bool(set(order[:k]) & set(rel))
        return hits / scores.shape[0]

    rng = np.random.default_rng(113)
    ok = True
    for _ in range(50):
        n, m = int(rng.integers(2, 10)), int(rng.integers(2, 12))
        scores = np.round(rng.normal(size=(n, m)), 1)
        relevant = [[int(rng.integers(m))] for _ in range(n)]
        ks = sorted(set(int(k) for k in rng.integers(1, m + 2, size=4)))
        values = [recall_at_k(scores, relevant, k) for k in ks]
        ok &= values == [sort_oracle(scores, relevant, k) for k in ks]
        ok &= all(b >= a for a, b in zip(values, values[1:]))

    train_ds = load_dataset(synthetic_dir / "train.manifest.json")
    untrained = model_for(TrainConfig(), train_ds)
    result = evaluate(untrained, train_ds)
    n = len(train_ds.pairs)
    p = 1.0 / n
    band = 3.0 * math.sqrt(p * (1.0 - p) / n)
    for r1 in (result.text_r1, result.image_r1):
        ok &= abs(r1 - p) <= band
    report(6, "retrieval oracles", ok,
           f"untrained R@1 {result.text_r1:.4f}/{result.image_r1:.4f}, "
           f"chance {p:.4f} +/- {band:.4f}")


def test_7_end_to_end_convergence(synthetic_dir):
    start = time.perf_counter()
    cfg = TrainConfig()
    train_ds = load_dataset(synthetic_dir / "train.manifest.json")
    val_ds = load_dataset(synthetic_dir / "val.manifest.json", vocab=train_ds.vocab)
    test_ds = load_dataset(synthetic_dir / "test.manifest.json", vocab=train_ds.vocab)
    assert len(train_ds.pairs) == 64
    assert len(val_ds.pairs) == 16
    assert len(test_ds.pairs) == 16

    model = model_for(cfg, train_ds)
    result = fit(model, train_ds, val_ds)
    elapsed = time.perf_counter() - start

    train_result = evaluate(model, train_ds)
    test_result = evaluate(model, test_ds)
    n_test = len(test_ds.pairs)
    chance_mr = sum(min(k / n_test, 1.0) for k in (1, 5, 10)) / 3.0

    ok = len(result.history) <= cfg.epochs
    ok &= train_result.text_r1 >= 0.9 and train_result.image_r1 >= 0.9
    ok &= test_result.mr + 1e-12 >= 3.0 * chance_mr
    ok &= elapsed < 600.0

    # early stopping fires at exactly best+patience under a frozen signal
    frozen_model, frozen_train, frozen_val = tiny_setup()
    scores = iter([0.4, 0.7] + [0.7] * 30)
    frozen = fit(frozen_model, frozen_train, frozen_val,
                 eval_fn=lambda m: next(scores))
    ok &= frozen.best_epoch == 2
    ok &= len(frozen.history) == 2 + frozen_model.config.patience

    report(7, "end-to-end convergence", ok,
           f"train R@1 {train_result.text_r1:.3f}/{train_result.image_r1:.3f}, "
           f"test mR {test_result.mr:.4f} vs 3x chance {3 * chance_mr:.4f}, "
           f"{len(result.history)} epochs (best {result.best_epoch}), "
           f"{elapsed:.0f}s")


def test_8_default_configuration():
    cfg = TrainConfig()
    ok = cfg.heads == 8
    ok &= cfg.epochs == 30
    ok &= cfg.patience == 5
    ok &= cfg.fuse_type == "weight_sum"
    ok &= cfg.margin == 0.2
    ok &= cfg.contrastive_mode == "hardest"
    ok &= cfg.base_weights == (1.0, 1.0, 1.0, 1.0)
    report(8, "default configuration snapshot", ok)


def test_9_serialization(tmp_path):
    rng = np.random.default_rng(127)
    tensors = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=7),
               "c": np.float64(rng.normal())}
    ckpt = tmp_path / "t.mhcv"
    save_checkpoint(ckpt, tensors)
    loaded = load_checkpoint(ckpt)
    ok = all(np.array_equal(loaded[n], np.asarray(v))
             and loaded[n].shape == np.asarray(v).shape
             for n, v in tensors.items())

    features = {0: rng.normal(size=(3, 5)), 2: rng.normal(size=(2, 5))}
    feat_path = tmp_path / "t.rgft"
    write_features(feat_path, features)
    back = read_features(feat_path)
    ok &= all(np.array_equal(back[i],
                             v.astype(np.float32).astype(np.float64))
              for i, v in features.items())

    # resuming from a checkpoint with lr = 0 must not move any parameter
    model, train, _ = tiny_setup()
    train_epoch(model, train.pairs, AdamState(), LrSchedule(0.01, 0.0, 10),
                np.random.default_rng(1), epoch=1)
    save_checkpoint(tmp_path / "m.mhcv", model.state_tensors())
    resumed, _, _ = tiny_setup()
    resumed.load_state(load_checkpoint(tmp_path / "m.mhcv"))
    before = snapshot(resumed)
    train_epoch(resumed, train.pairs, AdamState(), LrSchedule(0.0, 0.0, 10),
                np.random.default_rng(2), epoch=1)
    ok &= states_equal(before, snapshot(resumed))
    ok &= states_equal(before, snapshot(model))
    report(9, "serialization round-trips", ok)
