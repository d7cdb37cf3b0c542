"""Fusion tests: the three strategies, the global escape hatch, weight laws."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mhcvse.autodiff import AdamState, Tape, Tensor, adam_step
import mhcvse.autodiff as ad
from mhcvse.fusion import FUSE_TYPES, FusionParams, fuse, fusion_weights


def make_params(fuse_type, d=4, seed=0):
    return FusionParams.init(np.random.default_rng(seed), d, fuse_type)


def row(v):
    """One vector as a batch of one, (1, d)."""
    return Tensor(np.asarray(v)[None])


class TestFusionParams:
    def test_strategy_catalog(self):
        assert FUSE_TYPES == ("concat", "adap_sum", "weight_sum",
                              "global_weight_sum")

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            make_params("mean")

    def test_initial_state(self):
        assert make_params("concat", d=5).tensor is None
        assert make_params("adap_sum", d=5).tensor.item() == 0.0
        assert make_params("weight_sum", d=5).tensor.shape == (10, 2)
        assert np.array_equal(make_params("global_weight_sum", d=5).tensor.data,
                              np.zeros(2))

    def test_each_strategy_holds_only_its_tensor(self):
        names = {ft: list(make_params(ft).named_parameters()) for ft in FUSE_TYPES}
        assert names == {"concat": [], "adap_sum": ["fusion.alpha_raw"],
                         "weight_sum": ["fusion.weight_net"],
                         "global_weight_sum": ["fusion.global_logits"]}


class TestFuseOutputs:
    def test_concat_layout(self):
        p = make_params("concat", d=3)
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        out = fuse(row(a), row(b), p)
        assert out.shape == (1, 6)
        joint = np.concatenate([a, b])
        assert_allclose(out.data[0], joint / np.linalg.norm(joint),
                        rtol=0, atol=1e-15)

    def test_adap_sum_fixed_point(self):
        p = make_params("adap_sum")
        v = np.array([3.0, 0.0, 4.0, 0.0])
        out = fuse(row(v), row(v.copy()), p)
        assert_allclose(out.data[0], v / 5.0, rtol=0, atol=1e-15)

    def test_adap_sum_is_convex_combination(self):
        rng = np.random.default_rng(1)
        p = FusionParams("adap_sum", Tensor(0.7))
        a = 1.0 / (1.0 + np.exp(-0.7))
        vi, vt = rng.normal(size=4), rng.normal(size=4)
        out = fuse(row(vi), row(vt), p)
        blend = a * vi + (1.0 - a) * vt
        assert_allclose(out.data[0], blend / np.linalg.norm(blend),
                        rtol=0, atol=1e-14)
        lo = np.minimum(vi, vt) - 1e-12
        hi = np.maximum(vi, vt) + 1e-12
        assert np.all(blend >= lo) and np.all(blend <= hi)

    def test_weight_sum_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        p = make_params("weight_sum")
        for _ in range(100):
            w = fusion_weights(row(rng.normal(size=4)),
                               row(rng.normal(size=4)), p)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_cross_strategy_equivalence(self):
        # weight_net forced to emit (0.5, 0.5) must match adap_sum at alpha 0.5
        rng = np.random.default_rng(3)
        vi = row(rng.normal(size=4))
        vt = row(rng.normal(size=4))
        # logits (0,0) -> (0.5, 0.5)
        ws = FusionParams("weight_sum", Tensor(np.zeros((8, 2))))
        asum = FusionParams("adap_sum", Tensor(0.0))  # sigmoid(0) = 0.5
        a = fuse(vi, vt, ws).data
        b = fuse(vi, vt, asum).data
        assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_global_weight_sum_matches_manual_softmax(self):
        rng = np.random.default_rng(4)
        p = FusionParams("global_weight_sum", Tensor(np.array([1.0, -1.0])))
        vi, vt = rng.normal(size=4), rng.normal(size=4)
        e = np.exp([1.0, -1.0])
        w = e / e.sum()
        blend = w[0] * vi + w[1] * vt
        out = fuse(row(vi), row(vt), p)
        assert_allclose(out.data[0], blend / np.linalg.norm(blend),
                        rtol=0, atol=1e-14)
        assert_allclose(fusion_weights(row(vi), row(vt), p), w,
                        rtol=0, atol=1e-15)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(5)
        for ft in FUSE_TYPES:
            p = make_params(ft)
            out = fuse(row(rng.normal(size=4)), row(rng.normal(size=4)), p)
            assert abs(np.linalg.norm(out.data[0]) - 1.0) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        vi, vt = rng.normal(size=4), rng.normal(size=4)
        p = make_params("weight_sum")
        a = fuse(row(vi.copy()), row(vt.copy()), p).data
        b = fuse(row(vi.copy()), row(vt.copy()), p).data
        assert np.array_equal(a, b)

    def test_operand_validation(self):
        p = make_params("concat")
        with pytest.raises(ValueError):
            fuse(Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)), p)
        with pytest.raises(ValueError):
            fuse(row(np.zeros(4)), row(np.zeros(5)), p)

    def test_fusion_weights_none_for_concat(self):
        p = make_params("concat")
        assert fusion_weights(row(np.zeros(4)), row(np.zeros(4)), p) is None


class TestGradientFlow:
    def test_training_step_moves_adap_sum_alpha(self):
        rng = np.random.default_rng(7)
        p = make_params("adap_sum")
        before = p.tensor.item()
        target = row(rng.normal(size=4))
        with Tape() as tape:
            out = fuse(row(rng.normal(size=4)), row(rng.normal(size=4)), p)
            diff = ad.sub(out, target)
            grads = tape.backward(ad.sum(ad.mul(diff, diff)))
        adam_step(p.named_parameters(), grads, AdamState(), lr=0.01)
        assert p.tensor.item() != before

    def test_training_step_moves_weight_net(self):
        rng = np.random.default_rng(8)
        p = make_params("weight_sum")
        before = p.tensor.data.copy()
        target = row(rng.normal(size=4))
        with Tape() as tape:
            out = fuse(row(rng.normal(size=4)), row(rng.normal(size=4)), p)
            diff = ad.sub(out, target)
            grads = tape.backward(ad.sum(ad.mul(diff, diff)))
        adam_step(p.named_parameters(), grads, AdamState(), lr=0.01)
        assert not np.array_equal(p.tensor.data, before)
