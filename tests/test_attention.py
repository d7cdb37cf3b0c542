"""Attention tests: scaled dot-product semantics, multi-head wiring, pooling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mhcvse.autodiff as ad
from mhcvse.attention import (
    MhsaParams, attend_and_pool, attention_scores, attention_weights,
    head_attention_weights, multi_head, scaled_dot_attention,
)
from mhcvse.autodiff import Tape, Tensor


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def one(x):
    """One (n, d) sequence as a batch of one, (1, n, d)."""
    return Tensor(np.asarray(x)[None])


class TestMhsaParams:
    def test_head_dim_division(self):
        p = MhsaParams.init(np.random.default_rng(0), d=8, h=4)
        assert p.head_count == 4
        assert p.head_dim == 2
        assert p.w_out.shape == (8, 8)
        for wq, wk, wv in p.heads:
            assert wq.shape == (8, 2)
            assert wk.shape == (8, 2)
            assert wv.shape == (8, 2)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            MhsaParams.init(np.random.default_rng(0), d=8, h=0)
        with pytest.raises(ValueError):
            MhsaParams.init(np.random.default_rng(0), d=8, h=3)

    def test_named_parameters(self):
        p = MhsaParams.init(np.random.default_rng(0), d=4, h=2)
        names = set(p.named_parameters("attn").keys())
        assert names == {"attn.head0.w_q", "attn.head0.w_k", "attn.head0.w_v",
                         "attn.head1.w_q", "attn.head1.w_k", "attn.head1.w_v",
                         "attn.w_out"}


class TestScaledDotAttention:
    def test_single_position_returns_value(self):
        rng = np.random.default_rng(1)
        q = one(rng.normal(size=(1, 3)))
        k = one(rng.normal(size=(1, 3)))
        v = one(rng.normal(size=(1, 3)))
        out = scaled_dot_attention(q, k, v)
        assert_allclose(out.data, v.data, rtol=0, atol=0)

    def test_identical_keys_give_column_mean(self):
        rng = np.random.default_rng(2)
        q = one(rng.normal(size=(4, 3)))
        k = one(np.tile(rng.normal(size=3), (4, 1)))
        v_data = rng.normal(size=(4, 3))
        out = scaled_dot_attention(q, k, one(v_data))
        expected = np.tile(v_data.mean(axis=0), (4, 1))
        assert_allclose(out.data[0], expected, rtol=0, atol=1e-12)

    def test_step_by_step_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.normal(size=(3, 2))
            k = rng.normal(size=(3, 2))
            v = rng.normal(size=(3, 2))
            scores = (q @ k.T) / np.sqrt(2.0)
            ref = softmax(scores) @ v
            got = scaled_dot_attention(one(q), one(k), one(v))
            assert_allclose(got.data[0], ref, rtol=0, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            attention_scores(one(np.zeros((2, 3))), one(np.zeros((2, 4))))
        with pytest.raises(ValueError):
            scaled_dot_attention(one(np.zeros((2, 3))),
                                 one(np.zeros((2, 3))),
                                 one(np.zeros((3, 3))))

    def test_scaling_divides_by_eight_at_dk_64(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(3, 64))
        k = rng.normal(size=(3, 64))
        scores = attention_scores(one(q), one(k))
        assert_allclose(scores.data[0], (q @ k.T) / 8.0, rtol=0, atol=0)


class TestAttentionWeights:
    def test_row_stochastic_across_heads_and_inputs(self):
        rng = np.random.default_rng(5)
        for h in (1, 2, 4, 8):
            p = MhsaParams.init(rng, d=8, h=h)
            x = one(rng.normal(size=(5, 8)) * 3.0)
            mats = head_attention_weights(x, p)
            assert len(mats) == h
            for w in mats:
                assert w.shape == (5, 5)
                assert np.all(w >= 0.0)
                assert_allclose(w.sum(axis=1), np.ones(5), rtol=0, atol=1e-12)

    def test_weights_match_direct_computation(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(4, 3))
        k = rng.normal(size=(4, 3))
        got = attention_weights(one(q), one(k)).data[0]
        assert_allclose(got, softmax((q @ k.T) / np.sqrt(3.0)),
                        rtol=0, atol=1e-14)


class TestMultiHead:
    def test_single_head_degeneracy(self):
        rng = np.random.default_rng(7)
        p = MhsaParams.init(rng, d=4, h=1)
        p.w_out = Tensor(np.eye(4))
        x = one(rng.normal(size=(5, 4)))
        wq, wk, wv = p.heads[0]
        direct = scaled_dot_attention(
            ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv))
        assert_allclose(multi_head(x, p).data, direct.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h", [1, 2, 4, 8])
    def test_shape_preserved(self, h):
        rng = np.random.default_rng(8)
        p = MhsaParams.init(rng, d=8, h=h)
        x = one(rng.normal(size=(6, 8)))
        assert multi_head(x, p).shape == (1, 6, 8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        p = MhsaParams.init(rng, d=8, h=2)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        base = multi_head(one(x), p).data[0]
        permuted = multi_head(one(x[perm]), p).data[0]
        assert_allclose(permuted, base[perm], rtol=0, atol=1e-10)

    def test_input_validation(self):
        p = MhsaParams.init(np.random.default_rng(10), d=4, h=2)
        with pytest.raises(ValueError):
            multi_head(Tensor(np.zeros(4)), p)
        with pytest.raises(ValueError):
            multi_head(Tensor(np.zeros((3, 4))), p)
        with pytest.raises(ValueError):
            multi_head(one(np.zeros((3, 5))), p)

    def test_concat_head_layout(self):
        # with W_out = identity, columns [i*d_k:(i+1)*d_k) come from head i
        rng = np.random.default_rng(11)
        p = MhsaParams.init(rng, d=4, h=2)
        p.w_out = Tensor(np.eye(4))
        x = one(rng.normal(size=(3, 4)))
        out = multi_head(x, p).data[0]
        for i, (wq, wk, wv) in enumerate(p.heads):
            head = scaled_dot_attention(
                ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv)).data[0]
            assert_allclose(out[:, i * 2:(i + 1) * 2], head, rtol=0, atol=1e-14)


class TestAttendAndPool:
    def test_single_row_passthrough(self):
        rng = np.random.default_rng(12)
        p = MhsaParams.init(rng, d=6, h=2)
        x = one(rng.normal(size=(1, 6)))
        pooled = attend_and_pool(x, p)
        assert_allclose(pooled.data[0], multi_head(x, p).data[0, 0], rtol=0, atol=0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        p = MhsaParams.init(rng, d=8, h=4)
        x = rng.normal(size=(7, 8))
        perm = rng.permutation(7)
        a = attend_and_pool(one(x), p).data
        b = attend_and_pool(one(x[perm]), p).data
        assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_pooled_is_row_mean(self):
        rng = np.random.default_rng(14)
        p = MhsaParams.init(rng, d=6, h=3)
        x = one(rng.normal(size=(4, 6)))
        assert_allclose(attend_and_pool(x, p).data[0],
                        multi_head(x, p).data[0].mean(axis=0), rtol=0, atol=1e-15)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(15)
        p = MhsaParams.init(rng, d=6, h=2)
        x = rng.normal(size=(1, 4, 6))
        probe = rng.normal(size=6)

        def loss_of(arr):
            return float(attend_and_pool(Tensor(arr), p).data[0] @ probe)

        t = Tensor(x.copy())
        with Tape() as tape:
            loss = ad.sum(ad.mul(attend_and_pool(t, p), Tensor(probe[None])))
            grads = tape.backward(loss)
        h = 1e-5
        flat = x.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_of(x)
            flat[i] = orig - h
            lo = loss_of(x)
            flat[i] = orig
            num[i] = (hi - lo) / (2 * h)
        num = num.reshape(x.shape)
        denom = np.maximum(np.maximum(np.abs(grads[t]), np.abs(num)), 1e-6)
        assert float(np.max(np.abs(grads[t] - num) / denom)) < 1e-4
