"""Attention tests: scaled dot-product semantics, multi-head wiring, pooling,
and the fused op against a plain-numpy reference."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mhcvse.autodiff as ad
import mhcvse.model
from mhcvse.attention import MhsaParams, attend_and_pool, head_attention_weights
from mhcvse.autodiff import Tape, Tensor
from mhcvse.config import TrainConfig
from mhcvse.data import generate_synthetic, load_dataset
from mhcvse.model import model_for


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def one(x):
    """One (n, d) sequence as a batch of one, (1, n, d)."""
    return Tensor(np.asarray(x)[None])


def role(p, r):
    """Role r's (d, h·d_k) projection: the per-head matrices side by side."""
    return np.concatenate([head[r].data for head in p.heads], axis=1)


def reference_heads(x, p):
    """Per-head attention matrices (h, n, n) and head outputs (h, n, d_k) of
    one unpadded (n, d) sequence, one head at a time."""
    d_k = p.head_dim
    mats, outs = [], []
    for wq, wk, wv in p.heads:
        q, k, v = x @ wq.data, x @ wk.data, x @ wv.data
        a = softmax(q @ k.T / np.sqrt(d_k))
        mats.append(a)
        outs.append(a @ v)
    return np.array(mats), np.array(outs)


def reference_attended(x, p):
    """The attended rows (n, d) of one unpadded (n, d) sequence."""
    _, outs = reference_heads(x, p)
    return np.concatenate(list(outs), axis=1) @ p.w_out.data


def reference_pool(x, p, mask=None):
    """Pooled rows (B, d) of a padded (B, n, d) batch, each item alone over
    its real rows."""
    lengths = [x.shape[1]] * len(x) if mask is None else mask.sum(axis=1)
    return np.array([reference_attended(item[:n], p).mean(axis=0)
                     for item, n in zip(x, lengths)])


def per_row_reference(x, p, mask, g):
    """The per-row order in plain numpy: every real row's head outputs go
    through W_out and the rows are then averaged, and the hand-written vjp
    of that order for the upstream gradient g (B, d). Returns the pooled
    rows and the gradients of x, of every W_q, every W_k, every W_v and of
    W_out."""
    b, n, d = x.shape
    k = p.head_dim
    keep = mask[:, :, None]
    counts = mask.sum(axis=1)[:, None]
    flat = x.reshape(-1, d)
    heads = []
    for wq, wk, wv in ((w.data for w in head) for head in p.heads):
        q, key, v = x @ wq, x @ wk, x @ wv
        scores = np.where(mask[:, None, :], q @ key.swapaxes(-1, -2) / np.sqrt(k), -np.inf)
        heads.append((softmax(scores), q, key, v, wq, wk, wv))
    outs = np.concatenate([a @ v for a, _, _, v, *_ in heads], axis=-1)
    pooled = np.where(keep, outs @ p.w_out.data, 0.0).sum(axis=1) / counts

    g_rows = np.where(keep, g[:, None, :] / counts[:, :, None], 0.0)
    g_w_out = outs.reshape(b * n, -1).T @ g_rows.reshape(-1, d)
    g_outs = g_rows @ p.w_out.data.T
    g_x = np.zeros_like(x)
    g_role = ([], [], [])
    for i, (a, q, key, v, wq, wk, wv) in enumerate(heads):
        g_o = g_outs[..., i * k:(i + 1) * k]
        g_a = g_o @ v.swapaxes(-1, -2)
        g_s = a * (g_a - (g_a * a).sum(axis=-1, keepdims=True)) / np.sqrt(k)
        for r, (w, g_proj) in enumerate(((wq, g_s @ key), (wk, g_s.swapaxes(-1, -2) @ q),
                                         (wv, a.swapaxes(-1, -2) @ g_o))):
            g_x += g_proj @ w.T
            g_role[r].append(flat.T @ g_proj.reshape(-1, k))
    return pooled, [g_x, *g_role[0], *g_role[1], *g_role[2], g_w_out]


def padded(rng, lengths, d):
    """A zero-padded (B, n, d) batch of random items and its mask."""
    n = max(lengths)
    mask = np.arange(n) < np.array(lengths)[:, None]
    return rng.normal(size=(len(lengths), n, d)) * mask[:, :, None], mask


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
        # one row attends only to itself with weight exactly one, so the
        # pool is each head's value row, side by side, through W_out
        rng = np.random.default_rng(1)
        p = MhsaParams.init(rng, d=6, h=2)
        x = rng.normal(size=(1, 6))
        assert [w.tolist() for w in head_attention_weights(one(x), p)] == [[[1.0]]] * 2
        values = x @ np.stack([wv.data for _, _, wv in p.heads])
        assert_allclose(attend_and_pool(one(x), p).data,
                        np.concatenate(list(values), axis=1) @ p.w_out.data, rtol=0, atol=0)

    def test_identical_keys_give_column_mean(self):
        rng = np.random.default_rng(2)
        p = MhsaParams.init(rng, d=6, h=3)
        for _, wk, _ in p.heads:
            wk.data[...] = 0.0
        x = rng.normal(size=(4, 6))
        for w in head_attention_weights(one(x), p):
            assert_allclose(w, np.full((4, 4), 0.25), rtol=0, atol=1e-15)
        expected = (x.mean(axis=0) @ role(p, 2)) @ p.w_out.data
        assert_allclose(attend_and_pool(one(x), p).data[0], expected, rtol=0, atol=1e-12)

    def test_step_by_step_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = MhsaParams.init(rng, d=4, h=2)
            x = rng.normal(size=(3, 4))
            mats, _ = reference_heads(x, p)
            assert_allclose(np.array(head_attention_weights(one(x), p)), mats,
                            rtol=0, atol=1e-12)
            assert_allclose(attend_and_pool(one(x), p).data,
                            reference_pool(x[None], p), rtol=0, atol=1e-12)

    def test_shape_validation(self):
        p = MhsaParams.init(np.random.default_rng(0), d=4, h=2)
        x = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="mask"):
            attend_and_pool(x, p, np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="no real rows"):
            attend_and_pool(x, p, np.array([[True] * 3, [False] * 3]))
        with pytest.raises(TypeError):
            attend_and_pool(np.zeros((2, 3, 4)), p)

    def test_scaling_divides_by_eight_at_dk_64(self):
        rng = np.random.default_rng(4)
        p = MhsaParams.init(rng, d=64, h=1)
        x = rng.normal(size=(3, 64))
        wq, wk, _ = p.heads[0]
        scores = ((x @ wq.data) @ (x @ wk.data).T) / 8.0
        assert_allclose(head_attention_weights(one(x), p)[0], softmax(scores),
                        rtol=0, atol=1e-15)


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
        p = MhsaParams.init(rng, d=3, h=1)
        x = rng.normal(size=(4, 3))
        wq, wk, _ = p.heads[0]
        got = head_attention_weights(one(x), p)[0]
        assert_allclose(got, softmax((x @ wq.data) @ (x @ wk.data).T / np.sqrt(3.0)),
                        rtol=0, atol=1e-14)


class TestMultiHead:
    def test_single_head_degeneracy(self):
        rng = np.random.default_rng(7)
        p = MhsaParams.init(rng, d=4, h=1)
        p.w_out = Tensor(np.eye(4))
        x = rng.normal(size=(5, 4))
        wq, wk, wv = (w.data for w in p.heads[0])
        direct = softmax((x @ wq) @ (x @ wk).T / 2.0) @ (x @ wv)
        assert_allclose(attend_and_pool(one(x), p).data[0], direct.mean(axis=0),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h", [1, 2, 4, 8])
    def test_shape_preserved(self, h):
        rng = np.random.default_rng(8)
        p = MhsaParams.init(rng, d=8, h=h)
        x = Tensor(rng.normal(size=(3, 6, 8)))
        assert attend_and_pool(x, p).shape == (3, 8)
        assert [w.shape for w in head_attention_weights(one(x.data[0]), p)] == [(6, 6)] * h

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        p = MhsaParams.init(rng, d=8, h=2)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        base = head_attention_weights(one(x), p)
        permuted = head_attention_weights(one(x[perm]), p)
        for a, b in zip(base, permuted):
            assert_allclose(b, a[perm][:, perm], rtol=0, atol=1e-10)

    def test_input_validation(self):
        p = MhsaParams.init(np.random.default_rng(10), d=4, h=2)
        with pytest.raises(ValueError):
            attend_and_pool(Tensor(np.zeros(4)), p)
        with pytest.raises(ValueError):
            attend_and_pool(Tensor(np.zeros((3, 4))), p)
        with pytest.raises(ValueError):
            attend_and_pool(one(np.zeros((3, 5))), p)

    def test_concat_head_layout(self):
        # with W_out = identity, columns [i*d_k:(i+1)*d_k) come from head i
        rng = np.random.default_rng(11)
        p = MhsaParams.init(rng, d=4, h=2)
        p.w_out = Tensor(np.eye(4))
        x = rng.normal(size=(3, 4))
        out = attend_and_pool(one(x), p).data[0]
        _, heads = reference_heads(x, p)
        for i, head in enumerate(heads):
            assert_allclose(out[i * 2:(i + 1) * 2], head.mean(axis=0), rtol=0, atol=1e-14)


class TestAttendAndPool:
    def test_single_row_passthrough(self):
        # a one-row item padded beside longer ones pools to its value row
        # through W_out
        rng = np.random.default_rng(12)
        p = MhsaParams.init(rng, d=6, h=2)
        x, mask = padded(rng, (3, 1, 4), 6)
        pooled = attend_and_pool(Tensor(x), p, mask)
        assert_allclose(pooled.data[1], (x[1, 0] @ role(p, 2)) @ p.w_out.data,
                        rtol=0, atol=1e-15)

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
        x = rng.normal(size=(4, 6))
        assert_allclose(attend_and_pool(one(x), p).data[0],
                        reference_attended(x, p).mean(axis=0), rtol=0, atol=1e-15)


class TestFusedOp:
    @pytest.mark.parametrize("h,lengths", [
        (1, (5,)), (8, (5,)), (2, (3, 1, 5, 2)), (8, (1, 7, 4)), (1, (6, 1)), (4, (1,)),
    ], ids=["B1_h1", "B1_h8", "mixed_h2", "mixed_h8", "mixed_h1", "n1_h4"])
    def test_matches_the_numpy_reference(self, h, lengths):
        rng = np.random.default_rng(30 + h)
        p = MhsaParams.init(rng, d=16, h=h)
        x, mask = padded(rng, lengths, 16)
        got = attend_and_pool(Tensor(x), p, mask).data
        assert got.shape == (len(lengths), 16)
        assert_allclose(got, reference_pool(x, p, mask), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h,lengths", [(2, (5,)), (4, (1,)), (2, (3, 1, 5, 2)), (8, (1, 7, 4))],
                             ids=["B1", "n1", "mixed_h2", "mixed_h8"])
    def test_pooled_form_matches_the_per_row_order_and_its_vjp(self, h, lengths):
        # the op averages the attention weights before W_v and W_out; the
        # per-row order averages after them, so only rounding may differ
        rng = np.random.default_rng(70 + h)
        p = MhsaParams.init(rng, d=16, h=h)
        x, mask = padded(rng, lengths, 16)
        x = np.where(mask[:, :, None], x, rng.normal(size=x.shape) * 3.0)
        g = rng.normal(size=(len(lengths), 16))
        t = Tensor(x)
        leaves = [t, *p.role_tensors(), p.w_out]
        with Tape() as tape:
            pooled = attend_and_pool(t, p, mask)
            grads = tape.backward(ad.sum(ad.mul(pooled, Tensor(g))))
        want, want_grads = per_row_reference(x, p, mask, g)
        assert len(want_grads) == len(leaves) == 3 * h + 2

        def close(got, want):
            # relative to the largest entry; a zero gradient (W_q and W_k
            # when n = 1) must come out exactly zero
            return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        assert close(pooled.data, want)
        for leaf, want_grad in zip(leaves, want_grads):
            assert grads[leaf].shape == want_grad.shape
            assert close(grads[leaf], want_grad)
        assert np.all(grads[t][~mask] == 0.0)

    @pytest.mark.parametrize("h", [1, 8])
    def test_no_mask_means_every_row_is_real(self, h):
        rng = np.random.default_rng(40 + h)
        p = MhsaParams.init(rng, d=16, h=h)
        x = rng.normal(size=(3, 5, 16))
        got = attend_and_pool(Tensor(x), p).data
        assert_allclose(got, reference_pool(x, p), rtol=0, atol=1e-12)
        all_real = np.ones((3, 5), dtype=bool)
        assert np.array_equal(got, attend_and_pool(Tensor(x), p, all_real).data)

    def test_padded_rows_get_no_weight_and_no_gradient(self):
        rng = np.random.default_rng(50)
        p = MhsaParams.init(rng, d=8, h=2)
        x, mask = padded(rng, (4, 2, 1), 8)
        junk = np.where(mask[:, :, None], x, rng.normal(size=x.shape) * 100.0)
        probe = Tensor(rng.normal(size=(3, 8)))
        t = Tensor(junk)
        with Tape() as tape:
            pooled = attend_and_pool(t, p, mask)
            grads = tape.backward(ad.sum(ad.mul(pooled, probe)))
        assert_allclose(pooled.data, attend_and_pool(Tensor(x), p, mask).data,
                        rtol=0, atol=1e-14)
        assert np.all(grads[t][~mask] == 0.0)

    def test_an_overflowing_input_raises(self):
        p = MhsaParams.init(np.random.default_rng(52), d=4, h=2)
        x = Tensor(np.full((1, 3, 4), 1e200))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                FloatingPointError, match="attention scores"):
            attend_and_pool(x, p)

    def test_a_canonical_step_records_42_tape_nodes(self, tmp_path, monkeypatch):
        generate_synthetic(tmp_path)
        train = load_dataset(tmp_path / "train.manifest.json")
        cfg = TrainConfig()
        model = model_for(cfg, train)
        added = {}

        def counted(name):
            real = getattr(mhcvse.model, name)

            def call(*args):
                before = len(tape)
                out = real(*args)
                added.setdefault(name, []).append(len(tape) - before)
                return out
            monkeypatch.setattr(mhcvse.model, name, call)

        for name in ("encode_text", "attend_and_pool", "fuse", "contrastive_loss", "kl_loss"):
            counted(name)
        with Tape() as tape:
            model.loss_terms(train.pairs[:cfg.batch_size])
        assert cfg.batch_size == 32
        # the word lookup and the Bi-GRU are one op
        assert added["encode_text"] == [1]
        # one op per modality; the 3·8 head tensors and W_out are its leaves,
        # not nodes, so the count does not grow with the heads
        assert added["attend_and_pool"] == [1, 1]
        # the blend and its L2 normalization, once per modality
        assert added["fuse"] == [2, 2]
        # each loss term is one op over tensors already on the tape
        assert added["contrastive_loss"] == [1, 1, 1]
        assert added["kl_loss"] == [1]
        assert len(tape) == 42


class TestMemory:
    """tracemalloc peaks, in bytes, held at or below those of the per-row
    order: 1.58 MiB for the attention backward, 4.53 MiB for a canonical
    forward and backward."""

    @staticmethod
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_the_backward_peak_of_a_default_width_batch(self):
        rng = np.random.default_rng(60)
        p = MhsaParams.init(rng, d=128, h=8)
        x = Tensor(rng.normal(size=(32, 6, 128)))
        probe = Tensor(rng.normal(size=(32, 128)))
        with Tape() as tape:
            loss = ad.sum(ad.mul(attend_and_pool(x, p), probe))
        assert self.peak(lambda: tape.backward(loss)) <= 1.58 * 2**20

    def test_the_peak_of_a_canonical_forward_and_backward(self, tmp_path):
        generate_synthetic(tmp_path)
        train = load_dataset(tmp_path / "train.manifest.json")
        cfg = TrainConfig()
        model = model_for(cfg, train)

        def step():
            with Tape() as tape:
                terms = model.loss_terms(train.pairs[:cfg.batch_size])
            tape.backward(terms.total)
        assert self.peak(step) <= 4.53 * 2**20
