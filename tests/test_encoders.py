"""Encoder tests: image projection, GRU step semantics, Bi-GRU text encoding."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mhcvse.autodiff as ad
from mhcvse.autodiff import Tape, Tensor
from mhcvse.encoders import (
    GruGates, PaddedBatch, encode_image, encode_text, gru_step, uniform_init,
)
from mhcvse.gradcheck import TOLERANCE, gradient_check


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def zero_gates(d_in, d_hidden):
    z = lambda *s: Tensor(np.zeros(s))
    return GruGates(z(d_in, d_hidden), z(d_hidden, d_hidden), z(d_hidden),
                    z(d_in, d_hidden), z(d_hidden, d_hidden), z(d_hidden),
                    z(d_in, d_hidden), z(d_hidden, d_hidden), z(d_hidden))


def random_params(rng, vocab=12, feature_dim=8, embed_dim=8):
    """The encoders' tensors, drawn as the model draws them."""
    return SimpleNamespace(
        word_embedding=uniform_init(rng, (vocab, embed_dim), embed_dim),
        gru_forward=GruGates.init(rng, embed_dim, embed_dim // 2),
        gru_backward=GruGates.init(rng, embed_dim, embed_dim // 2),
        image_proj=uniform_init(rng, (feature_dim, embed_dim), feature_dim),
        image_bias=Tensor(np.zeros(embed_dim)))


def image(batch, p):
    return encode_image(batch, p.image_proj, p.image_bias)


def text(batch, p):
    return encode_text(batch, p.word_embedding, p.gru_forward, p.gru_backward)


def image_one(regions, p):
    """encode_image of a batch of one image, as its (M, d) rows."""
    return image(PaddedBatch.of([regions]), p).data[0]


def text_one(ids, p):
    """encode_text of a batch of one caption: (L, d) states, (d,) mean state."""
    states = text(PaddedBatch.of([ids]), p).data[0]
    return states, states.mean(axis=0)


def own_rows(x, mask):
    """Ids and a word table with one row per slot of a padded (B, L, d)
    input ``x``: encode_text over them reads each slot's row of ``x``, and
    the table's gradient, reshaped to (B, L, d), is the gradient of x."""
    b, length, d = x.shape
    ids = np.arange(b * length).reshape(b, length)
    return PaddedBatch(ids, np.asarray(mask, dtype=bool)), Tensor(x.reshape(b * length, d))


def peak(run):
    """The tracemalloc peak of ``run()``, in bytes above what was held before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def step_one(x, h_prev, gates):
    """gru_step on one (1, d) row, as a rank-1 array."""
    return gru_step(Tensor(x[None]), Tensor(h_prev[None]), gates).data[0]


class TestUniformInit:
    def test_bounds_and_coverage(self):
        rng = np.random.default_rng(0)
        t = uniform_init(rng, (200, 50), fan_in=25)
        bound = 1.0 / 5.0
        assert np.all(np.abs(t.data) <= bound)
        # spread over the interval rather than collapsed near zero
        assert t.data.max() > 0.8 * bound
        assert t.data.min() < -0.8 * bound


class TestEncodeImage:
    def test_identity_projection(self):
        rng = np.random.default_rng(1)
        regions = rng.normal(size=(3, 4))
        p = random_params(rng, feature_dim=4, embed_dim=4)
        p.image_proj = Tensor(np.eye(4))
        p.image_bias = Tensor(np.zeros(4))
        out = image_one(regions, p)
        assert_allclose(out, regions, rtol=0, atol=0)

    def test_single_region_shape(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, feature_dim=8, embed_dim=6)
        out = image(PaddedBatch.of([rng.normal(size=(1, 8))]), p)
        assert out.shape == (1, 1, 6)

    def test_matches_matmul_oracle_with_bias(self):
        rng = np.random.default_rng(3)
        regions = rng.normal(size=(4, 8))
        p = random_params(rng, feature_dim=8, embed_dim=6)
        p.image_bias = Tensor(rng.normal(size=6))
        out = image_one(regions, p)
        ref = regions @ p.image_proj.data + p.image_bias.data
        assert_allclose(out, ref, rtol=1e-13, atol=1e-13)

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, feature_dim=8, embed_dim=6)
        a = rng.normal(size=(3, 8))
        b = rng.normal(size=(3, 8))
        alpha, beta = 1.7, -0.4
        combined = image_one(alpha * a + beta * b, p)
        separate = alpha * image_one(a, p) + beta * image_one(b, p)
        assert_allclose(combined, separate, rtol=1e-10, atol=1e-10)

    def test_feature_width_mismatch(self):
        p = random_params(np.random.default_rng(5), feature_dim=8)
        with pytest.raises(ValueError):
            image(PaddedBatch.of([np.zeros((2, 5))]), p)


class TestGruStep:
    def test_zero_fixed_point(self):
        gates = zero_gates(4, 3)
        h = step_one(np.zeros(4), np.zeros(3), gates)
        assert_allclose(h, np.zeros(3), rtol=0, atol=0)

    def test_copy_gate_limit(self):
        rng = np.random.default_rng(6)
        gates = GruGates.init(rng, 4, 3)
        gates.b_z = Tensor(np.full(3, -50.0))  # update gate forced to ~0
        h_prev = rng.normal(size=3)
        h = step_one(rng.normal(size=4), h_prev, gates)
        assert_allclose(h, h_prev, rtol=0, atol=1e-12)

    def test_candidate_gate_limit(self):
        rng = np.random.default_rng(7)
        gates = GruGates.init(rng, 4, 3)
        gates.b_z = Tensor(np.full(3, 50.0))  # update gate forced to ~1
        x = rng.normal(size=4)
        h_prev = rng.normal(size=3)
        h = step_one(x, h_prev, gates)
        r = sigmoid(x @ gates.w_r.data + h_prev @ gates.u_r.data + gates.b_r.data)
        cand = np.tanh(x @ gates.w_h.data + (r * h_prev) @ gates.u_h.data
                       + gates.b_h.data)
        assert_allclose(h, cand, rtol=0, atol=1e-12)

    def test_reference_step_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            gates = GruGates.init(rng, 5, 4)
            x = rng.normal(size=5)
            h_prev = rng.normal(size=4)
            z = sigmoid(x @ gates.w_z.data + h_prev @ gates.u_z.data
                        + gates.b_z.data)
            r = sigmoid(x @ gates.w_r.data + h_prev @ gates.u_r.data
                        + gates.b_r.data)
            cand = np.tanh(x @ gates.w_h.data + (r * h_prev) @ gates.u_h.data
                           + gates.b_h.data)
            ref = (1.0 - z) * h_prev + z * cand
            got = step_one(x, h_prev, gates)
            assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_output_bounded_by_unit_interval_mix(self):
        # h_t is a convex mix of h_prev and a tanh value, so |h_t| stays below
        # max(|h_prev|, 1)
        rng = np.random.default_rng(9)
        gates = GruGates.init(rng, 4, 3)
        h_prev = rng.normal(size=3)
        h = step_one(rng.normal(size=4), h_prev, gates)
        assert np.all(np.abs(h) <= np.maximum(np.abs(h_prev), 1.0) + 1e-12)


class TestEncodeText:
    def test_single_token_pooled_equals_state(self):
        rng = np.random.default_rng(10)
        p = random_params(rng)
        states, pooled = text_one([3], p)
        assert states.shape == (1, 8)
        assert_allclose(pooled, states[0], rtol=0, atol=0)

    def test_zero_parameters_propagate_zero(self):
        rng = np.random.default_rng(11)
        p = random_params(rng)
        p.word_embedding = Tensor(np.zeros((12, 8)))
        p.gru_forward = zero_gates(8, 4)
        p.gru_backward = zero_gates(8, 4)
        states, pooled = text_one([0, 1, 2], p)
        assert_allclose(states, np.zeros((3, 8)), rtol=0, atol=0)
        assert_allclose(pooled, np.zeros(8), rtol=0, atol=0)

    def test_pooled_is_mean_of_states(self):
        # in a padded batch, the mean over a caption's real rows is the mean
        # of the states it has alone: padding never leaks into them
        rng = np.random.default_rng(12)
        p = random_params(rng)
        _, pooled = text_one([1, 5, 7, 2], p)
        batch = PaddedBatch.of([[3, 9, 9, 9, 9, 9], [1, 5, 7, 2]])
        states = text(batch, p).data[1]
        assert_allclose(pooled, states[batch.mask[1]].mean(axis=0), rtol=0, atol=1e-15)

    def test_state_layout_forward_backward_halves(self):
        rng = np.random.default_rng(13)
        p = random_params(rng)
        ids = [4, 9, 2]
        states, _ = text_one(ids, p)
        # forward half at t=0 equals a single forward GRU step from zero state
        emb0 = p.word_embedding.data[ids[0]]
        h0 = step_one(emb0, np.zeros(4), p.gru_forward)
        assert_allclose(states[0, :4], h0, rtol=0, atol=1e-14)
        # backward half at t=L-1 equals a single backward step from zero state
        embL = p.word_embedding.data[ids[-1]]
        hL = step_one(embL, np.zeros(4), p.gru_backward)
        assert_allclose(states[-1, 4:], hL, rtol=0, atol=1e-14)

    def test_reversal_symmetry_with_swapped_directions(self):
        rng = np.random.default_rng(14)
        p = random_params(rng)
        ids = [1, 4, 2, 9, 6]
        _, pooled = text_one(ids, p)
        swapped = SimpleNamespace(word_embedding=p.word_embedding,
                                  gru_forward=p.gru_backward, gru_backward=p.gru_forward)
        _, pooled_rev = text_one(ids[::-1], swapped)
        fwd_half, bwd_half = pooled[:4], pooled[4:]
        rev_fwd, rev_bwd = pooled_rev[:4], pooled_rev[4:]
        assert_allclose(rev_fwd, bwd_half, rtol=0, atol=1e-12)
        assert_allclose(rev_bwd, fwd_half, rtol=0, atol=1e-12)

    def test_palindrome_with_tied_directions(self):
        rng = np.random.default_rng(15)
        p = random_params(rng)
        p.gru_backward = p.gru_forward  # tie the two directions
        ids = [3, 7, 5, 7, 3]
        _, pooled = text_one(ids, p)
        _, pooled_rev = text_one(ids[::-1], p)
        assert_allclose(pooled, pooled_rev, rtol=0, atol=1e-12)

    def test_token_id_out_of_range(self):
        p = random_params(np.random.default_rng(16), vocab=12)
        with pytest.raises(ValueError):
            text(PaddedBatch.of([[0, 12]]), p)
        with pytest.raises(ValueError):
            text(PaddedBatch.of([[-1]]), p)


def gru_loop(x, gates, reverse):
    """Reference states (n, k) of one direction over one unpadded item (n, d):
    a loop of gru_step from a zero state."""
    h = Tensor(np.zeros((1, gates.u_z.shape[0])))
    out = [None] * len(x)
    for t in (range(len(x) - 1, -1, -1) if reverse else range(len(x))):
        h = gru_step(Tensor(x[t][None]), h, gates)
        out[t] = h.data[0]
    return np.array(out)


def logistic(x):
    """The logistic function as the library computes it, without overflow."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def per_direction_bi_gru(x, mask, forward, backward, g):
    """encode_text over the rows of x in plain numpy, one direction after the
    other: its states and the gradients of x and of the eighteen gate
    arrays for an output gradient ``g``.

    Each direction projects the time-major input rows once per gate, steps
    its (B, k) state through its slots, then runs its own reverse loop; its
    weight gradients are one product or sum over all slots in slot order,
    and the two input gradients add as forward + backward. The stacked
    loop of encode_text must give the same bits.
    """
    b, length, d_in = x.shape
    rows = x.transpose(1, 0, 2).reshape(length * b, d_in)
    live = mask.T[:, :, None]
    full = live.all(axis=(1, 2))
    g = g.transpose(1, 0, 2)

    def direction(gates, slots, g_dir):
        w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = gates
        k = u_z.shape[0]
        xz, xr, xh = ((rows @ w).reshape(length, b, k) for w in (w_z, w_r, w_h))
        states, before, z, r, cand = (np.empty((length, b, k)) for _ in range(5))
        h = np.zeros((b, k))
        for t in slots:
            a_z = (xz[t] + h @ u_z) + b_z
            a_r = (xr[t] + h @ u_r) + b_r
            r[t] = logistic(a_r)
            a_h = (xh[t] + (r[t] * h) @ u_h) + b_h
            z[t], cand[t] = logistic(a_z), np.tanh(a_h)
            h_next = (1.0 - z[t]) * h + z[t] * cand[t]
            before[t] = h
            h = h_next if full[t] else np.where(live[t], h_next, h)
            states[t] = h
        da_z, da_r, da_h = (np.empty((length, b, k)) for _ in range(3))
        carry = np.zeros((b, k))
        for t in reversed(slots):
            dh = carry + g_dir[t]
            gh = dh if full[t] else np.where(live[t], dh, 0.0)
            h, z_t, r_t, c_t = before[t], z[t], r[t], cand[t]
            da_h[t] = gh * z_t * (1.0 - c_t * c_t)
            drh = da_h[t] @ u_h.T
            da_z[t] = gh * (c_t - h) * z_t * (1.0 - z_t)
            da_r[t] = drh * h * r_t * (1.0 - r_t)
            dh_before = gh * (1.0 - z_t) + drh * r_t + da_z[t] @ u_z.T + da_r[t] @ u_r.T
            carry = dh_before if full[t] else np.where(live[t], dh_before, dh)
        flat = (length * b, k)
        da_z, da_r, da_h, before = (a.reshape(flat) for a in (da_z, da_r, da_h, before))
        d_rows = da_z @ w_z.T + da_r @ w_r.T + da_h @ w_h.T
        return states, d_rows, [
            rows.T @ da_z, before.T @ da_z, da_z.sum(axis=0),
            rows.T @ da_r, before.T @ da_r, da_r.sum(axis=0),
            rows.T @ da_h, (r.reshape(flat) * before).T @ da_h, da_h.sum(axis=0)]

    k = forward[1].shape[0]
    states_f, d_f, grads_f = direction(forward, list(range(length)), g[:, :, :k])
    states_b, d_b, grads_b = direction(backward, list(range(length - 1, -1, -1)),
                                       g[:, :, k:])
    states = np.concatenate([states_f, states_b], axis=2).transpose(1, 0, 2)
    d_x = (d_f + d_b).reshape(length, b, d_in).transpose(1, 0, 2)
    return states, [d_x] + grads_f + grads_b


class TestBiGru:
    @pytest.mark.parametrize("lengths, d, k, tied", [
        ((7,), 8, 4, False),             # a single caption, B = 1
        ((1,), 6, 3, False),
        ((4, 4, 4), 8, 4, False),        # equal lengths: no step is masked
        ((1, 5, 3, 1, 4), 6, 3, False),  # mixed lengths, some of 1
        ((2, 6, 1, 6), 8, 4, True),      # one gate set for both directions
    ])
    def test_is_bit_identical_to_one_direction_at_a_time(self, lengths, d, k, tied):
        rng = np.random.default_rng(len(lengths) + d + 10 * k)
        fwd = GruGates.init(rng, d, k)
        bwd = fwd if tied else GruGates.init(rng, d, k)
        for gates in {id(fwd): fwd, id(bwd): bwd}.values():
            gates.b_z, gates.b_r, gates.b_h = (Tensor(rng.normal(size=k)) for _ in range(3))
        batch = PaddedBatch.of([rng.normal(size=(n, d)) for n in lengths])
        probe = rng.normal(size=batch.values.shape[:2] + (2 * k,))
        ids, table = own_rows(batch.values, batch.mask)
        untaped = encode_text(ids, table, fwd, bwd).data
        with Tape() as tape:
            out = encode_text(ids, table, fwd, bwd)
            grads = tape.backward(ad.sum(ad.mul(out, Tensor(probe))))
        leaves = (table,) + fwd.tensors() + (() if tied else bwd.tensors())
        got = [grads[t] for t in leaves]
        got[0] = got[0].reshape(batch.values.shape)
        states, want = per_direction_bi_gru(
            batch.values, batch.mask, tuple(t.data for t in fwd.tensors()),
            tuple(t.data for t in bwd.tensors()), probe)
        if tied:
            # the tape adds a tied gate's two gradients, forward first
            want = want[:1] + [f + b for f, b in zip(want[1:10], want[10:])]
        assert len(got) == len(want) == (10 if tied else 19)
        assert np.array_equal(untaped, states)
        assert np.array_equal(out.data, states)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape and np.array_equal(a, b), f"gradient {i}"

    @pytest.mark.parametrize("lengths", [(1, 5, 3, 1, 4), (4, 4, 4), (1,), (6, 2)])
    def test_matches_a_gru_step_loop_over_each_item_alone(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        d, k = 6, 4
        fwd, bwd = GruGates.init(rng, d, k), GruGates.init(rng, d, k)
        items = [rng.normal(size=(n, d)) for n in lengths]
        batch = PaddedBatch.of(items)
        out = encode_text(*own_rows(batch.values, batch.mask), fwd, bwd).data
        assert out.shape == (len(lengths), max(lengths), 2 * k)
        for i, x in enumerate(items):
            n = len(x)
            assert_allclose(out[i, :n, :k], gru_loop(x, fwd, reverse=False),
                            rtol=0, atol=1e-12)
            assert_allclose(out[i, :n, k:], gru_loop(x, bwd, reverse=True),
                            rtol=0, atol=1e-12)
            # past its end a row holds its forward state, and its backward
            # state is still the zero it starts from
            assert np.all(out[i, n:, :k] == out[i, n - 1, :k])
            assert np.all(out[i, n:, k:] == 0.0)

    def test_a_tied_pair_of_directions_sums_both_gradients(self):
        rng = np.random.default_rng(21)
        gates = GruGates.init(rng, 4, 2)
        batch = PaddedBatch.of([rng.normal(size=(n, 4)) for n in (2, 3)])
        ids, table = own_rows(batch.values, batch.mask)
        probe = Tensor(rng.normal(size=(2, 3, 4)))
        worst = gradient_check(
            lambda: ad.sum(ad.mul(encode_text(ids, table, gates, gates), probe)),
            gates.named_parameters("gru"))
        assert worst < TOLERANCE

    @pytest.mark.parametrize("gate, direction", [
        pytest.param(gate, direction, id=gate if direction == "forward" else f"{gate}-backward")
        for direction in ("forward", "backward") for gate in ("w_z", "w_r", "w_h")])
    def test_a_huge_weight_raises_at_any_gate(self, gate, direction):
        # the reset gate saturates to 1 and leaves the states finite, so only
        # a check of each pre-activation sees its overflow; only slot 1's
        # inputs overflow, which the backward direction reaches at step 2
        rng = np.random.default_rng(22)
        gates = {"forward": GruGates.init(rng, 4, 2), "backward": GruGates.init(rng, 4, 2)}
        setattr(gates[direction], gate, Tensor(np.full((4, 2), 1e300)))
        x = np.ones((1, 4, 4))
        x[0, 1] = 1e10
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError,
                match=rf"{gate[-1]} pre-activation in encode_text at slot 1 "
                      rf"\({direction} direction\)"):
            encode_text(*own_rows(x, np.ones((1, 4))), gates["forward"], gates["backward"])

    def test_states_and_gradients_do_not_depend_on_a_tape(self):
        # without a tape the per-step activations only the vjp reads are
        # not kept; the states are the same bits either way, and a second
        # taped pass gives the same bits again
        rng = np.random.default_rng(25)
        fwd, bwd = GruGates.init(rng, 6, 3), GruGates.init(rng, 6, 3)
        batch = PaddedBatch.of([rng.normal(size=(n, 6)) for n in (4, 1, 3)])
        probe = Tensor(rng.normal(size=(3, 4, 6)))
        params = fwd.tensors() + bwd.tensors()

        def taped():
            ids, table = own_rows(batch.values, batch.mask)
            with Tape() as tape:
                out = encode_text(ids, table, fwd, bwd)
                grads = tape.backward(ad.sum(ad.mul(out, probe)))
            return out.data, [grads[t] for t in (table,) + params]

        states, grads = taped()
        untaped = encode_text(*own_rows(batch.values, batch.mask), fwd, bwd).data
        assert np.array_equal(untaped, states)
        again_states, again = taped()
        assert np.array_equal(again_states, states)
        assert len(again) == len(grads) == 19
        assert all(np.array_equal(a, b) for a, b in zip(again, grads))

    def test_memory_peaks_stay_within_the_arrays_the_op_needs(self):
        # the canonical text batch: 32 captions of 6 tokens, d = 128, k = 64,
        # each slot its own row of the word table; one (L, B, k) array of
        # float64 is 98 KB
        b, length, d, k = 32, 6, 128, 64
        unit = length * b * k * 8
        rng = np.random.default_rng(26)
        fwd, bwd = GruGates.init(rng, d, k), GruGates.init(rng, d, k)
        ids, table = own_rows(rng.normal(size=(b, length, d)), np.ones((b, length)))
        probe = Tensor(rng.normal(size=(b, length, 2 * k)))

        def taped():
            with Tape() as tape:
                loss = ad.sum(ad.mul(encode_text(ids, table, fwd, bwd), probe))
            tape.backward(loss)

        # untaped: the distinct ids' rows (2 units), the six input
        # projections (6), one gate's product over the distinct rows (1)
        # and the step buffers, then the output (2). A reordered copy of
        # the projections, or a buffered one of a gate's product, fails
        assert peak(lambda: encode_text(ids, table, fwd, bwd)) / unit < 10
        # taped forward and backward, with the probe's product and sum: the
        # step keeps z, r and the candidates (6 units), and the backward
        # pass makes the per-slot gate gradients (6), the state before each
        # step, the looked-up rows and the table's gradient (2 each). A
        # per-direction op that kept the input rows and the states before
        # each slot peaked near 29 units; a reordered copy of the states or
        # any saved array (at least 2 units) crosses 26
        assert peak(taped) / unit < 26

    def test_shape_guards(self):
        gates = GruGates.init(np.random.default_rng(23), 4, 2)
        table = Tensor(np.zeros((6, 4)))
        with pytest.raises(ValueError, match=r"\(B, L\) integer ids"):
            encode_text(PaddedBatch(np.zeros(3, dtype=int), np.ones(3, dtype=bool)),
                        table, gates, gates)
        with pytest.raises(ValueError, match=r"\(B, L\) integer ids"):
            encode_text(PaddedBatch.of([[0.0, 1.0]]), table, gates, gates)
        with pytest.raises(ValueError, match="outside vocabulary of 6"):
            encode_text(PaddedBatch.of([[0, 3], [6]]), table, gates, gates)

    def test_text_encoder_nodes_do_not_grow_with_caption_length(self):
        p = random_params(np.random.default_rng(24))
        counts = []
        for length in (1, 3, 9):
            with Tape() as tape:
                text(PaddedBatch.of([[1] * length, [2, 3]]), p)
            counts.append(len(tape))
        # one op; the embedding and gate tensors are leaves
        assert counts == [1, 1, 1]

    def test_repeated_ids_add_their_slots_input_gradients(self):
        # the word table's gradient is np.add.at of the per-slot input
        # gradients of the numpy reference, bit for bit
        rng = np.random.default_rng(28)
        p = random_params(rng, vocab=5)
        batch = PaddedBatch.of([[2, 0, 2, 4], [2, 2], [1, 4, 4]])
        probe = rng.normal(size=batch.values.shape + (8,))
        with Tape() as tape:
            grads = tape.backward(ad.sum(ad.mul(text(batch, p), Tensor(probe))))
        x = p.word_embedding.data[batch.values]
        _, want = per_direction_bi_gru(
            x, batch.mask, tuple(t.data for t in p.gru_forward.tensors()),
            tuple(t.data for t in p.gru_backward.tensors()), probe)
        want_table = np.zeros((5, 8))
        np.add.at(want_table, batch.values, want[0])
        assert np.array_equal(grads[p.word_embedding], want_table)
        assert not want_table[3].any()

    def test_repeated_ids_give_the_rows_of_one_row_per_slot(self):
        rng = np.random.default_rng(29)
        p = random_params(rng, vocab=6)
        batch = PaddedBatch.of([[5, 1, 5, 5], [1], [3, 1, 3]])
        own = encode_text(*own_rows(p.word_embedding.data[batch.values], batch.mask),
                          p.gru_forward, p.gru_backward)
        assert np.array_equal(text(batch, p).data, own.data)

    def test_the_forward_peak_of_a_default_width_caption_batch(self):
        # 32 captions of 6 to 19 tokens out of 2,001 word rows, d = 128: the
        # gather and the separate Bi-GRU op this op replaces peaked at
        # 2,953,344 bytes
        rng = np.random.default_rng(27)
        d, k, vocab = 128, 64, 2001
        table = uniform_init(rng, (vocab, d), d)
        fwd, bwd = GruGates.init(rng, d, k), GruGates.init(rng, d, k)
        batch = PaddedBatch.of([rng.integers(0, vocab, size=n)
                                for n in rng.integers(6, 20, size=32)])
        assert peak(lambda: encode_text(batch, table, fwd, bwd)) <= 2_953_344
