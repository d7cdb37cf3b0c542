"""Ranking losses, KL alignment, and the dynamic weighting of the total."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mhcvse.autodiff import (
    Tape,
    Tensor,
    mul,
    sum as t_sum,
)
from mhcvse.gradcheck import max_relative_error, numeric_gradients
from mhcvse.losses import (
    CONTRASTIVE_MODES,
    LossTerms,
    contrastive_loss,
    dynamic_weight,
    kl_loss,
    total_loss,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def hinge_oracle(s, margin, mode, images=None):
    """Exhaustive double loop over queries and negatives in both directions;
    the negatives of pair i are the pairs of other ``images`` (each pair
    its own image when None)."""
    b = s.shape[0]
    images = range(b) if images is None else images
    others = [[j for j in range(b) if images[j] != images[i]] for i in range(b)]
    t_rows = [[max(0.0, margin - s[i, i] + s[i, j]) for j in others[i]] for i in range(b)]
    i_rows = [[max(0.0, margin - s[i, i] + s[j, i]) for j in others[i]] for i in range(b)]
    if mode == "sum":
        return (sum(map(sum, t_rows)) + sum(map(sum, i_rows))) / max(sum(map(len, others)), 1)
    return (sum(max(r, default=0.0) for r in t_rows)
            + sum(max(r, default=0.0) for r in i_rows)) / b


def hinge_grad_oracle(s, margin, mode, images=None):
    """Gradient of ``hinge_oracle`` by the same double loop: each active
    hinge adds 1/n at its negative's score and takes 1/n from the matched
    score; ``hardest`` keeps each query's first worst negative only."""
    b = s.shape[0]
    images = range(b) if images is None else images
    others = [[j for j in range(b) if images[j] != images[i]] for i in range(b)]
    n = max(sum(map(len, others)), 1) if mode == "sum" else b
    grad = np.zeros_like(s)
    for i in range(b):
        for cells in ([(i, j) for j in others[i]], [(j, i) for j in others[i]]):
            hinges = [(margin - s[i, i] + s[cell], cell) for cell in cells]
            active = [cell for v, cell in hinges if v > 0.0]
            if mode == "hardest" and active:
                worst = max(v for v, _ in hinges)
                active = [next(cell for v, cell in hinges if v == worst)]
            for cell in active:
                grad[cell] += 1.0 / n
                grad[i, i] -= 1.0 / n
    return grad


def loss_and_grad(loss_fn, *arrays):
    leaves = [Tensor(a.copy()) for a in arrays]
    with Tape() as tape:
        loss = loss_fn(*leaves)
        grads = tape.backward(loss)
    assert len(tape) == 1  # one op; the leaves are not nodes
    return loss.item(), [grads[t] for t in leaves]


class TestContrastiveLoss:
    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_value_and_gradient_match_the_pair_loop(self, mode):
        rng = np.random.default_rng(53)
        for _ in range(100):
            b = int(rng.integers(2, 9))
            s = rng.normal(scale=0.3, size=(b, b))
            value, (grad,) = loss_and_grad(
                lambda t: contrastive_loss(t, margin=0.2, mode=mode), s)
            assert_allclose(value, hinge_oracle(s, 0.2, mode), rtol=0, atol=1e-15)
            assert_allclose(grad, hinge_grad_oracle(s, 0.2, mode), rtol=0, atol=1e-15)

    def test_tied_hardest_negatives_route_to_the_first_index(self):
        # row 0's negatives 1 and 2 tie, and so do column 0's rows 1 and 2;
        # each tie sends the whole gradient to index 1. Every hinge is
        # 0.125 or -0.25, exact in binary.
        s = np.array([[1.0, 0.875, 0.875],
                      [0.875, 1.0, 0.5],
                      [0.875, 0.5, 1.0]])
        value, (grad,) = loss_and_grad(
            lambda t: contrastive_loss(t, margin=0.25, mode="hardest"), s)
        assert value == 6 * 0.125 / 3
        want = np.array([[-2.0, 2.0, 1.0],
                         [2.0, -2.0, 0.0],
                         [1.0, 0.0, -2.0]]) / 3
        assert np.array_equal(grad, want)
        assert np.array_equal(grad, hinge_grad_oracle(s, 0.25, "hardest"))

    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_identity_similarity_is_separated(self, mode):
        loss = contrastive_loss(Tensor(np.eye(4)), margin=0.2, mode=mode)
        assert loss.item() == 0.0

    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_all_ones_gives_twice_the_margin(self, mode):
        # every hinge sits exactly at the margin in both directions
        loss = contrastive_loss(Tensor(np.ones((5, 5))), margin=0.2, mode=mode)
        assert_allclose(loss.item(), 0.4, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_matches_double_loop_oracle(self, mode):
        rng = np.random.default_rng(17)
        for _ in range(100):
            b = int(rng.integers(2, 9))
            s = rng.normal(size=(b, b))
            got = contrastive_loss(Tensor(s), margin=0.2, mode=mode).item()
            assert_allclose(got, hinge_oracle(s, 0.2, mode), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_invariant_to_adding_a_constant(self, mode):
        rng = np.random.default_rng(23)
        s = rng.normal(size=(6, 6))
        base = contrastive_loss(Tensor(s), margin=0.2, mode=mode).item()
        shifted = contrastive_loss(Tensor(s + 3.7), margin=0.2, mode=mode).item()
        assert_allclose(shifted, base, rtol=0, atol=1e-12)

    def test_hardest_bounded_by_sum_times_negatives(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            b = int(rng.integers(2, 8))
            s = rng.normal(size=(b, b))
            hard = contrastive_loss(Tensor(s), 0.2, "hardest").item()
            mean = contrastive_loss(Tensor(s), 0.2, "sum").item()
            assert hard <= mean * (b - 1) + 1e-12
            assert hard >= mean / (b - 1) - 1e-12

    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_a_captions_own_image_is_not_its_negative(self, mode):
        # captions 0, 2 and 3 share an image, as do 1 and 5: none of them
        # is a negative of another, in either direction
        rng = np.random.default_rng(57)
        images = [7, 4, 7, 7, 9, 4]
        for _ in range(20):
            s = rng.normal(size=(6, 6))
            value, (grad,) = loss_and_grad(
                lambda t: contrastive_loss(t, 0.2, mode, images), s)
            assert_allclose(value, hinge_oracle(s, 0.2, mode, images), rtol=0, atol=1e-12)
            assert_allclose(grad, hinge_grad_oracle(s, 0.2, mode, images),
                            rtol=0, atol=1e-15)
        # each caption scores its own image's other captions at the margin:
        # a loss that read them as negatives would not be 0
        s = np.where(np.equal.outer(images, images), 1.0, 0.0)
        assert contrastive_loss(Tensor(s), 0.2, mode, images).item() == 0.0

    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_distinct_images_give_the_bits_of_one_image_per_pair(self, mode):
        rng = np.random.default_rng(59)
        s = rng.normal(size=(5, 5))
        value, (grad,) = loss_and_grad(lambda t: contrastive_loss(t, 0.2, mode), s)
        for images in ([80, 3, 11, 0, 5], np.arange(5)):
            got, (got_grad,) = loss_and_grad(
                lambda t: contrastive_loss(t, 0.2, mode, images), s)
            assert got == value and np.array_equal(got_grad, grad)
        # the value the loss had before it took image ids
        assert value.hex() == {"sum": "0x1.6a402d4143b46p+0",
                               "hardest": "0x1.9e3e009c51200p+1"}[mode]

    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_a_batch_of_one_image_has_no_negative(self, mode):
        value, (grad,) = loss_and_grad(
            lambda t: contrastive_loss(t, 0.2, mode, [3, 3, 3]), np.ones((3, 3)))
        assert value == 0.0 and not grad.any()

    def test_image_ids_must_match_the_batch(self):
        with pytest.raises(ValueError, match="image ids of shape"):
            contrastive_loss(Tensor(np.eye(3)), 0.2, "sum", [0, 1])

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="batch of >= 2"):
            contrastive_loss(Tensor(np.ones((1, 1))), margin=0.2)

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            contrastive_loss(Tensor(np.eye(3)), margin=0.0)

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValueError, match=f"margin must be positive and finite, got {margin}"):
            contrastive_loss(Tensor(np.eye(3)), margin=margin)

    @pytest.mark.parametrize("margin", [True, np.int64(1), "0.2"],
                             ids=["bool", "numpy_int", "str"])
    def test_a_margin_that_is_not_a_plain_number_rejected(self, margin):
        with pytest.raises(TypeError):
            contrastive_loss(Tensor(np.eye(3)), margin=margin)

    def test_rectangular_scores_rejected(self):
        with pytest.raises(ValueError, match="square"):
            contrastive_loss(Tensor(np.ones((3, 4))), margin=0.2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown contrastive mode"):
            contrastive_loss(Tensor(np.eye(3)), margin=0.2, mode="softmax")

    @pytest.mark.parametrize("mode", CONTRASTIVE_MODES)
    def test_gradient_matches_finite_differences(self, mode):
        rng = np.random.default_rng(31)
        s = rng.normal(size=(5, 5))
        leaf = Tensor(s.copy())
        with Tape() as tape:
            loss = contrastive_loss(leaf, margin=0.2, mode=mode)
            grads = tape.backward(loss)
        numeric = numeric_gradients(lambda: hinge_oracle(leaf.data, 0.2, mode),
                                    {"s": leaf}, h=1e-6)
        assert max_relative_error(grads[leaf], numeric["s"]) < 1e-4


class TestKlLoss:
    def test_gradient_matches_the_closed_form(self):
        # d/dp = (log(p / q) + 1) / B and d/dq = -(p / q) / B
        rng = np.random.default_rng(59)
        p = rng.dirichlet(np.ones(7), size=5)
        q = rng.dirichlet(np.ones(7), size=5)
        value, (grad_p, grad_q) = loss_and_grad(kl_loss, p, q)
        assert_allclose(value, np.sum(p * np.log(p / q)) / 5, rtol=1e-15, atol=0)
        assert_allclose(grad_p, (np.log(p / q) + 1.0) / 5, rtol=0, atol=1e-15)
        assert_allclose(grad_q, -(p / q) / 5, rtol=1e-15, atol=0)

    def test_identical_distributions_give_zero(self):
        p = Tensor(np.array([[0.2, 0.3, 0.5]]))
        assert kl_loss(p, Tensor(p.data.copy())).item() == 0.0

    def test_near_point_mass_against_uniform(self):
        delta = 1e-6
        p = np.array([1.0 - delta, delta])
        q = np.array([0.5, 0.5])
        exact = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
        got = kl_loss(Tensor(p[None]), Tensor(q[None])).item()
        assert_allclose(got, exact, rtol=0, atol=1e-15)
        assert_allclose(got, math.log(2.0), rtol=0, atol=2e-5)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            assert kl_loss(Tensor(p[None]), Tensor(q[None])).item() >= -1e-12

    def test_batch_input_averages_rows(self):
        rng = np.random.default_rng(41)
        p = rng.dirichlet(np.ones(6), size=4)
        q = rng.dirichlet(np.ones(6), size=4)
        batch = kl_loss(Tensor(p), Tensor(q)).item()
        rows = [kl_loss(Tensor(p[i:i + 1]), Tensor(q[i:i + 1])).item() for i in range(4)]
        assert_allclose(batch, np.mean(rows), rtol=0, atol=1e-12)

    def test_zero_entry_rejected_while_checks_enabled(self):
        p = Tensor(np.array([[1.0, 0.0]]))
        q = Tensor(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="strictly positive"):
            kl_loss(p, q)

    def test_unnormalized_rows_rejected(self):
        p = Tensor(np.array([[0.4, 0.4]]))
        q = Tensor(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="sum to 1"):
            kl_loss(p, q)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            kl_loss(Tensor(np.full((1, 3), 1 / 3)), Tensor(np.full((1, 4), 0.25)))

    def test_rank3_rejected(self):
        t = Tensor(np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match=r"\(B, K\) distribution rows"):
            kl_loss(t, t)


class TestDynamicWeight:
    def test_zero_loss_halves_the_weight(self):
        assert dynamic_weight(1.0, 0.0) == 0.5
        assert dynamic_weight(2.0, 0.0) == 1.0

    def test_log_three_gives_three_quarters(self):
        assert_allclose(dynamic_weight(1.0, math.log(3.0)), 0.75,
                        rtol=0, atol=1e-12)
        assert_allclose(dynamic_weight(4.0, math.log(3.0)), 3.0,
                        rtol=0, atol=1e-12)

    def test_saturation_at_extremes(self):
        assert_allclose(dynamic_weight(1.0, 50.0), 1.0, rtol=0, atol=1e-12)
        assert_allclose(dynamic_weight(1.0, -50.0), 0.0, rtol=0, atol=1e-12)

    def test_strictly_increasing_and_bounded(self):
        xs = np.linspace(-20.0, 20.0, 1000)
        ws = [dynamic_weight(3.0, float(x)) for x in xs]
        assert all(b > a for a, b in zip(ws, ws[1:]))
        assert all(0.0 < w < 3.0 for w in ws)

    def test_invert_flips_the_argument(self):
        for x in (-2.0, -0.5, 0.0, 1.3, 7.0):
            assert dynamic_weight(1.0, x, invert=True) == dynamic_weight(1.0, -x)


class TestTotalLoss:
    @staticmethod
    def _scalars(*values):
        return tuple(Tensor(np.float64(v)) for v in values)

    def test_all_zero_terms_give_zero_total(self):
        terms = total_loss(*self._scalars(0.0, 0.0, 0.0, 0.0))
        assert terms.total.item() == 0.0
        assert terms.effective_weights == (0.5, 0.5, 0.5, 0.5)

    def test_single_active_term_is_sigmoid_weighted(self):
        terms = total_loss(*self._scalars(1.0, 0.0, 0.0, 0.0))
        assert_allclose(terms.total.item(), sigmoid(1.0), rtol=0, atol=1e-12)

    def test_monotone_in_each_term_on_a_grid(self):
        grid = np.linspace(0.0, 10.0, 200)
        prev = -1.0
        for x in grid:
            t = total_loss(*self._scalars(float(x), 0.0, 0.0, 0.0)).total.item()
            assert t >= prev
            prev = t

    def test_effective_weights_respect_base_weights(self):
        rng = np.random.default_rng(43)
        base = (1.0, 2.0, 0.5, 3.0)
        for _ in range(25):
            vals = rng.uniform(0.0, 4.0, size=4)
            terms = total_loss(*self._scalars(*vals), base_weights=base)
            for lam, w, v in zip(terms.effective_weights, base, vals):
                assert 0.0 < lam < w
                assert_allclose(lam, dynamic_weight(w, float(v)),
                                rtol=0, atol=1e-15)

    def test_invert_flag_reaches_the_weights(self):
        terms = total_loss(*self._scalars(2.0, 0.0, 0.0, 0.0), invert=True)
        assert_allclose(terms.effective_weights[0],
                        dynamic_weight(1.0, -2.0), rtol=0, atol=1e-15)

    def test_values_returns_plain_floats(self):
        terms = total_loss(*self._scalars(1.0, 2.0, 3.0, 4.0))
        vals = terms.values()
        assert vals == (1.0, 2.0, 3.0, 4.0)
        assert all(isinstance(v, float) for v in vals)
        assert isinstance(terms, LossTerms)

    def test_weights_are_constants_to_backward(self):
        # gradient of the total w.r.t. a leaf must be lambda * dL/dleaf with
        # lambda frozen; no sigmoid-derivative term may leak in
        theta = Tensor(np.array([1.3]))
        zero = Tensor(np.float64(0.0))
        with Tape() as tape:
            l1 = t_sum(mul(theta, theta))
            terms = total_loss(l1, zero, zero, zero)
            grads = tape.backward(terms.total)
        lam = terms.effective_weights[0]
        assert_allclose(grads[theta], lam * 2.0 * theta.data,
                        rtol=0, atol=1e-15)

    def test_gradient_matches_frozen_weight_finite_differences(self):
        rng = np.random.default_rng(47)
        img = rng.normal(size=(4, 3))
        txt = rng.normal(size=(4, 3))
        zero_data = np.float64(0.0)

        leaf = Tensor(img.copy())
        with Tape() as tape:
            scores = mul(Tensor(np.ones((4, 4))),
                         _cosine(leaf, Tensor(txt)))
            l1 = contrastive_loss(scores, margin=0.2, mode="sum")
            terms = total_loss(l1, Tensor(zero_data), Tensor(zero_data),
                               Tensor(zero_data))
            grads = tape.backward(terms.total)
        lam = terms.effective_weights[0]

        def frozen_total():
            a = leaf.data / np.linalg.norm(leaf.data, axis=1, keepdims=True)
            b = txt / np.linalg.norm(txt, axis=1, keepdims=True)
            return lam * hinge_oracle(a @ b.T, 0.2, "sum")

        numeric = numeric_gradients(frozen_total, {"img": leaf}, h=1e-6)
        assert max_relative_error(grads[leaf], numeric["img"]) < 1e-4

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ValueError, match="4 base weights"):
            total_loss(*self._scalars(0.0, 0.0, 0.0, 0.0),
                       base_weights=(1.0, 1.0))

    def test_nonscalar_term_rejected(self):
        bad = Tensor(np.zeros(3))
        good = Tensor(np.float64(0.0))
        with pytest.raises(ValueError, match="scalars"):
            total_loss(bad, good, good, good)


def _cosine(a: Tensor, b: Tensor) -> Tensor:
    from mhcvse.autodiff import l2_normalize_rows, matmul, transpose

    return matmul(l2_normalize_rows(a), transpose(l2_normalize_rows(b)))
