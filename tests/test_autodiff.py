"""Tensor engine tests: op semantics, gradients vs finite differences, Adam."""

import ast
import decimal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mhcvse.autodiff as ad
from mhcvse.autodiff import AdamState, Tape, Tensor, adam_step
from mhcvse.encoders import GruGates, PaddedBatch, encode_text
import mhcvse.gradcheck as gradcheck
from mhcvse.gradcheck import (CASES, TOLERANCE, case_error, gradient_check, max_relative_error,
                              run_suite)

# the names of ad.__all__ that are not recorded ops
NOT_OPS = {"Tensor", "Tape", "AdamState", "adam_step"}


class TestTensorBasics:
    def test_construction_and_dtype(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4

    def test_rank_zero_scalar(self):
        t = Tensor(2.5)
        assert t.ndim == 0
        assert t.item() == 2.5

    def test_rank_above_three_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_non_finite_construction_raises(self):
        with pytest.raises(FloatingPointError):
            Tensor([1.0, np.inf])
        with pytest.raises(FloatingPointError):
            Tensor([np.nan])

    def test_item_requires_single_element(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestMatmul:
    def test_identity(self):
        i2 = Tensor(np.eye(2))
        assert_allclose(ad.matmul(i2, i2).data, np.eye(2), rtol=0, atol=0)

    def test_permutation_columns(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        p = Tensor([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(ad.matmul(a, p).data, [[2.0, 1.0], [4.0, 3.0]],
                        rtol=0, atol=0)

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(5, 4))
            b = rng.normal(size=(4, 3))
            ref = np.zeros((5, 3))
            for i in range(5):
                for j in range(3):
                    s = 0.0
                    for k in range(4):
                        s += a[i, k] * b[k, j]
                    ref[i, j] = s
            got = ad.matmul(Tensor(a), Tensor(b)).data
            assert_allclose(got, ref, rtol=1e-13, atol=1e-13)

    def test_associativity(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(4, 5)))
        b = Tensor(rng.normal(size=(5, 6)))
        c = Tensor(rng.normal(size=(6, 3)))
        left = ad.matmul(ad.matmul(a, b), c).data
        right = ad.matmul(a, ad.matmul(b, c)).data
        assert_allclose(left, right, rtol=1e-9, atol=1e-9)

    def test_rank_combinations(self):
        rng = np.random.default_rng(13)
        m22 = ad.matmul(Tensor(rng.normal(size=(2, 3))),
                        Tensor(rng.normal(size=(3, 4))))
        assert m22.shape == (2, 4)
        b32 = ad.matmul(Tensor(rng.normal(size=(5, 2, 3))),
                        Tensor(rng.normal(size=(3, 4))))
        assert b32.shape == (5, 2, 4)
        shapes = {0: (), 1: (3,), 2: (3, 3), 3: (2, 3, 3)}
        for ra in range(4):
            for rb in range(4):
                if (ra, rb) in ((2, 2), (3, 2)):
                    continue
                with pytest.raises(ValueError, match="matmul needs ranks"):
                    ad.matmul(Tensor(np.ones(shapes[ra])), Tensor(np.ones(shapes[rb])))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError):
            ad.matmul(Tensor(1.0), Tensor(np.zeros((2, 2))))
        with pytest.raises(TypeError):
            ad.matmul(np.zeros((2, 2)), Tensor(np.zeros((2, 2))))


class TestSoftmax:
    def test_uniform_input(self):
        y = ad.softmax_rows(Tensor([[0.0, 0.0, 0.0]])).data
        assert_allclose(y, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 6))
        base = ad.softmax_rows(Tensor(x)).data
        shifted = ad.softmax_rows(Tensor(x + 17.5)).data
        assert_allclose(shifted, base, rtol=0, atol=1e-12)
        assert np.array_equal(np.argmax(shifted, axis=1), np.argmax(base, axis=1))

    def test_high_precision_reference(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exps = [decimal.Decimal(v).exp() for v in (1, 2, 3)]
            total = sum(exps)
            ref = np.array([float(v / total) for v in exps])
        got = ad.softmax_rows(Tensor([[1.0, 2.0, 3.0]])).data[0]
        assert_allclose(got, ref, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = rng.normal(size=(5, 7)) * rng.uniform(0.1, 30)
            y = ad.softmax_rows(Tensor(x)).data
            assert np.all(y >= 0.0)
            assert_allclose(y.sum(axis=1), np.ones(5), rtol=0, atol=1e-12)

    def test_extreme_values_stable(self):
        y = ad.softmax_rows(Tensor([[1000.0, 0.0], [-1000.0, 0.0]])).data
        assert np.all(np.isfinite(y))
        assert_allclose(y.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_rank_one_input(self):
        y = ad.softmax_rows(Tensor([0.0, 0.0])).data
        assert_allclose(y, [0.5, 0.5], atol=1e-15)

    def test_rank_three_rejected(self):
        with pytest.raises(ValueError, match="rank 1 or 2"):
            ad.softmax_rows(Tensor(np.zeros((2, 3, 4))))


class TestBackwardBasics:
    def test_sum_gives_ones(self):
        x = Tensor([1.0, -2.0, 3.0])
        with Tape() as tape:
            loss = ad.sum(x)
            grads = tape.backward(loss)
        assert_allclose(grads[x], np.ones(3), rtol=0, atol=0)

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0])
        with Tape() as tape:
            loss = ad.sum(ad.mul(x, x))
            grads = tape.backward(loss)
        assert_allclose(grads[x], [2.0, 4.0, 6.0], rtol=0, atol=0)

    def test_gradient_of_loss_wrt_itself(self):
        x = Tensor(3.0)
        with Tape() as tape:
            loss = ad.mul(x, 1.0)
            grads = tape.backward(loss)
        assert_allclose(grads[x], 1.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ValueError):
                tape.backward(y)

    def test_loss_from_other_tape_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape():
            loss = ad.sum(x)
        with Tape() as other:
            ad.sum(x)
            with pytest.raises(ValueError):
                other.backward(loss)

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            loss = ad.sum(ad.add(ad.mul(x, x), x))
            grads = tape.backward(loss)
        assert_allclose(grads[x], [3.0, 5.0])

    def test_independent_subgraphs_match_separate_backwards(self):
        rng = np.random.default_rng(31)
        xv, yv = rng.normal(size=4), rng.normal(size=5)
        x, y = Tensor(xv.copy()), Tensor(yv.copy())
        with Tape() as tape:
            joint = ad.add(ad.sum(ad.mul(x, x)), ad.sum(ad.tanh(y)))
            gj = tape.backward(joint)
        x2, y2 = Tensor(xv.copy()), Tensor(yv.copy())
        with Tape() as tx:
            gx = tx.backward(ad.sum(ad.mul(x2, x2)))
        with Tape() as ty:
            gy = ty.backward(ad.sum(ad.tanh(y2)))
        assert_allclose(gj[x], gx[x2], rtol=0, atol=0)
        assert_allclose(gj[y], gy[y2], rtol=0, atol=0)

    def test_unreached_leaf_absent_from_grads(self):
        x = Tensor([1.0])
        unused = Tensor([5.0])
        with Tape() as tape:
            ad.sum(unused)  # on tape but not feeding the loss
            grads = tape.backward(ad.sum(x))
        assert x in grads
        assert unused not in grads

    def test_grads_keyed_by_identity(self):
        x = Tensor([2.0])
        y = Tensor([2.0])
        with Tape() as tape:
            grads = tape.backward(ad.sum(ad.add(x, ad.mul(y, y))))
        assert_allclose(grads[x], [1.0])
        assert_allclose(grads[y], [4.0])


class TestTapeMechanics:
    def test_nesting_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_tape_released_after_exception(self):
        with pytest.raises(ValueError):
            with Tape():
                ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with Tape():  # would raise RuntimeError if the previous tape leaked
            pass

    def test_topological_parent_order(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            ad.sum(ad.mul(ad.tanh(x), x))
        for i in range(len(tape)):
            assert all(p < i for p in tape.parent_ids(i))

    def test_eager_mode_records_nothing(self):
        x = Tensor([1.0])
        y = ad.tanh(x)
        assert y._tape is None
        with Tape() as tape:
            pass
        assert len(tape) == 0


class TestGradientsVsFiniteDifferences:
    # the op cases keep the ids they had before the blocks joined the table
    @pytest.mark.parametrize("name", [name for name in CASES if not name.startswith("op_")])
    def test_case_gradient(self, name):
        assert case_error(name) < TOLERANCE

    @pytest.mark.parametrize("name", [name[3:] for name in CASES if name.startswith("op_")])
    def test_op_gradient(self, name):
        assert case_error(f"op_{name}") < TOLERANCE

    @pytest.mark.parametrize("seed", [0, 3])
    def test_the_suite_is_every_case_alone_in_table_order(self, seed):
        results = run_suite(seed)
        assert list(results) == list(CASES)
        # backwards, so that no case can lean on one run before it
        assert results == {name: case_error(name, seed) for name in reversed(CASES)}

    def test_no_case_checks_a_parameter_at_all_zeros(self, monkeypatch):
        at_zero = []

        def record(build, params):
            at_zero.extend(name for name, p in params.items() if not p.data.any())
            return 0.0

        monkeypatch.setattr(gradcheck, "gradient_check", record)
        assert len(run_suite(0)) == len(CASES)
        assert at_zero == []

    def test_relu_near_zero_feeds_relu_both_sides_of_its_kink(self, monkeypatch):
        # a vjp mask that is wrong only near zero fails this case
        seen = []
        relu = ad.relu
        monkeypatch.setattr(ad, "relu", lambda a: (seen.append(a.data.copy()), relu(a))[1])
        for seed in range(20):
            case_error("op_relu_near_zero", seed)
            for z in seen:
                assert ((z >= -0.1) & (z <= -1e-3)).any(), seed
                assert ((z >= 1e-3) & (z <= 0.1)).any(), seed
            seen.clear()

    def test_every_op_has_a_gradient_case(self, monkeypatch):
        seen = set()
        make = ad._make

        def recording(out_data, inputs, vjp, op):
            seen.add(op)
            return make(out_data, inputs, vjp, op)

        monkeypatch.setattr(ad, "_make", recording)
        # only the op cases: an op that appears only inside a block has no case
        for name, case in CASES.items():
            if name.startswith("op_"):
                output, _ = case(np.random.default_rng(0))
                output()
        assert sorted(set(ad.__all__) - NOT_OPS - seen) == []

    def test_a_zero_size_gradient_has_no_error(self):
        assert max_relative_error(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
        empty, y = Tensor(np.zeros((0, 3))), Tensor([1.0, -2.0])
        worst = gradient_check(lambda: ad.add(ad.sum(empty), ad.sum(ad.mul(y, y))),
                               {"empty": empty, "y": y})
        assert worst < TOLERANCE

    def test_every_op_has_a_caller_outside_the_engine(self):
        # an op counts as used where another module of the package imports
        # it from .autodiff and names it, or calls it as <module alias>.<op>
        used = set()
        for path in sorted(Path(ad.__file__).parent.glob("*.py")):
            if path.name == "autodiff.py":
                continue
            tree = ast.parse(path.read_text())
            local, aliases = {}, set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for a in node.names:
                        if node.module == "autodiff":
                            local[a.asname or a.name] = a.name
                        elif node.module is None and a.name == "autodiff":
                            aliases.add(a.asname or a.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and node.id in local:
                    used.add(local[node.id])
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    used.add(node.attr)
        assert sorted(set(ad.__all__) - NOT_OPS - used) == []


class TestShapeGuards:
    def test_transpose_rank(self):
        with pytest.raises(ValueError):
            ad.transpose(Tensor([1.0, 2.0]))
        with pytest.raises(ValueError, match="rank-2"):
            ad.transpose(Tensor(np.zeros((2, 3, 4))))

    def test_binary_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError, match=r"mul: shapes \(3,\) and \(4,\)"):
            ad.mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_rowvec_colvec_shapes(self):
        with pytest.raises(ValueError, match=r"add: shapes \(2, 3\) and \(2,\)"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match=r"sub: shapes \(2, 3\) and \(3, 1\)"):
            ad.sub(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 1))))

    def test_batched_matmul_shapes(self):
        with pytest.raises(ValueError, match="inner dims"):
            ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 2))))
        with pytest.raises(ValueError, match="rank"):
            ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4, 5))))

    def test_gather_and_head_guards(self):
        # word rows are looked up inside encode_text: an id past either end
        # of the table, or an id that is not an integer, is refused
        gates = GruGates.init(np.random.default_rng(0), 2, 2)
        table = Tensor(np.zeros((3, 2)))
        for ids in ([[0, 3]], [[-1, 0]]):
            with pytest.raises(ValueError, match="outside"):
                encode_text(PaddedBatch.of(ids), table, gates, gates)
        with pytest.raises(ValueError, match="integer"):
            encode_text(PaddedBatch.of([[0.0, 1.0]]), table, gates, gates)


class TestBroadcastOperands:
    def test_a_number_is_a_constant_not_a_leaf(self):
        x = Tensor(np.ones((2, 3)))
        with Tape() as tape:
            y = ad.mul(ad.sub(1, x), 0.5)
            grads = tape.backward(ad.sum(y))
        assert len(tape) == 3  # sub, mul, sum; the leaf x is not a node
        assert tape.parent_ids(0) == ()
        assert tape.parent_ids(1) == (0,) and tape.parent_ids(2) == (1,)
        assert list(grads) == [x]
        assert_allclose(grads[x], np.full((2, 3), -0.5), rtol=0, atol=0)

    @pytest.mark.parametrize("a,b", [
        (Tensor(1.0), True), (False, Tensor(1.0)), (Tensor(1.0), "1"),
        (Tensor([1.0]), np.ones(1)), (Tensor(1.0), np.int64(1)), (1.0, 2),
    ], ids=["bool_rhs", "bool_lhs", "str", "ndarray", "numpy_int", "two_numbers"])
    def test_other_operands_rejected(self, a, b):
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(TypeError):
                op(a, b)

    def test_a_row_gradient_is_one_sum_over_the_leading_rows(self):
        # the reduction a bias row's gradient has always had, bit for bit
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 7, 5)))
        bias = Tensor(rng.normal(size=5))
        probe = rng.normal(size=(3, 7, 5))
        with Tape() as tape:
            grads = tape.backward(ad.sum(ad.mul(ad.add(x, bias), Tensor(probe))))
        assert np.array_equal(grads[bias], probe.reshape(-1, 5).sum(axis=0))


class TestTapeMemory:
    def test_backward_runs_once_and_frees_each_node_as_it_goes(self):
        size = 100_000
        one = 8 * size
        tracemalloc.start()
        try:
            x = Tensor(np.ones(size))
            with Tape() as tape:
                y = x
                for _ in range(20):
                    y = ad.tanh(y)  # each vjp holds its (size,) output
                loss = ad.sum(y)
            del y
            held = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held > 20 * one
        # the tape is still alive, but its nodes no longer hold their values
        assert after < held - 15 * one
        with pytest.raises(RuntimeError, match="already run"):
            tape.backward(loss)

    def test_backward_peak_does_not_grow_with_the_chain(self):
        size = 100_000
        one = 8 * size

        def backward_peak(n):
            x = Tensor(np.ones(size))
            with Tape() as tape:
                y = x
                for _ in range(n):
                    y = ad.mul(y, 1.0001)
                loss = ad.sum(y)
            tracemalloc.start()
            try:
                tape.backward(loss)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = backward_peak(10), backward_peak(40)
        assert long < 4 * one
        assert long < short + one

    def test_add_and_sub_nodes_hold_no_operand_values(self):
        size = 100_000
        x = Tensor(np.ones(size))
        row = Tensor(np.ones(size))
        tracemalloc.start()
        try:
            with Tape():
                y = x
                for _ in range(20):
                    y = ad.sub(ad.add(y, row), 1.0)
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 3 * 8 * size


class TestSpecialValues:
    def test_l2_normalize_zero_row_passthrough(self):
        x = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]))
        y = ad.l2_normalize_rows(x)
        assert_allclose(y.data[0], [0.6, 0.8], atol=1e-15)
        assert_allclose(y.data[1], [0.0, 0.0], rtol=0, atol=0)
        with Tape() as tape:
            grads = tape.backward(ad.sum(ad.l2_normalize_rows(x)))
        assert np.all(np.isfinite(grads[x]))

    def test_sigmoid_into_reused_buffers_gives_the_same_bits(self):
        # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) elsewhere, without
        # overflow at either end, whether it allocates or writes in place;
        # NaN, ±inf and subnormals included, compared bit for bit with the
        # two branches chosen by a masked divide
        tiny = np.finfo(float).smallest_subnormal
        x = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308,
                             np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 5e-310, -5e-310,
                             709.8, -709.8, 746.0, -746.0],
                            np.random.default_rng(30).normal(scale=20.0, size=200)])
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        want = np.divide(1.0, d, out=e / d, where=x >= 0).view(np.int64)
        assert np.array_equal(ad._sigmoid(x).view(np.int64), want)
        out, scratch = np.full_like(x, np.nan), np.full_like(x, np.nan)
        assert ad._sigmoid(x, out, scratch) is out
        assert np.array_equal(out.view(np.int64), want)
        inplace = x.copy()
        assert ad._sigmoid(inplace, inplace, scratch) is inplace
        assert np.array_equal(inplace.view(np.int64), want)
        scalar = ad.sigmoid(Tensor(-3.0)).data
        assert scalar.shape == () and scalar == np.exp(-3.0) / (1.0 + np.exp(-3.0))

    def test_an_overflowing_op_raises(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                       match="from mul"):
            ad.mul(Tensor([1e200]), 1e200)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor([1.0, 2.0])
        state = AdamState()
        adam_step({"p": p}, {p: np.zeros(2)}, state, lr=0.1)
        assert_allclose(p.data, [1.0, 2.0], rtol=0, atol=0)
        assert state.step == 1

    def test_missing_gradient_treated_as_zero(self):
        p = Tensor([1.0])
        state = AdamState()
        adam_step({"p": p}, {}, state, lr=0.1)
        assert_allclose(p.data, [1.0], rtol=0, atol=0)

    def test_first_step_closed_form(self):
        # f = p^2 at p=1: g=2, bias-corrected m=2, v=4, update = lr*2/(2+eps)
        p = Tensor(1.0)
        state = AdamState()
        with Tape() as tape:
            grads = tape.backward(ad.mul(p, p))
        adam_step({"p": p}, grads, state, lr=0.1)
        assert_allclose(float(p.data), 0.9, rtol=0, atol=1e-8)

    def test_quadratic_convergence(self):
        p = Tensor(0.0)
        state = AdamState()
        for _ in range(200):
            with Tape() as tape:
                d = ad.sub(p, 3.0)
                grads = tape.backward(ad.mul(d, d))
            adam_step({"p": p}, grads, state, lr=0.1)
        assert abs(float(p.data) - 3.0) < 0.05
        assert state.step == 200

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor([1.0])
        with pytest.raises(ValueError, match="w_query"):
            adam_step({"w_query": p}, {p: np.array([np.nan])}, AdamState(), 0.1)

    def test_gradient_shape_mismatch(self):
        p = Tensor([1.0, 2.0])
        with pytest.raises(ValueError, match="shape"):
            adam_step({"p": p}, {p: np.zeros(3)}, AdamState(), 0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            adam_step({"p": Tensor([1.0])}, {}, AdamState(), -0.1)

    def test_zero_lr_is_identity_on_params(self):
        rng = np.random.default_rng(41)
        p = Tensor(rng.normal(size=(3, 3)))
        before = p.data.copy()
        state = AdamState()
        for _ in range(5):
            adam_step({"p": p}, {p: rng.normal(size=(3, 3))}, state, lr=0.0)
        assert np.array_equal(p.data, before)

    def test_moment_buffers_track_parameter_shapes(self):
        p = Tensor(np.zeros((2, 3)))
        state = AdamState()
        adam_step({"p": p}, {p: np.ones((2, 3))}, state, lr=0.01)
        assert state.m["p"].shape == (2, 3)
        assert state.v["p"].shape == (2, 3)
