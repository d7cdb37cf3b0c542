"""Learning-rate schedule, the epoch loop, early stopping, checkpoints."""

import math
import struct
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tinymodel import snapshot, states_equal, tiny_setup

import mhcvse.training
from mhcvse.autodiff import AdamState, Tape
from mhcvse.fusion import FUSE_TYPES
from mhcvse.model import load_checkpoint, save_checkpoint
from mhcvse.training import (
    EpochStats,
    LrSchedule,
    fit,
    lr_at,
    train_epoch,
    write_lr_curve,
    write_train_log,
)


class TestLrSchedule:
    def test_starts_at_eta0(self):
        s = LrSchedule(eta0=0.02, eta_min=0.0002, period=100)
        assert lr_at(s, 0) == 0.02

    def test_midpoint_is_the_average(self):
        s = LrSchedule(eta0=1.0, eta_min=0.0, period=100)
        assert_allclose(lr_at(s, 50), 0.5, rtol=0, atol=1e-15)

    def test_restart_returns_to_eta0(self):
        s = LrSchedule(eta0=1.0, eta_min=0.0, period=64)
        assert lr_at(s, 64) == lr_at(s, 0) == 1.0

    def test_value_just_before_restart(self):
        eta0, eta_min, period = 0.02, 0.0002, 100
        s = LrSchedule(eta0, eta_min, period)
        bound = eta_min + (eta0 - eta_min) * (1 - math.cos(math.pi / period)) / 2
        assert eta_min < lr_at(s, period - 1) <= bound + 1e-15

    def test_nonincreasing_within_a_period_min_at_the_end(self):
        s = LrSchedule(eta0=0.5, eta_min=0.005, period=50)
        values = [lr_at(s, t) for t in range(50)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert min(range(50), key=values.__getitem__) == 49

    def test_exactly_periodic_and_bounded(self):
        s = LrSchedule(eta0=0.006, eta_min=6e-05, period=37)
        rng = np.random.default_rng(53)
        for t in rng.integers(0, 10_000, size=1000):
            t = int(t)
            lr = lr_at(s, t)
            assert lr == lr_at(s, t + 37) == lr_at(s, t + 5 * 37)
            assert s.eta_min <= lr <= s.eta0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            lr_at(LrSchedule(1.0, 0.0, 10), -1)

    def test_bad_schedule_parameters_rejected(self):
        with pytest.raises(ValueError, match="period"):
            LrSchedule(1.0, 0.0, 0)
        with pytest.raises(ValueError, match="eta_min"):
            LrSchedule(1.0, 2.0, 10)
        with pytest.raises(ValueError, match="eta_min"):
            LrSchedule(1.0, -0.1, 10)


class TestTrainEpoch:
    def test_each_step_releases_its_tape_before_the_next(self, monkeypatch):
        tapes, alive = [], []

        class WatchedTape(Tape):
            def __enter__(self):
                alive.append([t() is not None for t in tapes])
                tapes.append(weakref.ref(self))
                return super().__enter__()

        monkeypatch.setattr(mhcvse.training, "Tape", WatchedTape)
        model, train, _ = tiny_setup(n_train=12)  # batch_size 4 -> 3 steps
        train_epoch(model, train.pairs, AdamState(), LrSchedule(0.01, 0.0, 10),
                    np.random.default_rng(0), epoch=1)
        assert len(tapes) == 3
        assert alive == [[], [False], [False, False]]

    def test_the_tape_never_links_a_parameter(self):
        model, train, _ = tiny_setup(n_train=8)
        params = list(model.named_parameters().values())
        with Tape() as tape:
            terms = model.loss_terms(train.pairs[:4])
            assert all(p._tape is None for p in params)
            grads = tape.backward(terms.total)
            assert all(p._tape is None for p in params)
        assert all(p._tape is None for p in params)
        assert set(params) <= set(grads)

    def test_zero_learning_rate_leaves_parameters_untouched(self):
        model, train, _ = tiny_setup()
        before = snapshot(model)
        stats = train_epoch(model, train.pairs, AdamState(),
                            LrSchedule(0.0, 0.0, 10),
                            np.random.default_rng(0), epoch=1)
        assert states_equal(before, snapshot(model))
        assert stats.epoch == 1 and math.isfinite(stats.total)

    def test_adam_state_advances_one_step_per_batch(self):
        model, train, _ = tiny_setup(n_train=8)  # batch_size 4 -> 2 batches
        adam = AdamState()
        train_epoch(model, train.pairs, adam, LrSchedule(0.01, 0.0, 10),
                    np.random.default_rng(0), epoch=1)
        assert adam.step == 2

    def test_trailing_partial_batch_below_two_is_dropped(self):
        model, train, _ = tiny_setup(n_train=5)  # 4 + 1, singleton dropped
        calls = []
        original = model.loss_terms
        model.loss_terms = lambda batch: (calls.append(len(batch)),
                                          original(batch))[1]
        train_epoch(model, train.pairs, AdamState(), LrSchedule(0.01, 0.0, 10),
                    np.random.default_rng(0), epoch=1)
        assert calls == [4]

    def test_loss_decreases_over_a_short_run(self):
        model, train, _ = tiny_setup()
        adam = AdamState()
        schedule = LrSchedule(0.01, 0.0001, 20)
        rng = np.random.default_rng(model.config.seed)
        history = [train_epoch(model, train.pairs, adam, schedule, rng, e)
                   for e in range(1, 9)]
        assert history[-1].total < history[0].total

    def test_fixed_seed_reproduces_the_loss_trajectory(self):
        def run():
            model, train, _ = tiny_setup()
            adam = AdamState()
            schedule = LrSchedule(0.01, 0.0001, 20)
            rng = np.random.default_rng(7)
            stats = [train_epoch(model, train.pairs, adam, schedule, rng, e)
                     for e in range(1, 4)]
            return [s.total for s in stats], snapshot(model)

        totals_a, params_a = run()
        totals_b, params_b = run()
        assert totals_a == totals_b
        assert states_equal(params_a, params_b)

    @pytest.mark.parametrize("fuse_type", FUSE_TYPES)
    def test_one_step_gives_every_parameter_a_gradient(self, fuse_type):
        # a parameter without a gradient is state that Adam and every
        # checkpoint carry for nothing
        model, train, _ = tiny_setup(fuse_type=fuse_type)
        with Tape() as tape:
            terms = model.loss_terms(train.pairs[:4])
        grads = tape.backward(terms.total)
        assert [n for n, p in model.named_parameters().items() if p not in grads] == []

    def test_a_nan_parameter_raises_before_any_update(self):
        model, train, _ = tiny_setup()
        model.image_proj.data[0, 0] = np.nan
        adam = AdamState()
        with pytest.raises(FloatingPointError, match="non-finite output from matmul"):
            train_epoch(model, train.pairs, adam, LrSchedule(0.01, 0.0, 10),
                        np.random.default_rng(0), epoch=3)
        assert adam.step == 0 and not adam.m

    def test_no_usable_batch_rejected(self):
        model, train, _ = tiny_setup()
        with pytest.raises(ValueError, match="batch of size >= 2"):
            train_epoch(model, train.pairs[:1], AdamState(),
                        LrSchedule(0.01, 0.0, 10),
                        np.random.default_rng(0), epoch=1)


class TestFit:
    def test_frozen_validation_stops_after_patience_epochs(self):
        model, train, val = tiny_setup()
        scores = iter([0.5, 0.6] + [0.6] * 20)
        result = fit(model, train, val, eval_fn=lambda m: next(scores))
        assert result.best_epoch == 2
        assert result.best_mr == 0.6
        assert len(result.history) == 2 + model.config.patience

    def test_strictly_improving_validation_runs_all_epochs(self):
        model, train, val = tiny_setup(epochs=6)
        scores = iter([0.1 * e for e in range(1, 7)])
        result = fit(model, train, val, eval_fn=lambda m: next(scores))
        assert len(result.history) == 6
        assert result.best_epoch == 6

    def test_best_epoch_weights_are_restored_after_a_regression(self):
        model, train, val = tiny_setup(patience=2)
        seen = []

        def eval_fn(m):
            seen.append(snapshot(m))
            return [0.5, 0.9, 0.1, 0.1][len(seen) - 1]

        result = fit(model, train, val, eval_fn=eval_fn)
        assert result.best_epoch == 2
        assert len(result.history) == 4
        assert states_equal(snapshot(model), seen[1])
        assert not states_equal(seen[1], seen[3])

    def test_history_records_validation_scores(self):
        model, train, val = tiny_setup(epochs=3)
        scores = iter([0.2, 0.3, 0.4])
        result = fit(model, train, val, eval_fn=lambda m: next(scores))
        assert [s.val_mr for s in result.history] == [0.2, 0.3, 0.4]

    def test_default_eval_fn_scores_the_validation_split(self):
        model, train, val = tiny_setup(epochs=2, patience=1)
        result = fit(model, train, val)
        assert all(0.0 <= s.val_mr <= 1.0 for s in result.history)

    def test_zero_patience_rejected(self):
        model, train, val = tiny_setup()
        model.config.patience = 0
        with pytest.raises(ValueError, match="patience"):
            fit(model, train, val, eval_fn=lambda m: 0.0)

    def test_missing_validation_split_rejected(self):
        model, train, _ = tiny_setup()
        with pytest.raises(ValueError, match="validation split"):
            fit(model, train, None)

    def test_never_finite_validation_is_a_value_error(self):
        model, train, val = tiny_setup(epochs=3, patience=1)
        with pytest.raises(ValueError, match="not finite in any"):
            fit(model, train, val, eval_fn=lambda m: float("nan"))

    def test_lr_period_counts_the_leftover_batch(self):
        # 70 pairs in batches of 32 run as [32, 32, 6]: three steps per
        # epoch, so period_epochs=10 spans 30 steps
        model, train, val = tiny_setup(n_train=70, batch_size=32, epochs=1,
                                       period_epochs=10)
        result = fit(model, train, val, eval_fn=lambda m: 0.0)
        cfg = model.config
        period_30 = LrSchedule(cfg.eta0, cfg.eta_min, 30)
        assert result.history[0].lr == lr_at(period_30, 2)

    def test_undersized_training_split_rejected(self):
        model, train, val = tiny_setup()
        train.pairs = train.pairs[:1]
        with pytest.raises(ValueError, match="fewer than 2"):
            fit(model, train, val, eval_fn=lambda m: 0.0)


class TestCheckpointFormat:
    def _arrays(self):
        rng = np.random.default_rng(59)
        return {
            "scalar": np.float64(rng.normal()),
            "vec": rng.normal(size=7),
            "mat": rng.normal(size=(3, 4)),
            "cube": rng.normal(size=(2, 3, 2)),
        }

    def test_round_trip_is_bit_exact(self, tmp_path):
        arrays = self._arrays()
        path = tmp_path / "model.mhcv"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            ref = np.asarray(arr)
            assert loaded[name].shape == ref.shape
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name].view(np.uint64),
                                  ref.astype(np.float64).view(np.uint64))

    def test_model_parameters_round_trip(self, tmp_path):
        model, _, _ = tiny_setup()
        path = tmp_path / "params.mhcv"
        save_checkpoint(path, model.state_tensors())
        loaded = load_checkpoint(path)
        for name, tensor in model.state_tensors().items():
            assert np.array_equal(loaded[name], tensor.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mhcv"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v9.mhcv"
        path.write_bytes(b"MHCV" + (9).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="unsupported version"):
            load_checkpoint(path)

    def test_truncated_values_rejected(self, tmp_path):
        path = tmp_path / "cut.mhcv"
        save_checkpoint(path, {"vec": np.arange(5.0)})
        whole = path.read_bytes()
        path.write_bytes(whole[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_partial_trailing_header_rejected(self, tmp_path):
        path = tmp_path / "trail.mhcv"
        save_checkpoint(path, {"vec": np.arange(3.0)})
        path.write_bytes(path.read_bytes() + b"\x01\x02")
        with pytest.raises(ValueError, match="truncated record header"):
            load_checkpoint(path)

    def test_oversized_header_is_truncation_not_an_allocation(self, tmp_path):
        path = tmp_path / "huge.mhcv"
        path.write_bytes(b"MHCV" + struct.pack("<II1sIQQ", 1, 1, b"w", 2,
                                                2**22, 2**22))
        assert path.stat().st_size == 33
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_empty_checkpoint_loads_empty(self, tmp_path):
        path = tmp_path / "empty.mhcv"
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}


class TestCsvArtifacts:
    def test_train_log_values_parse_back_exactly(self, tmp_path):
        history = [
            EpochStats(1, 0.1, 0.2, 0.3, 0.4, (0.5, 0.6, 0.7, 0.8),
                       1.0, 0.006, 0.25),
            EpochStats(2, 0.05, 0.1, 0.15, 0.2, (0.51, 0.61, 0.71, 0.81),
                       0.5, 0.005, 0.75),
        ]
        path = tmp_path / "train_log.csv"
        write_train_log(path, history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("epoch,l_instance,l_consensus,l_fusion,l_kl,"
                            "lam1,lam2,lam3,lam4,total,lr,val_mr")
        assert len(lines) == 3
        row = lines[1].split(",")
        assert int(row[0]) == 1
        assert float(row[1]) == 0.1
        assert float(row[10]) == 0.006
        assert float(row[11]) == 0.25

    def test_lr_curve_matches_the_schedule(self, tmp_path):
        schedule = LrSchedule(eta0=1.0, eta_min=0.0, period=100)
        path = tmp_path / "lr_curve.csv"
        write_lr_curve(path, schedule, steps=120)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,lr"
        assert len(lines) == 121
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(120))
        assert float(rows[0][1]) == 1.0
        assert_allclose(float(rows[50][1]), 0.5, rtol=0, atol=1e-15)
        assert float(rows[100][1]) == 1.0
        for step, raw in rows:
            assert float(raw) == lr_at(schedule, int(step))
