"""The command-line pipeline: synth, train, eval, retrieve, curves, checks."""

import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tinymodel import rgft_bytes

import mhcvse.autodiff as ad
import mhcvse.cli
import mhcvse.model
from mhcvse.cli import main
from mhcvse.config import TrainConfig, load_config, save_config
from mhcvse.data import Dataset, Vocabulary, load_dataset, read_features
from mhcvse.gradcheck import CASES
from mhcvse.model import load_checkpoint, model_for, save_model
from mhcvse.training import fit

TINY_CFG = dict(embed_dim=8, feature_dim=5, heads=2, concepts=4, batch_size=4,
                epochs=2, patience=1, eta0=0.01, seed=11)


def train_argv(cfg_path, data, out):
    """``mhcvse train`` with ``cfg_path`` on the train and val splits in ``data``."""
    return ["train", "--config", str(cfg_path), "--train", str(data / "train.manifest.json"),
            "--val", str(data / "val.manifest.json"), "--out", str(out)]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset plus a trained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    cfg_path = root / "tiny.cfg"
    save_config(TrainConfig(**TINY_CFG), cfg_path)
    assert main(["synth", "--out", str(data), "--pairs", "12",
                 "--feature-dim", "5", "--seed", "5"]) == 0
    assert main(train_argv(cfg_path, data, run)) == 0
    return data, run, cfg_path


class TestSynth:
    def test_writes_three_manifests_and_prints_them(self, tmp_path, capsys):
        out = tmp_path / "synthetic"
        assert main(["synth", "--out", str(out), "--pairs", "8",
                     "--seed", "3"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 3
        for split in ("train", "val", "test"):
            assert (out / f"{split}.manifest.json").exists()
            assert (out / f"{split}.features.rgft").exists()
            assert (out / f"{split}.captions.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--noise", "--separation"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exits_one_naming_it(self, tmp_path, capsys, flag, value):
        code = main(["synth", "--out", str(tmp_path / "x"), flag, value])
        assert code == 1
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_is_refused_naming_the_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x"), "--seed", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got '-3'" in err
        assert not (tmp_path / "x").exists()

    def test_out_that_is_a_file_exits_one_naming_it(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        assert main(["synth", "--out", str(out), "--pairs", "8"]) == 1
        assert f"File exists: '{out}'" in capsys.readouterr().err
        assert out.read_text() == "keep me\n"

    def test_impossible_geometry_exits_one(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--pairs", "50",
                     "--length", "2", "--vocab", "20",
                     "--separation", "4.0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_a_pair_no_candidate_fits_is_named_with_each_test_count(self, tmp_path,
                                                                    capsys):
        # at seed 0 coverage, not separation, rejects most of the val pair's
        # candidates, so a message naming separation alone would mislead
        out = tmp_path / "x"
        out.mkdir()
        # the train split is placed before the failing val pair; the dataset
        # already in --out must survive the failed call as it was
        existing = {f"train.{kind}": f"earlier {kind}\n".encode()
                    for kind in ("captions.jsonl", "features.rgft", "manifest.json")}
        for name, content in existing.items():
            (out / name).write_bytes(content)
        code = main(["synth", "--out", str(out), "--pairs", "4", "--seed", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "could not place 4 latents" in err
        assert "all 10000 candidates for pair 3 of 4 (val split)" in err
        assert "4708 by separation, 0 by caption distance, 5292 by coverage" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == existing

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 279. TiB for an array with shape (100000000000, 6, 64)",
         "error: out of memory: Unable to allocate 279. TiB"),
        ("", "error: out of memory\n")], ids=["numpy", "bare"])
    def test_running_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch,
                                             message, shown):
        def no_memory(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(mhcvse.cli, "generate_synthetic", no_memory)
        assert main(["synth", "--out", str(tmp_path / "x"), "--regions", "100000000000"]) == 1
        err = capsys.readouterr().err
        assert shown in err and "Traceback" not in err


class TestTrain:
    def test_artifacts_exist(self, workspace):
        _, run, _ = workspace
        for name in ("checkpoint.mhcv", "checkpoint.mhcv.meta.json",
                     "train_log.csv", "concepts.csv", "adjacency.csv"):
            assert (run / name).exists(), name

    def test_train_log_has_one_row_per_epoch(self, workspace):
        _, run, _ = workspace
        lines = (run / "train_log.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,l_instance")
        assert len(lines) - 1 == TINY_CFG["epochs"]

    def test_checkpoint_holds_every_model_tensor(self, workspace):
        _, run, _ = workspace
        arrays = load_checkpoint(run / "checkpoint.mhcv")
        assert "encoder.image_proj" in arrays
        assert "consensus.adjacency" in arrays

    def test_out_that_is_a_file_exits_one_before_the_fit(self, workspace, tmp_path,
                                                         capsys, monkeypatch):
        data, _, cfg_path = workspace
        out = tmp_path / "taken"
        out.write_text("keep me\n")

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran although the output path is unusable")

        monkeypatch.setattr(mhcvse.cli, "fit", no_fit)
        assert main(train_argv(cfg_path, data, out)) == 1
        assert f"File exists: '{out}'" in capsys.readouterr().err
        assert out.read_text() == "keep me\n"

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        code = main(["train", "--train", str(tmp_path / "none.json"),
                     "--val", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no such file" in err and "usage" in err


class TestModelFor:
    """``model_for`` is the model ``mhcvse train`` fits."""

    def test_fits_the_checkpoint_that_train_writes(self, workspace, tmp_path):
        data, run, cfg_path = workspace
        train = load_dataset(data / "train.manifest.json")
        val = load_dataset(data / "val.manifest.json", vocab=train.vocab)
        model = model_for(load_config(cfg_path), train)
        fit(model, train, val)
        save_model(tmp_path / "checkpoint.mhcv", model)
        for name in ("checkpoint.mhcv", "checkpoint.mhcv.meta.json"):
            assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name

    def test_leaves_stopwords_out_of_the_concepts(self):
        # synthetic tokens are wNNN, so only a corpus like this one shows it
        captions = [(0, 0, ["the", "red", "dog"]), (1, 1, ["the", "the", "blue", "cat"]),
                    (2, 2, ["the", "red", "bird"])]
        vocab = Vocabulary.build(tokens for _, _, tokens in captions)
        assert vocab.tokens[1] == "the"
        images = {i: np.zeros((1, TINY_CFG["feature_dim"])) for i in range(3)}
        model = model_for(TrainConfig(**TINY_CFG), Dataset("train", images, captions, vocab))
        assert model.graph.concepts == ["red", "bird", "blue", "cat"]


class TestBadConfig:
    @pytest.mark.parametrize("line", [
        "margin = nan", "margin = inf", "eta0 = nan", "eta0 = inf",
        "base_weights = nan,1,1,1", "base_weights = -1,1,1,1", "bogus = 1",
        "gcn_form = conventional", "feature_dim = 0", "fuse_type = mean",
        "contrastive_mode = mean", "base_weights = 1,1,1", "concepts = 0",
        "period_epochs = 0", "epochs = 0", "patience = 0", "seed = -1",
        "invert_dynamic_weight = yes"],
        ids=lambda line: line.replace(" = ", "="))
    def test_train_exits_one_naming_the_file_and_the_key(self, workspace, tmp_path,
                                                         capsys, line):
        data, _, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(train_argv(cfg, data, tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and line.split(" = ")[0] in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "lr-curve"])
    def test_a_config_that_is_not_utf8_exits_one_naming_the_file(self, workspace, tmp_path,
                                                                capsys, command):
        data, _, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xffembed_dim = 16\n")
        argv = {"train": train_argv(cfg, data, tmp_path / "run"),
                "lr-curve": ["lr-curve", "--config", str(cfg), "--period", "4", "--steps",
                             "3", "--out", str(tmp_path / "lr.csv")]}[command]
        assert main(argv) == 1
        assert f"config {cfg}: not UTF-8" in capsys.readouterr().err


class TestEval:
    def test_report_has_six_recalls_and_a_mean(self, workspace, tmp_path, capsys):
        data, run, _ = workspace
        report = tmp_path / "eval_report.csv"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.mhcv"),
                     "--manifest", str(data / "test.manifest.json"),
                     "--out", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "direction,k,recall"
        assert len(lines) == 8
        assert lines[-1].startswith("mean,,")
        out = capsys.readouterr().out
        assert "image_to_text R@1" in out and "mR:" in out

    def test_level_flag_changes_the_embedding(self, workspace, tmp_path):
        data, run, _ = workspace
        a, b = tmp_path / "fused.csv", tmp_path / "inst.csv"
        main(["eval", "--checkpoint", str(run / "checkpoint.mhcv"),
              "--manifest", str(data / "val.manifest.json"), "--out", str(a)])
        main(["eval", "--checkpoint", str(run / "checkpoint.mhcv"),
              "--manifest", str(data / "val.manifest.json"), "--out", str(b),
              "--level", "instance"])
        assert a.exists() and b.exists()

    def test_oversized_checkpoint_header_exits_one(self, workspace, tmp_path,
                                                   capsys):
        data, run, _ = workspace
        bad = tmp_path / "huge.mhcv"
        bad.write_bytes(b"MHCV" + struct.pack("<II1sIQQ", 1, 1, b"w", 2,
                                               2**22, 2**22))
        shutil.copy(f"{run / 'checkpoint.mhcv'}.meta.json", f"{bad}.meta.json")
        code, err = _eval_exit(bad, data / "val.manifest.json", tmp_path, capsys)
        assert code == 1 and "truncated" in err

    def test_missing_checkpoint_exits_two(self, workspace, tmp_path):
        data, _, _ = workspace
        assert main(["eval", "--checkpoint", str(tmp_path / "no.mhcv"),
                     "--manifest", str(data / "val.manifest.json")]) == 2


def _record(name: bytes, values) -> bytes:
    """One checkpoint record, written without ``save_checkpoint``'s checks."""
    arr = np.asarray(values, "<f8")
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", arr.ndim)
            + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes())


def _eval_exit(checkpoint, manifest, tmp_path, capsys):
    """Exit code and stderr of ``mhcvse eval``."""
    code = main(["eval", "--checkpoint", str(checkpoint), "--manifest", str(manifest),
                 "--out", str(tmp_path / "report.csv")])
    return code, capsys.readouterr().err


def _edit_json(path, edit):
    """Apply ``edit`` in place to the JSON value in ``path``, save it and return it."""
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    return raw


def _set_config(key, value):
    """A sidecar edit that sets one config key."""
    def edit(raw):
        raw["config"] = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", raw["config"])
    return edit


def _drop_last(*keys):
    """A sidecar edit that drops the last entry of each listed key."""
    def edit(raw):
        for key in keys:
            raw[key] = raw[key][:-1]
    return edit


class TestMalformedInputs:
    """A malformed split or sidecar makes ``eval`` exit 1 with a message that
    names the file and the field, never a traceback."""

    @pytest.fixture
    def split(self, workspace, tmp_path):
        data, run, _ = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        return copy, run / "checkpoint.mhcv"

    @pytest.mark.parametrize("name, label", [("test.manifest.json", "manifest"),
                                             ("test.captions.jsonl", "caption file")])
    def test_a_text_file_that_is_not_utf8_exits_one_naming_it(self, split, tmp_path,
                                                              capsys, name, label):
        data, checkpoint = split
        (data / name).write_bytes(b"\xff" + (data / name).read_bytes())
        code, err = _eval_exit(checkpoint, data / "test.manifest.json", tmp_path, capsys)
        assert code == 1
        assert f"{label} {data / name}: not UTF-8 (invalid start byte at byte 0)" in err

    def test_empty_image_exits_one(self, split, tmp_path, capsys):
        data, checkpoint = split
        features = read_features(data / "test.features.rgft")
        image_id = min(features)
        features[image_id] = np.zeros((0, features[image_id].shape[1]))
        (data / "test.features.rgft").write_bytes(rgft_bytes(features))
        code, err = _eval_exit(checkpoint, data / "test.manifest.json", tmp_path, capsys)
        assert code == 1
        assert "test.features.rgft" in err and f"image {image_id} " in err

    def test_string_tokens_exit_one(self, split, tmp_path, capsys):
        data, checkpoint = split
        path = data / "test.captions.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            row["tokens"] = " ".join(row["tokens"])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, err = _eval_exit(checkpoint, data / "test.manifest.json", tmp_path, capsys)
        assert code == 1
        assert "test.captions.jsonl, line 1" in err and "list of strings" in err

    @pytest.mark.parametrize("key, make_bad", [
        pytest.param("image_id", lambda v: v + 0.9, id="image_id-float"),
        pytest.param("image_id", str, id="image_id-string"),
        pytest.param("image_id", lambda v: True, id="image_id-bool"),
        pytest.param("caption_id", float, id="caption_id-integral-float"),
    ])
    def test_non_integer_caption_ids_exit_one(self, split, tmp_path, capsys,
                                              key, make_bad):
        # 80.9 used to attach the caption to image 80 and eval exited 0
        data, checkpoint = split
        path = data / "test.captions.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0][key] = make_bad(rows[0][key])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, err = _eval_exit(checkpoint, data / "test.manifest.json", tmp_path, capsys)
        assert code == 1
        assert "test.captions.jsonl, line 1" in err and f"'{key}'" in err

    def test_manifest_not_an_object_exits_one(self, split, tmp_path, capsys):
        data, checkpoint = split
        manifest = data / "test.manifest.json"
        manifest.write_text("[1, 2]\n")
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(manifest) in err and "JSON object" in err

    def test_manifest_non_integer_count_exits_one(self, split, tmp_path, capsys):
        data, checkpoint = split
        manifest = data / "test.manifest.json"
        _edit_json(manifest, lambda raw: raw.update(images="many"))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(manifest) in err and "'images'" in err

    @pytest.mark.parametrize("key", ["features", "captions"])
    def test_a_manifest_key_naming_a_directory_exits_one_naming_both(self, split, tmp_path,
                                                                    capsys, key):
        # eval exited 1 with "[Errno 21] Is a directory: '<dir>'" alone
        data, checkpoint = split
        manifest = data / "test.manifest.json"
        _edit_json(manifest, lambda raw: raw.update({key: "."}))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert f"manifest {manifest}: key '{key}' names {data}" in err
        assert "Is a directory" in err

    @pytest.mark.parametrize("key", ["features", "captions"])
    def test_a_manifest_key_naming_a_missing_file_exits_two_naming_both(self, split, tmp_path,
                                                                       capsys, key):
        data, checkpoint = split
        manifest = data / "test.manifest.json"
        _edit_json(manifest, lambda raw: raw.update({key: "gone.bin"}))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 2
        assert f"{data / 'gone.bin'}, named by key '{key}' of manifest {manifest}" in err

    @pytest.mark.parametrize("key", ["images", "captions_per_image"])
    def test_manifest_count_that_misstates_the_files_exits_one(self, split, tmp_path,
                                                               capsys, key):
        data, checkpoint = split
        manifest = data / "test.manifest.json"
        raw = _edit_json(manifest, lambda old: old.update({key: old[key] + 1}))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(manifest) in err and f"key '{key}' is {raw[key]}" in err

    @pytest.fixture
    def sidecar(self, workspace, tmp_path):
        data, run, _ = workspace
        checkpoint = tmp_path / "checkpoint.mhcv"
        shutil.copy(run / "checkpoint.mhcv", checkpoint)
        shutil.copy(f"{run / 'checkpoint.mhcv'}.meta.json", f"{checkpoint}.meta.json")
        return checkpoint, Path(f"{checkpoint}.meta.json"), data / "test.manifest.json"

    def test_sidecar_without_vocab_exits_one(self, sidecar, tmp_path, capsys):
        checkpoint, meta, manifest = sidecar
        _edit_json(meta, lambda raw: raw.pop("vocab"))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(meta) in err and "'vocab'" in err

    @pytest.mark.parametrize("key, value", [
        ("config", 5), ("frequencies", [1]),
        pytest.param("vocab", ["w001", "w002"], id="vocab-without-unk"),
        pytest.param("config", "embed_dim = many\n", id="config-unparsable")])
    def test_sidecar_with_malformed_field_exits_one(self, sidecar, tmp_path, capsys,
                                                    key, value):
        checkpoint, meta, manifest = sidecar
        _edit_json(meta, lambda raw: raw.update({key: value}))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(meta) in err and f"'{key}'" in err

    @pytest.mark.parametrize("key, edit, detail", [
        # a repeated token used to encode silently to its later id
        pytest.param("vocab", lambda v: v[:-1] + [v[1]], "repeats", id="vocab-repeated"),
        pytest.param("vocab", lambda v: v[:-1] + [7], "holds 7, not a string",
                     id="vocab-not-a-string"),
        pytest.param("concepts", lambda c: c[:-1] + [c[0]], "repeats",
                     id="concepts-repeated"),
        pytest.param("concepts", lambda c: c[:-1] + [None], "holds None, not a string",
                     id="concepts-not-a-string"),
        pytest.param("frequencies", lambda f: f[:-1] + [-1], "holds -1",
                     id="frequencies-negative"),
        pytest.param("frequencies", lambda f: f[:-1] + [2.5], "holds 2.5",
                     id="frequencies-float"),
        pytest.param("frequencies", lambda f: f[:-1] + [True], "holds True",
                     id="frequencies-bool"),
        pytest.param("frequencies", lambda f: f[:-1] + ["3"], "holds '3'",
                     id="frequencies-string"),
    ])
    def test_a_sidecar_entry_of_the_wrong_kind_exits_one(self, sidecar, tmp_path, capsys,
                                                         key, edit, detail):
        checkpoint, meta, manifest = sidecar
        _edit_json(meta, lambda raw: raw.update({key: edit(raw[key])}))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert f"checkpoint sidecar {meta}: key '{key}' " in err and detail in err

    def test_sidecar_with_retired_gcn_form(self, sidecar, tmp_path, capsys):
        # sidecars written before gcn_form was removed hold "gcn_form = paper"
        checkpoint, meta, manifest = sidecar
        argv = ["eval", "--checkpoint", str(checkpoint), "--manifest", str(manifest),
                "--out", str(tmp_path / "report.csv")]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        raw = json.loads(meta.read_text())
        assert "gcn_form" not in raw["config"]
        raw["config"] += "gcn_form = paper\n"
        meta.write_text(json.dumps(raw))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        raw["config"] = raw["config"].replace("= paper", "= conventional")
        meta.write_text(json.dumps(raw))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(meta) in err and "'gcn_form'" in err

    def test_checkpoint_without_adjacency_exits_one(self, sidecar, tmp_path, capsys):
        checkpoint, _, manifest = sidecar
        arrays = load_checkpoint(checkpoint)
        del arrays["consensus.adjacency"]
        mhcvse.model.save_checkpoint(checkpoint, arrays)
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(checkpoint) in err and "consensus.adjacency" in err

    def test_a_repeated_tensor_name_exits_one(self, sidecar, tmp_path, capsys):
        # a second record of a name must not silently replace the first
        checkpoint, _, manifest = sidecar
        bias = load_checkpoint(checkpoint)["encoder.image_bias"]
        checkpoint.write_bytes(checkpoint.read_bytes()
                               + _record(b"encoder.image_bias", np.zeros_like(bias)))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(checkpoint) in err and "'encoder.image_bias' appears twice" in err

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_a_non_finite_tensor_value_exits_one(self, sidecar, tmp_path, capsys, value):
        checkpoint, _, manifest = sidecar
        arrays = load_checkpoint(checkpoint)
        arrays["encoder.image_bias"][1] = value
        mhcvse.model.save_checkpoint(checkpoint, arrays)
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(checkpoint) in err and "'encoder.image_bias' has non-finite" in err

    @pytest.mark.parametrize("edit, detail", [
        pytest.param(_set_config("embed_dim", 16), "embed_dim 16", id="embed_dim"),
        pytest.param(_set_config("heads", 4), "missing tensors", id="heads"),
        pytest.param(_drop_last("vocab"), "'encoder.word_embedding' shape", id="vocab"),
        pytest.param(_drop_last("concepts", "frequencies"), "adjacency shape",
                     id="concepts"),
        pytest.param(_set_config("feature_dim", 6), "'encoder.image_proj' shape",
                     id="feature_dim"),
        pytest.param(_set_config("fuse_type", "adap_sum"), "fusion.alpha_raw",
                     id="fuse_type-adap_sum"),
        # the weight_sum record is not one of an older file's three
        pytest.param(_set_config("fuse_type", "concat"),
                     "unknown tensors: ['fusion.weight_net']", id="fuse_type-concat"),
    ])
    def test_a_sidecar_that_does_not_fit_the_checkpoint_exits_one(
            self, sidecar, tmp_path, capsys, edit, detail):
        checkpoint, meta, manifest = sidecar
        _edit_json(meta, edit)
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert f"checkpoint {checkpoint} does not match its sidecar {meta}" in err
        assert detail in err

    @pytest.mark.parametrize("shape", [(), (4,)], ids=["rank-0", "rank-1"])
    def test_concept_embeddings_of_another_rank_exit_one(self, sidecar, tmp_path, capsys,
                                                         shape):
        # a rank-1 array used to fail as an IndexError traceback
        checkpoint, _, manifest = sidecar
        arrays = load_checkpoint(checkpoint)
        arrays["consensus.concept_embeddings"] = np.zeros(shape)
        mhcvse.model.save_checkpoint(checkpoint, arrays)
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(checkpoint) in err and f"concept embeddings shape {shape}" in err

    def test_a_tensor_name_that_is_not_utf8_exits_one(self, sidecar, tmp_path, capsys):
        checkpoint, _, manifest = sidecar
        checkpoint.write_bytes(checkpoint.read_bytes() + _record(b"\xffbias", np.zeros(2)))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(checkpoint) in err and "not valid UTF-8" in err

    def test_a_sidecar_that_is_not_utf8_exits_one(self, sidecar, tmp_path, capsys):
        checkpoint, meta, manifest = sidecar
        meta.write_bytes(meta.read_bytes().replace(b"<unk>", b"<\xe9unk>", 1))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert f"checkpoint sidecar {meta}: not UTF-8" in err

    def test_a_sidecar_that_is_not_an_object_exits_one(self, sidecar, tmp_path, capsys):
        checkpoint, meta, manifest = sidecar
        meta.write_text(json.dumps([json.loads(meta.read_text())]))
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert f"checkpoint sidecar {meta}: expected a JSON object" in err

    def test_truncated_sidecar_exits_one(self, sidecar, tmp_path, capsys):
        checkpoint, meta, manifest = sidecar
        meta.write_text(meta.read_text()[:12])
        code, err = _eval_exit(checkpoint, manifest, tmp_path, capsys)
        assert code == 1
        assert str(meta) in err and "invalid JSON" in err


class TestFeatureWidth:
    """Features whose width is not the model's ``feature_dim`` make the
    command exit 1 naming the features file, the image and feature_dim."""

    @pytest.fixture(scope="class")
    def narrow(self, workspace, tmp_path_factory):
        # the workspace split again, with 3 features per region, not 5
        data = tmp_path_factory.mktemp("narrow") / "data"
        assert main(["synth", "--out", str(data), "--pairs", "12",
                     "--feature-dim", "3", "--seed", "5"]) == 0
        return data

    @staticmethod
    def assert_names_the_width(err, features_file, image_id):
        assert features_file in err and f"image {image_id} has " in err
        assert "feature_dim is 5" in err

    def test_train_with_another_feature_dim_exits_one_before_the_fit(
            self, workspace, narrow, tmp_path, capsys):
        _, _, cfg_path = workspace
        assert main(train_argv(cfg_path, narrow, tmp_path / "run")) == 1
        first = min(read_features(narrow / "train.features.rgft"))
        self.assert_names_the_width(capsys.readouterr().err, "train.features.rgft", first)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_a_checkpoint_on_a_split_of_another_width_exits_one(
            self, workspace, narrow, tmp_path, capsys, command):
        _, run, _ = workspace
        first = min(read_features(narrow / "test.features.rgft"))
        extra = (["--out", str(tmp_path / "report.csv")] if command == "eval"
                 else ["--image-id", str(first)])
        code = main([command, "--checkpoint", str(run / "checkpoint.mhcv"),
                     "--manifest", str(narrow / "test.manifest.json"), *extra])
        assert code == 1
        self.assert_names_the_width(capsys.readouterr().err, "test.features.rgft", first)

    def test_images_of_differing_widths_exit_one(self, workspace, tmp_path, capsys):
        data, run, _ = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        features = read_features(copy / "test.features.rgft")
        odd = max(features)
        features[odd] = np.hstack([features[odd], features[odd][:, :1]])
        (copy / "test.features.rgft").write_bytes(rgft_bytes(features))
        code, err = _eval_exit(run / "checkpoint.mhcv", copy / "test.manifest.json",
                               tmp_path, capsys)
        assert code == 1
        self.assert_names_the_width(err, "test.features.rgft", odd)
        with pytest.raises(ValueError, match=f"image {odd} has 6 features per region, "
                                             f"but image {min(features)} has 5"):
            load_dataset(copy / "test.manifest.json")


class TestNonFiniteFeatures:
    """A NaN or an infinity in a features file makes ``train``, ``eval``
    and ``retrieve`` exit 1 naming the file and the image, also under
    ``python -O``."""

    @staticmethod
    def poisoned(workspace, tmp_path, split, value):
        """A copy of the workspace data whose ``split`` features hold
        ``value`` in one image; returns the copy and that image's id."""
        data, _, _ = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        path = copy / f"{split}.features.rgft"
        features = read_features(path)
        image_id = max(features)
        features[image_id][-1, 0] = value
        path.write_bytes(rgft_bytes(features))
        return copy, image_id

    @staticmethod
    def argv(command, workspace, data, image_id, tmp_path):
        _, run, cfg_path = workspace
        if command == "train":
            return train_argv(cfg_path, data, tmp_path / "run")
        extra = (["--out", str(tmp_path / "report.csv")] if command == "eval"
                 else ["--image-id", str(image_id)])
        return [command, "--checkpoint", str(run / "checkpoint.mhcv"),
                "--manifest", str(data / "test.manifest.json"), *extra]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("command", ["train", "eval", "retrieve"])
    def test_exits_one_naming_the_file_and_the_image(self, workspace, tmp_path, capsys,
                                                     command, value):
        split = "train" if command == "train" else "test"
        data, image_id = self.poisoned(workspace, tmp_path, split, value)
        assert main(self.argv(command, workspace, data, image_id, tmp_path)) == 1
        err = capsys.readouterr().err
        assert (f"feature file {data / split}.features.rgft: "
                f"image {image_id} has non-finite values") in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "retrieve"])
    def test_exits_one_under_python_optimize(self, workspace, tmp_path, command):
        # -O drops assert statements; the check must not be one
        split = "train" if command == "train" else "test"
        data, image_id = self.poisoned(workspace, tmp_path, split, np.nan)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(mhcvse.cli.__file__).parents[1]), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "mhcvse",
             *self.argv(command, workspace, data, image_id, tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stdout + done.stderr
        assert f"{split}.features.rgft: image {image_id} has non-finite" in done.stderr
        assert done.stdout == ""


class TestRetrieve:
    def test_prints_k_caption_ids_with_scores(self, workspace, capsys):
        data, run, _ = workspace
        train_ds = load_dataset(data / "train.manifest.json")
        image_id = train_ds.image_ids[0]
        assert main(["retrieve", "--checkpoint", str(run / "checkpoint.mhcv"),
                     "--manifest", str(data / "train.manifest.json"),
                     "--image-id", str(image_id), "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        caption_ids = {c for c, _, _ in train_ds.captions}
        scores = []
        for line in lines:
            cid, score = line.split("\t")
            assert int(cid) in caption_ids
            scores.append(float(score))
        assert scores == sorted(scores, reverse=True)

    def test_embeds_only_the_requested_image(self, workspace, monkeypatch):
        data, run, _ = workspace
        embedded = []
        real = mhcvse.model.encode_image
        monkeypatch.setattr(mhcvse.model, "encode_image",
                            lambda batch, proj, bias: (embedded.append(len(batch)),
                                                       real(batch, proj, bias))[1])
        train_ds = load_dataset(data / "train.manifest.json")
        assert len(train_ds.image_ids) > 1
        assert main(["retrieve", "--checkpoint", str(run / "checkpoint.mhcv"),
                     "--manifest", str(data / "train.manifest.json"),
                     "--image-id", str(train_ds.image_ids[1])]) == 0
        assert sum(embedded) == 1

    def test_unknown_image_id_exits_one(self, workspace, capsys):
        data, run, _ = workspace
        code = main(["retrieve", "--checkpoint", str(run / "checkpoint.mhcv"),
                     "--manifest", str(data / "train.manifest.json"),
                     "--image-id", "9999"])
        assert code == 1
        assert "not in split" in capsys.readouterr().err

    def test_k_below_one_exits_one(self, workspace):
        data, run, _ = workspace
        assert main(["retrieve", "--checkpoint", str(run / "checkpoint.mhcv"),
                     "--manifest", str(data / "train.manifest.json"),
                     "--image-id", "0", "--k", "0"]) == 1


class TestLrCurve:
    def test_midpoint_of_a_unit_schedule(self, tmp_path):
        out = tmp_path / "lr_curve.csv"
        assert main(["lr-curve", "--eta0", "1.0", "--eta-min", "0.0",
                     "--period", "100", "--steps", "60",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 60
        assert float(rows[0][1]) == 1.0
        assert abs(float(rows[50][1]) - 0.5) < 1e-15

    @pytest.mark.parametrize("flag, value", [
        ("--eta0", "nan"), ("--eta0", "inf"), ("--eta-min", "nan")])
    def test_non_finite_rate_exits_one(self, tmp_path, capsys, flag, value):
        out = tmp_path / "lr_curve.csv"
        code = main(["lr-curve", "--period", "4", "--steps", "3", flag, value,
                     "--out", str(out)])
        assert code == 1
        assert "eta_min <= eta0 < inf" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_come_from_the_config_file(self, workspace, tmp_path):
        _, _, cfg_path = workspace
        out = tmp_path / "cfg_curve.csv"
        assert main(["lr-curve", "--config", str(cfg_path),
                     "--period", "10", "--steps", "1",
                     "--out", str(out)]) == 0
        first = out.read_text().strip().splitlines()[1]
        assert float(first.split(",")[1]) == TINY_CFG["eta0"]


    def test_negative_steps_exits_one_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "lr_curve.csv"
        code = main(["lr-curve", "--period", "4", "--steps", "-3", "--out", str(out)])
        assert code == 1
        assert "--steps" in capsys.readouterr().err
        assert not out.exists()


class TestGradCheck:
    def test_fresh_model_passes_every_block(self, capsys):
        assert main(["grad-check", "--seed", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in out] == list(CASES)
        assert all(line.endswith("(ok)") for line in out)

    def test_a_failing_case_exits_one_and_every_line_is_printed(self, monkeypatch, capsys):
        def relu_with_a_doubled_vjp(t):
            x = t.data
            return ad._make(np.maximum(x, 0.0), (t,), lambda g: (2.0 * g * (x > 0.0),),
                            "relu")

        t = ad.Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        monkeypatch.setitem(CASES, "op_relu",
                            lambda rng: (lambda: relu_with_a_doubled_vjp(t), {"x": t}))
        assert main(["grad-check", "--seed", "0"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in out] == list(CASES)
        failed = [line.split(":")[0] for line in out if not line.endswith("(ok)")]
        assert failed == ["op_relu"]
        assert next(line for line in out if line.startswith("op_relu:")).endswith("(FAIL)")

    def test_negative_seed_is_refused_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grad-check", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got '-1'" in err


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestDeterminism:
    def test_synth_twice_is_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out", str(a), "--pairs", "8", "--seed", "21"])
        main(["synth", "--out", str(b), "--pairs", "8", "--seed", "21"])
        assert (a / "train.features.rgft").read_bytes() == \
            (b / "train.features.rgft").read_bytes()

    def test_env_seed_reaches_training(self, workspace, tmp_path, monkeypatch):
        data, _, cfg_path = workspace
        monkeypatch.setenv("MHCVSE_SEED", "99")
        assert main(train_argv(cfg_path, data, tmp_path / "r1")) == 0
        assert main(train_argv(cfg_path, data, tmp_path / "r2")) == 0
        a = load_checkpoint(tmp_path / "r1" / "checkpoint.mhcv")
        b = load_checkpoint(tmp_path / "r2" / "checkpoint.mhcv")
        assert all(np.array_equal(a[n], b[n]) for n in a)
        monkeypatch.setenv("MHCVSE_SEED", "100")
        assert main(train_argv(cfg_path, data, tmp_path / "r3")) == 0
        c = load_checkpoint(tmp_path / "r3" / "checkpoint.mhcv")
        assert any(not np.array_equal(a[n], c[n]) for n in a)


class TestReadme:
    def test_quick_start_runs_as_written(self, tmp_path, monkeypatch, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Quick start", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
        assert [c[:2] for c in commands] == [
            ["mhcvse", "synth"], ["mhcvse", "train"], ["mhcvse", "eval"],
            ["mhcvse", "retrieve"]]
        monkeypatch.chdir(tmp_path)
        for command in commands:
            capsys.readouterr()
            assert main(command[1:]) == 0, shlex.join(command)
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
