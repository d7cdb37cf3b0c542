"""File formats, vocabulary, synthetic generation, and config parsing."""

import hashlib
import json
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tinymodel import rgft_bytes

import mhcvse
import mhcvse.data
from mhcvse.config import (
    SEED_ENV_VAR,
    TrainConfig,
    format_config_text,
    load_config,
    parse_config_text,
    save_config,
)
from mhcvse.data import (
    Dataset,
    DatasetManifest,
    Vocabulary,
    _Screen,
    _split_sizes,
    generate_synthetic,
    load_dataset,
    read_captions_jsonl,
    read_features,
    write_captions_jsonl,
    write_features,
)


class TestVocabulary:
    def test_unknown_token_id_is_zero(self):
        vocab = Vocabulary(["dog", "cat"])
        assert vocab.tokens[0] == Vocabulary.UNK
        assert vocab.encode(["zebra"]) == [0]
        assert vocab.encode(["dog", "cat"]) == [1, 2]

    def test_build_ranks_by_frequency_then_alphabetically(self):
        corpus = [["b", "a"], ["b", "c"], ["a"]]
        vocab = Vocabulary.build(corpus)
        assert vocab.tokens == [Vocabulary.UNK, "a", "b", "c"]

    def test_from_tokens_round_trip(self):
        vocab = Vocabulary(["dog", "cat"])
        rebuilt = Vocabulary.from_tokens(vocab.tokens)
        assert rebuilt.tokens == vocab.tokens
        assert rebuilt.encode(["cat"]) == vocab.encode(["cat"])

    def test_from_tokens_requires_unk_first(self):
        with pytest.raises(ValueError, match="must start with"):
            Vocabulary.from_tokens(["dog", "cat"])

    def test_len_counts_unk(self):
        assert len(Vocabulary(["x"])) == 2


class TestFeatureFormat:
    def test_round_trip_preserves_f32_values_exactly(self, tmp_path):
        rng = np.random.default_rng(89)
        features = {3: rng.normal(size=(4, 6)), 9: rng.normal(size=(2, 6))}
        path = tmp_path / "x.rgft"
        write_features(path, features)
        loaded = read_features(path)
        assert set(loaded) == {3, 9}
        for image_id, arr in features.items():
            # written as f32, widened back to f64: exact at f32 precision
            assert loaded[image_id].dtype == np.float64
            assert np.array_equal(loaded[image_id],
                                  arr.astype(np.float32).astype(np.float64))

    def test_rank1_features_rejected_at_write(self, tmp_path):
        with pytest.raises(ValueError, match="rank-2"):
            write_features(tmp_path / "bad.rgft", {1: np.ones(4)})

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rgft"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError, match="bad magic"):
            read_features(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.rgft"
        write_features(path, {1: np.ones((2, 3))})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.rgft"
        write_features(path, {1: np.ones((2, 3))})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            read_features(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v7.rgft"
        path.write_bytes(b"RGFT" + (7).to_bytes(4, "little") + b"\x00" * 8)
        with pytest.raises(ValueError, match="unsupported version"):
            read_features(path)

    def test_oversized_header_is_truncation_not_an_allocation(self, tmp_path):
        path = tmp_path / "huge.rgft"
        path.write_bytes(b"RGFT" + struct.pack("<IQQII", 1, 1, 0, 2**31, 2**31))
        with pytest.raises(ValueError, match="truncated"):
            read_features(path)

    def test_repeated_image_id_rejected(self, tmp_path):
        path = tmp_path / "twice.rgft"
        record = struct.pack("<QII", 5, 1, 2)
        path.write_bytes(b"RGFT" + struct.pack("<IQ", 1, 2)
                         + record + np.ones(2, "<f4").tobytes()
                         + record + np.full(2, 2.0, "<f4").tobytes())
        with pytest.raises(ValueError, match=r"twice\.rgft.*repeated image id 5"):
            read_features(path)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    def test_empty_image_rejected(self, tmp_path, shape):
        path = tmp_path / "empty.rgft"
        path.write_bytes(rgft_bytes({1: np.ones((2, 4)), 7: np.zeros(shape)}))
        with pytest.raises(ValueError, match=r"empty\.rgft: image 7 has"):
            read_features(path)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    def test_empty_image_rejected_before_writing(self, tmp_path, shape):
        path = tmp_path / "empty.rgft"
        with pytest.raises(ValueError, match="image 7 has"):
            write_features(path, {1: np.ones((2, 4)), 7: np.zeros(shape)})
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "nan.rgft"
        bad = np.ones((2, 4), "<f4")
        bad[1, 2] = value
        path.write_bytes(rgft_bytes({1: np.ones((2, 4)), 7: bad}))
        with pytest.raises(ValueError, match=r"nan\.rgft: image 7 has non-finite values"):
            read_features(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39],
                             ids=["nan", "-inf", "beyond-float32"])
    def test_non_finite_value_rejected_before_writing(self, tmp_path, value):
        path = tmp_path / "nan.rgft"
        bad = np.ones((2, 4))
        bad[1, 2] = value
        with pytest.raises(ValueError, match="image 7 has values that are not finite"):
            write_features(path, {1: np.ones((2, 4)), 7: bad})
        assert not path.exists()

    def test_images_of_differing_widths_rejected_before_writing(self, tmp_path):
        path = tmp_path / "wide.rgft"
        with pytest.raises(ValueError, match="image 7 has 6 features per region, "
                                             "but image 1 has 5"):
            write_features(path, {7: np.ones((2, 6)), 1: np.ones((2, 5))})
        assert not path.exists()

    @pytest.mark.parametrize("image_id", [-1, 2.5, 2**64, True],
                             ids=["negative", "float", "beyond-u64", "bool"])
    def test_an_id_that_is_not_a_u64_is_rejected_before_writing(self, tmp_path,
                                                                  image_id):
        # these used to raise struct.error and leave a 16-byte partial file
        path = tmp_path / "ids.rgft"
        with pytest.raises(ValueError, match=rf"image id {image_id!r} is not an integer"):
            write_features(path, {3: np.ones((2, 4)), image_id: np.ones((2, 4))})
        assert not path.exists()


class TestCaptionFormat:
    def test_round_trip(self, tmp_path):
        captions = [(0, 10, ["dog", "park"]), (1, 10, ["dog"]),
                    (2, 11, ["red", "car"])]
        path = tmp_path / "caps.jsonl"
        write_captions_jsonl(path, captions)
        assert read_captions_jsonl(path) == captions

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        body = json.dumps({"image_id": 1, "caption_id": 0, "tokens": ["x"]})
        path.write_text(f"\n{body}\n\n")
        assert read_captions_jsonl(path) == [(0, 1, ["x"])]

    def test_invalid_json_reports_the_line_number(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        good = json.dumps({"image_id": 1, "caption_id": 0, "tokens": ["x"]})
        path.write_text(f"{good}\n{{not json\n")
        with pytest.raises(ValueError, match="line 2"):
            read_captions_jsonl(path)

    def test_missing_field_reports_the_line_number(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text(json.dumps({"image_id": 1, "tokens": ["x"]}) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            read_captions_jsonl(path)

    def test_empty_token_list_rejected(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text(json.dumps({"image_id": 1, "caption_id": 0,
                                    "tokens": []}) + "\n")
        with pytest.raises(ValueError, match="non-empty list"):
            read_captions_jsonl(path)

    def test_repeated_caption_id_rejected(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        write_captions_jsonl(path, [(4, 1, ["x"]), (4, 2, ["y"])])
        with pytest.raises(ValueError,
                           match=r"caps\.jsonl, line 2: repeated caption_id 4"):
            read_captions_jsonl(path)

    @pytest.mark.parametrize("key, value", [
        pytest.param("image_id", 80.9, id="float"),
        pytest.param("image_id", 80.0, id="integral-float"),
        pytest.param("image_id", "80", id="string"),
        pytest.param("image_id", True, id="bool"),
        pytest.param("caption_id", None, id="null")])
    def test_ids_must_be_json_integers(self, tmp_path, key, value):
        path = tmp_path / "caps.jsonl"
        row = {"image_id": 80, "caption_id": 3, "tokens": ["x"]}
        row[key] = value
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError,
                           match=rf"caps\.jsonl, line 1: '{key}' must be a JSON integer"):
            read_captions_jsonl(path)

    def test_empty_file_is_an_error_not_an_empty_dataset(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no captions"):
            read_captions_jsonl(path)


class TestManifestAndLoading:
    def _write_split(self, tmp_path, captions, features):
        write_features(tmp_path / "f.rgft", features)
        write_captions_jsonl(tmp_path / "c.jsonl", captions)
        manifest = DatasetManifest("train", "f.rgft", "c.jsonl",
                                   len(features),
                                   len(captions) // max(1, len(features)))
        manifest_path = tmp_path / "train.manifest.json"
        manifest.save(manifest_path)
        return manifest_path

    def test_two_image_fixture_with_five_captions_each(self, tmp_path):
        rng = np.random.default_rng(97)
        features = {0: rng.normal(size=(3, 4)), 1: rng.normal(size=(3, 4))}
        captions = [(c, c // 5, [f"tok{c}", "shared"]) for c in range(10)]
        manifest_path = self._write_split(tmp_path, captions, features)
        ds = load_dataset(manifest_path)
        assert ds.split == "train"
        assert len(ds.pairs) == 10
        assert len(ds.images) == 2
        assert ds.image_ids == [0, 1]
        assert [img for _, img, _ in ds.captions] == [0] * 5 + [1] * 5
        # 10 distinct tok* + shared + unk
        assert len(ds.vocab) == 12

    def test_manifest_round_trip(self, tmp_path):
        manifest = DatasetManifest("val", "a.rgft", "b.jsonl", 4, 5)
        path = tmp_path / "m.json"
        manifest.save(path)
        assert DatasetManifest.load(path) == manifest

    def test_manifest_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"split": "train"}))
        with pytest.raises(ValueError, match="missing keys"):
            DatasetManifest.load(path)

    def test_manifest_file_names_must_be_strings(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"split": "t", "features": 3, "captions": "c",
                                    "images": 1, "captions_per_image": 5}))
        with pytest.raises(ValueError, match=r"m\.json: key 'features' must be a string"):
            DatasetManifest.load(path)

    @pytest.mark.parametrize("count", [64.9, "64", True])
    def test_manifest_count_must_be_a_json_integer(self, tmp_path, count):
        # 64.9 used to load as 64 and true as 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"split": "t", "features": "f", "captions": "c",
                                    "images": count, "captions_per_image": 1}))
        with pytest.raises(ValueError, match=r"m\.json: key 'images' must be a JSON integer"):
            DatasetManifest.load(path)

    def test_manifest_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            DatasetManifest.load(path)

    def test_caption_for_unknown_image_rejected(self, tmp_path):
        features = {0: np.ones((2, 3))}
        captions = [(0, 0, ["x"]), (1, 5, ["y"])]
        manifest_path = self._write_split(tmp_path, captions, features)
        with pytest.raises(ValueError, match="without features"):
            load_dataset(manifest_path)

    def test_image_without_captions_rejected(self, tmp_path):
        features = {0: np.ones((2, 3)), 1: np.ones((2, 3))}
        captions = [(0, 0, ["x"])]
        manifest_path = self._write_split(tmp_path, captions, features)
        with pytest.raises(ValueError, match="without captions"):
            load_dataset(manifest_path)

    def test_manifest_image_count_must_match_the_features(self, tmp_path):
        # a manifest saying 1 image used to load a 2-image feature file
        features = {0: np.ones((2, 3)), 1: np.ones((2, 3))}
        captions = [(0, 0, ["x"]), (1, 1, ["y"])]
        write_features(tmp_path / "f.rgft", features)
        write_captions_jsonl(tmp_path / "c.jsonl", captions)
        path = tmp_path / "train.manifest.json"
        DatasetManifest("train", "f.rgft", "c.jsonl", 1, 1).save(path)
        with pytest.raises(ValueError, match=r"train\.manifest\.json: key 'images' "
                           r"is 1 but f\.rgft holds 2 images"):
            load_dataset(path)

    def test_manifest_captions_per_image_must_match_the_captions(self, tmp_path):
        features = {0: np.ones((2, 3)), 1: np.ones((2, 3))}
        captions = [(0, 0, ["x"]), (1, 0, ["y"]), (2, 1, ["z"]), (3, 1, ["w"]),
                    (4, 1, ["v"])]
        write_features(tmp_path / "f.rgft", features)
        write_captions_jsonl(tmp_path / "c.jsonl", captions)
        path = tmp_path / "train.manifest.json"
        DatasetManifest("train", "f.rgft", "c.jsonl", 2, 2).save(path)
        with pytest.raises(ValueError, match=r"train\.manifest\.json: key "
                           r"'captions_per_image' is 2 but image 1 has 3 captions "
                           r"in c\.jsonl"):
            load_dataset(path)

    def test_supplied_vocabulary_is_used_verbatim(self, tmp_path):
        features = {0: np.ones((2, 3))}
        captions = [(0, 0, ["novel", "word"])]
        manifest_path = self._write_split(tmp_path, captions, features)
        train_vocab = Vocabulary(["word"])
        ds = load_dataset(manifest_path, train_vocab)
        assert ds.vocab is train_vocab
        assert ds.pairs[0].token_ids == [0, 1]  # novel -> unk


class TestSyntheticGenerator:
    def test_canonical_split_sizes(self, tmp_path):
        manifests = generate_synthetic(tmp_path, n_pairs=24, seed=5)
        sizes = {}
        for path in manifests:
            manifest = DatasetManifest.load(path)
            sizes[manifest.split] = manifest.images
            ds = load_dataset(path)
            assert len(ds.pairs) == manifest.images
            assert manifest.captions_per_image == 1
        assert sizes == {"train": 16, "val": 4, "test": 4}
        assert sum(sizes.values()) == 24

    def test_same_seed_reproduces_files_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(a, n_pairs=12, seed=13)
        generate_synthetic(b, n_pairs=12, seed=13)
        for name in ("train", "val", "test"):
            for suffix in ("features.rgft", "captions.jsonl", "manifest.json"):
                assert (a / f"{name}.{suffix}").read_bytes() == \
                    (b / f"{name}.{suffix}").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(a, n_pairs=12, seed=13)
        generate_synthetic(b, n_pairs=12, seed=14)
        assert (a / "train.features.rgft").read_bytes() != \
            (b / "train.features.rgft").read_bytes()

    def test_splits_are_disjoint_by_pair_id(self, tmp_path):
        manifests = generate_synthetic(tmp_path, n_pairs=18, seed=5)
        seen: set[int] = set()
        for path in manifests:
            ds = load_dataset(path)
            ids = set(ds.images)
            assert not ids & seen
            seen |= ids
        assert len(seen) == 18

    def test_latents_keep_the_promised_separation(self, tmp_path):
        # token codes expose the bucketed latent; check caption-space
        # distinctness instead: every caption pair differs in >= 2 slots
        manifests = generate_synthetic(tmp_path, n_pairs=18, seed=5)
        codes = []
        for path in manifests:
            for _, _, tokens in load_dataset(path).captions:
                codes.append(tokens)
        for i in range(len(codes)):
            for j in range(i + 1, len(codes)):
                hamming = sum(a != b for a, b in zip(codes[i], codes[j]))
                assert hamming >= 2

    def test_val_and_test_tokens_are_covered_by_training(self, tmp_path):
        train_m, val_m, test_m = generate_synthetic(tmp_path, n_pairs=18, seed=5)
        train_tokens = {t for _, _, toks in load_dataset(train_m).captions
                        for t in toks}
        for path in (val_m, test_m):
            for _, _, tokens in load_dataset(path).captions:
                assert set(tokens) <= train_tokens

    def test_feature_shape_matches_the_flags(self, tmp_path):
        train_m, _, _ = generate_synthetic(tmp_path, n_pairs=8, m=4, f=10,
                                           l=3, vocab=30, seed=5)
        ds = load_dataset(train_m)
        for arr in ds.images.values():
            assert arr.shape == (4, 10)

    def test_too_few_pairs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="n_pairs"):
            generate_synthetic(tmp_path, n_pairs=3)

    def test_vocab_too_small_for_positions_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="too small"):
            generate_synthetic(tmp_path, n_pairs=8, l=6, vocab=10)

    def test_negative_noise_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="noise"):
            generate_synthetic(tmp_path, n_pairs=8, noise=-0.1)

    def test_impossible_separation_fails_honestly(self, tmp_path):
        with pytest.raises(ValueError, match="separation"):
            generate_synthetic(tmp_path, n_pairs=50, l=2, vocab=20,
                               separation=4.0, seed=5)

    def test_import_loads_no_scipy(self):
        # the bucket edges come from the standard library; a fresh
        # interpreter must not pull scipy in through any module
        src = str(Path(mhcvse.__file__).resolve().parents[1])
        code = ("import sys, mhcvse; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=src)
        assert out.stdout.strip() == "[]"


def reference_synthetic(out_dir, n_pairs, m=6, f=64, l=6, vocab=60, noise=0.03,
                        separation=2.5, seed=7, budget=10_000) -> Counter:
    """generate_synthetic drawing one candidate latent at a time, each tested
    against every accepted latent and caption in Python: the reference whose
    files the block-screened generator must reproduce byte for byte.
    Returns how often each rejection test fired."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    projections = rng.normal(size=(m, f, l)) / np.sqrt(l)
    buckets = vocab // l
    edges = np.array([NormalDist().inv_cdf(i / buckets) for i in range(1, buckets)])
    accepted, codes, train_tokens = [], [], set()
    rejected = Counter()

    def draw_pair(split):
        here = Counter()  # this pair's rejections
        for _ in range(budget):
            z = rng.normal(size=l)
            if any(np.linalg.norm(z - prev) < separation for prev in accepted):
                here["separation"] += 1
                continue
            jittered = z + noise * rng.normal(size=l)
            tokens = [f"w{pos * buckets + int(np.searchsorted(edges, zv)):03d}"
                      for pos, zv in enumerate(jittered)]
            if any(sum(a != b for a, b in zip(tokens, prev)) < 2 for prev in codes):
                here["caption distance"] += 1
                continue
            if split != "train" and not train_tokens.issuperset(tokens):
                here["coverage"] += 1
                continue
            rejected.update(here)
            accepted.append(z)
            codes.append(tokens)
            return z, tokens
        raise ValueError(
            f"could not place {n_pairs} latents with pairwise separation "
            f"{separation} in {l} dimensions: all {budget} candidates for pair "
            f"{len(accepted) + 1} of {n_pairs} ({split} split) were rejected, "
            f"{here['separation']} by separation, {here['caption distance']} by "
            f"caption distance, {here['coverage']} by coverage")

    pair_id = 0
    for split, size in zip(("train", "val", "test"), _split_sizes(n_pairs)):
        features, captions = {}, []
        for _ in range(size):
            z, tokens = draw_pair(split)
            if split == "train":
                train_tokens.update(tokens)
            features[pair_id] = projections @ z + noise * rng.normal(size=(m, f))
            captions.append((pair_id, pair_id, tokens))
            pair_id += 1
        write_features(out_dir / f"{split}.features.rgft", features)
        write_captions_jsonl(out_dir / f"{split}.captions.jsonl", captions)
        DatasetManifest(split, f"{split}.features.rgft", f"{split}.captions.jsonl",
                        size, 1).save(out_dir / f"{split}.manifest.json")
    return rejected


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# SHA-256 of each file of generate_synthetic(n_pairs=96, seed=7) as written by
# the one-candidate-at-a-time generator
CANONICAL_SYNTH_SHA256 = {
    "test.captions.jsonl": "6205945c94531d91852e9017595d24c24880f5a071ef19bd0b9ed772423dc092",
    "test.features.rgft": "dde1d80873a82e00493f89142428d57fe0dab17799bedda52ac9630c730058c9",
    "test.manifest.json": "ed5afd3358649a2875690e6ac6c0d13f5d89e21b4c173585cceeb645bcf60f9b",
    "train.captions.jsonl": "ef5c2f7de97fd2b1725e8808aa9204f2c71a203fabac0c5a38a9cf799cac4a5b",
    "train.features.rgft": "37eda8c97f01ddab7e667caf2cde36eb4c49e72dd16334b7a507a3343d0fb92c",
    "train.manifest.json": "4e3f9827b9275b69414edb0232c5e67b2d82bc8946d00b3a729b74ed49283875",
    "val.captions.jsonl": "22e48f3fc45fff9589086e21ec4a0384e8e566ac2ed6accfbdd70dd490b5a2a9",
    "val.features.rgft": "235f23c002012f279fbd06c36d07d279d24ccee590b3e04fa5e34be8816587f9",
    "val.manifest.json": "e4fed6d10f743a3f65bc993151452429da9be3533bf2968df4974d735dffd873",
}

# SHA-256 of each file of generate_synthetic(n_pairs=250, seed=7) as written by
# the generator that screened each candidate with one norm per placed latent:
# late pairs need many screening blocks each, and the stream is refilled often
LARGE_SYNTH_SHA256 = {
    "test.captions.jsonl": "787a0fb17c15502367a5f26c2e7e3cf18598d3a8ddbf051308dcedb775cb5aea",
    "test.features.rgft": "9b5e6dd7b0e18670d9b59f78c9ff775a54e3d6a7fede8bceb0876ac2c090ff49",
    "test.manifest.json": "c5806b5d3d23c4150bd8befa4b48e115b959d180fda7ac2201c6048aba2a99b6",
    "train.captions.jsonl": "da07c2ffb6386aea7ce0b863821062001f5bd1477c647cd516b6464f49b9d2f3",
    "train.features.rgft": "d389c967b35b0cede22c5cd5b4cf443bbdf0e3c6cba097b2db56b387e3671f0f",
    "train.manifest.json": "968e5f06b61eedd4a030e3b05a54c988dfb868bed485337eee40fe081ffa351f",
    "val.captions.jsonl": "a650c953e1db8170f8d535e18b652680408f253275a1598880570f9e3f28aff5",
    "val.features.rgft": "c472a328a130101a9a2b6296779f465818b5953c14ef695b7b59f6ee063f7e6a",
    "val.manifest.json": "9a183e0ab7dc853c86f6c97ce0e48f3ea32d0e22645755b99bb2428599f593fd",
}

# (generator arguments, the rejection test the config must exercise)
REFERENCE_CASES = [
    pytest.param(dict(n_pairs=96, seed=7), "caption distance", id="canonical"),
    pytest.param(dict(n_pairs=12, seed=5), "coverage", id="coverage"),
    pytest.param(dict(n_pairs=24, l=5, vocab=15, separation=1.0, seed=3),
                 "caption distance", id="caption-distance"),
    pytest.param(dict(n_pairs=200, vocab=120, l=8, seed=3), "separation",
                 id="200-pairs"),
]


def _digests(directory: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in _files(directory).items()}


class TestSyntheticMatchesReference:
    def test_canonical_files_hash_as_recorded(self, tmp_path):
        generate_synthetic(tmp_path, n_pairs=96, seed=7)
        assert _digests(tmp_path) == CANONICAL_SYNTH_SHA256

    def test_large_files_hash_as_recorded(self, tmp_path):
        # too slow for the reference; stands in for it at a size where
        # separation rejects most candidates
        generate_synthetic(tmp_path, n_pairs=250, seed=7)
        assert _digests(tmp_path) == LARGE_SYNTH_SHA256

    @pytest.mark.parametrize("kwargs, fired", REFERENCE_CASES)
    def test_files_match_the_reference(self, tmp_path, kwargs, fired):
        rejected = reference_synthetic(tmp_path / "ref", **kwargs)
        assert rejected[fired] > 0
        generate_synthetic(tmp_path / "new", **kwargs)
        assert _files(tmp_path / "new") == _files(tmp_path / "ref")

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_the_files(self, tmp_path, monkeypatch, block):
        reference_synthetic(tmp_path / "ref", n_pairs=24, l=5, vocab=15,
                            separation=1.0, seed=3)
        monkeypatch.setattr(mhcvse.data, "_SCREEN_BLOCK", block)
        generate_synthetic(tmp_path / "new", n_pairs=24, l=5, vocab=15,
                           separation=1.0, seed=3)
        assert _files(tmp_path / "new") == _files(tmp_path / "ref")

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_draw_ahead_does_not_change_the_files(self, tmp_path, monkeypatch, chunk):
        # every read past the buffered normals refills the stream
        reference_synthetic(tmp_path / "ref", n_pairs=24, l=5, vocab=15,
                            separation=1.0, seed=3)
        monkeypatch.setattr(mhcvse.data, "_DRAW_AHEAD", chunk)
        generate_synthetic(tmp_path / "new", n_pairs=24, l=5, vocab=15,
                           separation=1.0, seed=3)
        assert _files(tmp_path / "new") == _files(tmp_path / "ref")

    def test_failure_matches_the_reference(self, tmp_path):
        kwargs = dict(n_pairs=50, l=2, vocab=20, separation=4.0, seed=5)
        with pytest.raises(ValueError) as ref:
            reference_synthetic(tmp_path / "ref", **kwargs)
        with pytest.raises(ValueError) as new:
            generate_synthetic(tmp_path / "new", **kwargs)
        assert str(new.value) == str(ref.value)

    def test_budget_counts_candidates(self, tmp_path, monkeypatch):
        # at seed 5 one pair needs 389 candidates: a budget of 389 places
        # every pair and 388 does not, though neither is a multiple of the
        # block size
        kwargs = dict(n_pairs=12, seed=5)
        monkeypatch.setattr(mhcvse.data, "_CANDIDATE_BUDGET", 389)
        reference_synthetic(tmp_path / "ref", budget=389, **kwargs)
        generate_synthetic(tmp_path / "new", **kwargs)
        assert _files(tmp_path / "new") == _files(tmp_path / "ref")
        monkeypatch.setattr(mhcvse.data, "_CANDIDATE_BUDGET", 388)
        with pytest.raises(ValueError, match="could not place"):
            reference_synthetic(tmp_path / "ref388", budget=388, **kwargs)
        with pytest.raises(ValueError, match="could not place"):
            generate_synthetic(tmp_path / "new388", **kwargs)


def _ulps(x: float, n: int) -> float:
    """x moved n units in the last place (toward +inf when n > 0)."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return x


class TestSeparationScreen:
    """Each decision of the one-product screen equals the exact test,
    np.linalg.norm(z - prev) < separation, also where the product's
    rounding would decide otherwise."""

    @staticmethod
    def _check(placed, candidates, separation):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _Screen(placed, separation).crowded(candidates)
            want = [any(np.linalg.norm(z - prev) < separation for prev in placed)
                    for z in candidates]
        assert got.tolist() == want

    @staticmethod
    def _around(prev, separation, direction):
        # candidates at separation and a few ulps inside and outside it
        step = direction / np.linalg.norm(direction)
        return np.array([prev + _ulps(separation, n) * step for n in range(-3, 4)])

    @pytest.mark.parametrize("separation", [2.5, 1.0, 0.3])
    @pytest.mark.parametrize("axis", [True, False], ids=["axis", "diagonal"])
    def test_candidates_at_the_boundary(self, separation, axis):
        rng = np.random.default_rng(11)
        l = 6
        direction = np.eye(l)[2] if axis else np.ones(l)
        for _ in range(40):
            prev = rng.normal(size=l)
            self._check(prev[None], self._around(prev, separation, direction),
                        separation)

    def test_zero_separation_crowds_nothing(self):
        prev = np.array([[0.3, -1.2, 0.7]])
        candidates = np.array([[0.3, -1.2, 0.7], [0.3, -1.2, _ulps(0.7, 1)],
                               [1.0, 1.0, 1.0]])
        self._check(prev, candidates, 0.0)
        assert not _Screen(prev, 0.0).crowded(candidates).any()

    def test_a_separation_whose_square_overflows(self):
        separation = 1e200
        prev = np.array([[1e199, -3.0, 0.5]])
        candidates = np.vstack([self._around(prev[0], separation, np.eye(3)[0]),
                                self._around(prev[0], separation, np.ones(3)),
                                prev + 1.0])
        self._check(prev, candidates, separation)


class TestConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_text_round_trip_is_identical(self):
        cfg = TrainConfig(embed_dim=64, heads=4, eta0=0.00037,
                          base_weights=(1.0, 0.5, 2.0, 1.0),
                          invert_dynamic_weight=True, fuse_type="concat")
        assert parse_config_text(format_config_text(cfg)) == cfg

    def test_save_and_load(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = TrainConfig(embed_dim=16, heads=2, seed=9)
        path = tmp_path / "cfg.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# a comment\n\nembed_dim = 16  # trailing\nheads = 2\n")
        assert cfg.embed_dim == 16
        assert cfg.heads == 2

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2.*unknown key"):
            parse_config_text("embed_dim = 16\nlr = 0.1\n")

    def test_retired_gcn_form_loads_only_as_paper(self):
        assert parse_config_text("heads = 2\ngcn_form = paper\n") == TrainConfig(heads=2)
        with pytest.raises(ValueError, match="line 1: key 'gcn_form'.*'conventional'"):
            parse_config_text("gcn_form = conventional\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            parse_config_text("heads = 2\nheads = 4\n")
        with pytest.raises(ValueError, match="line 2: duplicate key 'gcn_form'"):
            parse_config_text("gcn_form = paper\ngcn_form = paper\n")

    def test_unparseable_value_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_config_text("embed_dim = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("embed_dim 16\n")

    def test_base_weights_parse_as_a_tuple(self):
        cfg = parse_config_text("base_weights = 1.0,2.0,3.0,4.0\n")
        assert cfg.base_weights == (1.0, 2.0, 3.0, 4.0)

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.txt"
        save_config(TrainConfig(seed=5), path)
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        assert load_config(path).seed == 123

    def test_env_seed_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        with pytest.raises(ValueError, match=SEED_ENV_VAR):
            load_config()

    def test_replaced_fields_are_validated(self, monkeypatch):
        # a caller overrides a loaded config with dataclasses.replace
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = replace(load_config(), embed_dim=32, heads=4).validate()
        assert (cfg.embed_dim, cfg.heads) == (32, 4)
        with pytest.raises(ValueError, match="heads"):
            replace(cfg, heads=5).validate()

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="heads"):
            TrainConfig(embed_dim=10, heads=4).validate()
        with pytest.raises(ValueError, match="embed_dim"):
            TrainConfig(embed_dim=7).validate()
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=1).validate()
        with pytest.raises(ValueError, match="retrieval_level"):
            TrainConfig(retrieval_level="raw").validate()
        with pytest.raises(ValueError, match="eta_min_ratio"):
            TrainConfig(eta_min_ratio=1.5).validate()

    def test_eta_min_derived_from_ratio(self):
        cfg = TrainConfig(eta0=0.02, eta_min_ratio=0.01)
        assert_allclose(cfg.eta_min, 0.0002, rtol=0, atol=1e-18)


class TestDatasetPairs:
    def test_pairs_encode_with_the_split_vocabulary(self):
        vocab = Vocabulary(["dog", "park"])
        images = {7: np.ones((2, 3))}
        captions = [(0, 7, ["dog", "park"]), (1, 7, ["dog", "moon"])]
        ds = Dataset("train", images, captions, vocab)
        assert [p.token_ids for p in ds.pairs] == [[1, 2], [1, 0]]
        assert all(p.image_id == 7 for p in ds.pairs)
        assert [p.caption_id for p in ds.pairs] == [0, 1]
        assert ds.pairs[0].regions is images[7]
