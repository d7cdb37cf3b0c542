"""Datasets: file formats, vocabulary, and the synthetic paired generator.

Region features live in a little-endian binary format (magic ``RGFT``),
captions in JSON Lines with pre-tokenized strings, and a JSON manifest ties
a split together. The synthetic generator draws one latent vector per
image-caption pair, emits region features as fixed random projections of
it plus noise, and caption tokens by quantizing the latent coordinates
into per-position vocabulary buckets, so matching is learnable from either
side but never a lookup.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

__all__ = [
    "STOPWORDS", "Vocabulary", "InstancePair",
    "DatasetManifest", "Dataset", "BinaryReader",
    "write_features", "read_features",
    "read_text", "write_captions_jsonl", "read_captions_jsonl",
    "load_dataset", "generate_synthetic",
]

FEATURES_MAGIC = b"RGFT"
FEATURES_VERSION = 1

# small fixed list; synthetic tokens never collide with it
STOPWORDS = frozenset("""
a an and are as at be but by for from has have in is it its of on or that the
this to was were will with
""".split())


def read_text(path, what: str) -> str:
    """A text file's contents, which must be UTF-8; a byte that does not
    decode raises ``ValueError`` naming ``what`` and the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{what} {path}: not UTF-8 ({err.reason} "
                         f"at byte {err.start})") from None


class Vocabulary:
    """Token -> id map with id 0 reserved for unknown tokens."""

    UNK = "<unk>"

    def __init__(self, tokens: list[str]):
        self.tokens = [self.UNK] + [t for t in tokens if t != self.UNK]
        self.index = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def build(cls, corpus) -> "Vocabulary":
        """Frequency-ranked vocabulary (ties alphabetical) from token lists."""
        counts = Counter()
        for tokens in corpus:
            counts.update(tokens)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return cls([tok for tok, _ in ranked])

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        """Rebuild from a previously saved full token list (UNK included)."""
        if not tokens or tokens[0] != cls.UNK:
            raise ValueError(f"saved vocabulary must start with {cls.UNK}")
        return cls(tokens[1:])

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        return [self.index.get(t, 0) for t in tokens]


@dataclass
class InstancePair:
    """The unit of training data: one image's regions and one of its captions."""

    image_id: int
    caption_id: int
    regions: np.ndarray
    token_ids: list[int]


@dataclass
class DatasetManifest:
    """Describes one split; feature/caption paths are relative to the manifest."""

    split: str
    features: str
    captions: str
    images: int
    captions_per_image: int

    def save(self, path) -> None:
        path = Path(path)
        path.write_text(json.dumps({
            "split": self.split,
            "features": self.features,
            "captions": self.captions,
            "images": self.images,
            "captions_per_image": self.captions_per_image,
        }, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        try:
            raw = json.loads(read_text(path, "manifest"))
        except json.JSONDecodeError as err:
            raise ValueError(f"manifest {path}: invalid JSON ({err})") from None
        if not isinstance(raw, dict):
            raise ValueError(f"manifest {path}: expected a JSON object, "
                             f"got {type(raw).__name__}")
        missing = {"split", "features", "captions", "images",
                   "captions_per_image"} - raw.keys()
        if missing:
            raise ValueError(f"manifest {path}: missing keys {sorted(missing)}")
        for key in ("split", "features", "captions"):
            if not isinstance(raw[key], str):
                raise ValueError(f"manifest {path}: key '{key}' must be a string, "
                                 f"got {raw[key]!r}")
        for key in ("images", "captions_per_image"):
            if isinstance(raw[key], bool) or not isinstance(raw[key], int):
                raise ValueError(f"manifest {path}: key '{key}' must be a JSON integer, "
                                 f"got {raw[key]!r}")
        return cls(raw["split"], raw["features"], raw["captions"],
                   raw["images"], raw["captions_per_image"])


class Dataset:
    """One loaded split: region features per image, captions, derived pairs."""

    def __init__(self, split: str, images: dict[int, np.ndarray],
                 captions: list[tuple[int, int, list[str]]], vocab: Vocabulary):
        self.split = split
        self.images = images
        self.captions = captions
        self.vocab = vocab
        self.pairs = [
            InstancePair(image_id, caption_id, images[image_id],
                         vocab.encode(tokens))
            for caption_id, image_id, tokens in captions
        ]

    @property
    def image_ids(self) -> list[int]:
        return sorted(self.images)


# ---------------------------------------------------------------------------
# bounded reader shared by the binary formats

class BinaryReader:
    """Cursor over one little-endian binary file, read as it goes; use it
    as a context manager (``with BinaryReader(...) as reader:``) so the
    file is closed.

    Checks the magic and version on opening, names the file in every
    error, and refuses any read longer than the bytes left, so a corrupt
    size field fails as truncation before anything is allocated.
    """

    def __init__(self, path, label: str, magic: bytes, version: int):
        self._label = f"{label} {path}"
        self._file = open(path, "rb")
        try:
            self.left = os.fstat(self._file.fileno()).st_size  # bytes not yet read
            if self.take(len(magic), "magic") != magic:
                raise self.error("bad magic")
            (found,) = self.unpack("<I", "version")
            if found != version:
                raise self.error(f"unsupported version {found}")
        except BaseException:
            self._file.close()
            raise

    def __enter__(self) -> "BinaryReader":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self._label}: {message}")

    def _claim(self, n: int, what: str) -> None:
        if n > self.left:
            raise self.error(f"truncated while reading {what}")
        self.left -= n

    def take(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        data = self._file.read(n)
        if len(data) != n:  # the file shrank after it was opened
            raise self.error(f"truncated while reading {what}")
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, shape: tuple[int, ...], dtype: str, what: str) -> np.ndarray:
        """The next values, read straight into a new array of ``shape``."""
        dtype = np.dtype(dtype)
        self._claim(dtype.itemsize * math.prod(shape), what)
        out = np.empty(shape, dtype)
        if self._file.readinto(out) != out.nbytes:
            raise self.error(f"truncated while reading {what}")
        return out


# ---------------------------------------------------------------------------
# region feature binary format

def write_features(path, features: dict[int, np.ndarray]) -> None:
    """magic, version u32, image count u64, then per image:
    image_id u64, M u32, F u32, M*F float32 row-major.

    An image that :func:`read_features` or :func:`load_dataset` would
    refuse is refused before the file is opened, and so is an id that
    does not fit a u64.
    """
    for image_id in features:
        # bool is an int subclass, but True is not an id
        if (isinstance(image_id, bool) or not isinstance(image_id, (int, np.integer))
                or not 0 <= int(image_id) < 2**64):
            raise ValueError(f"image id {image_id!r} is not an integer in [0, 2**64)")
    rows: dict[int, np.ndarray] = {}
    for image_id in sorted(features):
        shape = np.shape(features[image_id])
        if len(shape) != 2:
            raise ValueError(f"image {image_id}: features must be rank-2")
        if 0 in shape:
            raise ValueError(f"image {image_id} has {shape[0]} regions of {shape[1]} "
                             "features; it needs at least one of each")
        if rows and shape[1] != width:
            raise ValueError(f"image {image_id} has {shape[1]} features per region, "
                             f"but image {next(iter(rows))} has {width}")
        with np.errstate(over="ignore"):  # beyond the float32 range is inf
            arr = np.ascontiguousarray(features[image_id], dtype=np.float32)
        if not np.isfinite(arr).all():
            raise ValueError(f"image {image_id} has values that are not finite float32")
        rows[image_id] = arr
        width = shape[1]
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<I", FEATURES_VERSION))
        fh.write(struct.pack("<Q", len(features)))
        for image_id, arr in rows.items():
            m, f = arr.shape
            fh.write(struct.pack("<QII", image_id, m, f))
            fh.write(arr.tobytes())


def read_features(path) -> dict[int, np.ndarray]:
    """Read the RGFT file back as float64 arrays. An empty image, a repeated
    id and a non-finite value are refused, naming the file and the image."""
    out: dict[int, np.ndarray] = {}
    with BinaryReader(path, "feature file", FEATURES_MAGIC, FEATURES_VERSION) as reader:
        (count,) = reader.unpack("<Q", "image count")
        for _ in range(count):
            image_id, m, f = reader.unpack("<QII", "image header")
            if image_id in out:
                raise reader.error(f"repeated image id {image_id}")
            if m == 0 or f == 0:
                raise reader.error(f"image {image_id} has {m} regions of {f} features; "
                                   "it needs at least one of each")
            values = reader.array((m, f), "<f4", f"image {image_id} values")
            out[image_id] = values.astype(np.float64)
            if not np.isfinite(out[image_id]).all():
                raise reader.error(f"image {image_id} has non-finite values")
        if reader.left:
            raise reader.error("trailing bytes")
    return out


# ---------------------------------------------------------------------------
# captions

def write_captions_jsonl(path, captions) -> None:
    """One object per line: image_id, caption_id, tokens (strings)."""
    with open(path, "w", encoding="utf-8") as fh:
        for caption_id, image_id, tokens in captions:
            fh.write(json.dumps({"image_id": image_id, "caption_id": caption_id,
                                 "tokens": tokens}) + "\n")


def read_captions_jsonl(path) -> list[tuple[int, int, list[str]]]:
    out = []
    seen: set[int] = set()
    text = read_text(path, "caption file")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"caption file {path}, line {lineno}: "
                             f"invalid JSON ({err.msg})") from None
        try:
            image_id, caption_id = obj["image_id"], obj["caption_id"]
            tokens = obj["tokens"]
        except (KeyError, TypeError) as err:
            raise ValueError(f"caption file {path}, line {lineno}: "
                             f"missing or malformed field ({err})") from None
        for key, value in (("image_id", image_id), ("caption_id", caption_id)):
            # bool is an int subclass, but JSON true is not an id
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"caption file {path}, line {lineno}: '{key}' "
                                 f"must be a JSON integer, got {value!r}")
        if (not isinstance(tokens, list) or not tokens
                or not all(isinstance(t, str) for t in tokens)):
            raise ValueError(f"caption file {path}, line {lineno}: tokens must "
                             "be a non-empty list of strings")
        if caption_id in seen:
            raise ValueError(f"caption file {path}, line {lineno}: "
                             f"repeated caption_id {caption_id}")
        seen.add(caption_id)
        out.append((caption_id, image_id, tokens))
    if not out:
        raise ValueError(f"caption file {path}: no captions")
    return out


def _read_named(read, path: Path, label: str, key: str):
    """``read(path)`` of the file a manifest's ``key`` names; an OS error
    names the manifest and the key, and a missing file stays one."""
    try:
        return read(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"{path}, named by key '{key}' of {label}") from None
    except OSError as err:
        raise OSError(f"{label}: key '{key}' names {path}: {err.strerror or err}") from None


def load_dataset(manifest, vocab: Vocabulary | None = None,
                 feature_dim: int | None = None) -> Dataset:
    """Load the split a manifest file names; builds the vocabulary from its
    captions unless given one (pass the training vocabulary when loading
    val/test splits).

    Every image must have the same number of features per region: the
    model's ``feature_dim`` when given, the first image's otherwise.
    """
    path = Path(manifest)
    base, label = path.parent, f"manifest {path}"
    manifest = DatasetManifest.load(path)
    features_path = base / manifest.features
    features = _read_named(read_features, features_path, label, "features")
    want = f"feature_dim is {feature_dim}"
    for image_id, regions in features.items():
        if feature_dim is None:
            feature_dim, want = regions.shape[1], f"image {image_id} has {regions.shape[1]}"
        if regions.shape[1] != feature_dim:
            raise ValueError(f"feature file {features_path}: image {image_id} has "
                             f"{regions.shape[1]} features per region, but {want}")
    captions = _read_named(read_captions_jsonl, base / manifest.captions, label, "captions")
    caption_images = {img for _, img, _ in captions}
    orphan_captions = caption_images - features.keys()
    if orphan_captions:
        raise ValueError(f"split {manifest.split}: captions reference images "
                         f"without features: {sorted(orphan_captions)[:5]}")
    uncaptioned = features.keys() - caption_images
    if uncaptioned:
        raise ValueError(f"split {manifest.split}: images without captions: "
                         f"{sorted(uncaptioned)[:5]}")
    if len(features) != manifest.images:
        raise ValueError(f"{label}: key 'images' is {manifest.images} but "
                         f"{manifest.features} holds {len(features)} images")
    per_image = Counter(img for _, img, _ in captions)
    uneven = sorted(img for img, n in per_image.items() if n != manifest.captions_per_image)
    if uneven:
        raise ValueError(f"{label}: key 'captions_per_image' is "
                         f"{manifest.captions_per_image} but image {uneven[0]} has "
                         f"{per_image[uneven[0]]} captions in {manifest.captions}")
    if vocab is None:
        vocab = Vocabulary.build(tokens for _, _, tokens in captions)
    return Dataset(manifest.split, features, captions, vocab)


# ---------------------------------------------------------------------------
# synthetic paired data

_CANDIDATE_BUDGET = 10_000  # candidate latents tried per pair before giving up
# Candidates screened per block: a larger block spends more distance tests
# on candidates after its first survivor, a smaller one more calls. Medians
# of interleaved in-process runs on a 2-core x86-64 machine: 96 pairs took
# 9.9 ms at 64 and 128 and 10.3 ms at 32; 250 pairs 107 ms at 64, 122 ms
# at 32 and 103 ms at 128; 600 pairs of length 8 84 ms at 64, 82 ms at 32
# and 95 ms at 128.
_SCREEN_BLOCK = 64
# Standard normals drawn per refill of the generator's stream. The unread
# rest of the last refill is drawn for nothing: in the fastest of 40
# interleaved canonical calls, 1 << 12 took 9.7 ms, 1 << 14 10.1 ms and
# 1 << 16 11.1 ms.
_DRAW_AHEAD = 1 << 12


class _NormalStream:
    """A generator's standard normals in the order it draws them, drawn
    ahead in chunks so a caller can look at values before it consumes them.

    ``Generator.normal`` keeps no spare value between calls, so the values
    read here are the ones a ``normal()`` call per read would return.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = np.empty(0)
        self._pos = 0

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` values, left unread."""
        if self._pos + n > len(self._buf):
            fresh = self._rng.normal(size=max(n, _DRAW_AHEAD))
            self._buf = np.concatenate([self._buf[self._pos:], fresh])
            self._pos = 0
        return self._buf[self._pos:self._pos + n]

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` values, read."""
        out = self.peek(n)
        self._pos += n
        return out


class _Screen:
    """The separation test against the latents placed so far: for each
    candidate z, whether some placed latent ``prev`` has
    ``np.linalg.norm(z - prev) < separation``.

    A block of candidates is screened with one product, as
    ‖z‖² + ‖prev‖² − 2 z·prev. That is off by about l·eps·(‖z‖² + ‖prev‖²),
    and ‖z‖² ≤ 2d² + 2‖prev‖², so by at most l·eps·(2d² + 3‖prev‖²). A
    candidate whose nearest squared distance lands within
    1e-9·(1 + 3·separation² + 3·max ‖prev‖²) of separation², far wider
    than that for any practical l, or is not finite, is decided again by
    the exact test; so every decision is the exact test's.
    """

    def __init__(self, placed: np.ndarray, separation: float):
        self._placed, self._separation = placed, separation
        self._sq = np.vecdot(placed, placed)
        self._cross = -2.0 * placed.T
        limit = float(separation) * float(separation)  # inf when it overflows
        band = 1e-9 * (1.0 + 3.0 * limit + 3.0 * float(self._sq.max(initial=0.0)))
        self._below, self._above = limit - band, limit + band  # NaN, inf past overflow

    def crowded(self, candidates: np.ndarray) -> np.ndarray:
        """One bool per candidate row: True if it is too close to a placed latent."""
        if not len(self._placed):
            return np.zeros(len(candidates), dtype=bool)
        gap = candidates @ self._cross  # ‖prev‖² − 2 z·prev, once added
        gap += self._sq
        nearest = gap.min(axis=1) + np.vecdot(candidates, candidates)
        crowded = nearest < self._below
        if crowded.all():
            return crowded
        unsure = ~(crowded | (nearest > self._above))  # NaN is unsure too
        if unsure.any():
            diff = candidates[unsure, None, :] - self._placed[None]
            # vecdot runs the BLAS dot that np.linalg.norm of one vector runs
            exact = np.sqrt(np.vecdot(diff, diff)) < self._separation
            crowded[unsure] = exact.any(axis=1)
        return crowded


def _split_sizes(n_pairs: int) -> tuple[int, int, int]:
    # roughly 4:1:1; n_pairs=96 gives the canonical 64/16/16
    train = max(2, (2 * n_pairs) // 3)
    val = max(1, (n_pairs - train) // 2)
    test = n_pairs - train - val
    if test < 1:
        raise ValueError(f"n_pairs={n_pairs} too small to split")
    return train, val, test


def generate_synthetic(out_dir, n_pairs: int = 96, m: int = 6, f: int = 64,
                       l: int = 6, vocab: int = 60, noise: float = 0.03,
                       separation: float = 2.5,
                       seed: int = 7) -> tuple[Path, Path, Path]:
    """Write train/val/test splits of paired data under ``out_dir``.

    Each pair shares a latent z of dimension l. Region features are fixed
    random projections of z plus per-region Gaussian noise; caption token t
    is the quantile bucket of z[t] + noise, offset into a per-position
    vocabulary block. Latents are rejection-sampled to keep every pair of
    them at least ``separation`` apart and every pair of captions distinct
    in at least two token positions, so no two items in the dataset are
    ambiguous in either modality at the default noise level; val and test
    latents are further redrawn until their captions only use tokens that
    occur in the training captions, so out-of-vocabulary fallback never
    confounds retrieval on the generated sets. Each pair may try 10,000
    candidate latents before the call fails. Splits are disjoint by pair.
    Every pair is placed before the first file is written, so a call that
    fails leaves ``out_dir`` as it was. Returns the three manifest paths.
    """
    if n_pairs < 4:
        raise ValueError(f"need n_pairs >= 4, got {n_pairs}")
    if m < 1 or f < 1 or l < 1:
        raise ValueError("m, f, l must all be >= 1")
    if vocab < 2 * l:
        raise ValueError(f"vocab={vocab} too small for {l} token positions "
                         "(need at least 2 buckets each)")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    if not 0.0 <= separation < math.inf:
        raise ValueError(f"separation must be finite and >= 0, got {separation}")

    normals = _NormalStream(np.random.default_rng(seed))
    projections = normals.take(m * f * l).reshape(m, f, l) / np.sqrt(l)
    buckets = vocab // l
    # equal-occupancy bucket edges under the standard normal latent
    edges = np.array([NormalDist().inv_cdf(i / buckets) for i in range(1, buckets)])

    offsets = np.arange(l) * buckets
    latents = np.empty((n_pairs, l))
    codes = np.empty((n_pairs, l), dtype=np.int64)   # token t is f"w{code:03d}"
    in_train = np.zeros(l * buckets, dtype=bool)     # codes used by train captions

    def draw_pair(placed: int, split: str) -> tuple[np.ndarray, np.ndarray]:
        # Candidates are screened for separation a block at a time straight
        # from the stream; the first one clear of every placed latent is
        # read, with the jitter that follows it, and the rest stay unread.
        screen, prev_codes = _Screen(latents[:placed], separation), codes[:placed]
        rejected = dict.fromkeys(("separation", "caption distance", "coverage"), 0)
        tried = 0
        while tried < _CANDIDATE_BUDGET:
            rows = min(_SCREEN_BLOCK, _CANDIDATE_BUDGET - tried)
            block = normals.peek(rows * l).reshape(rows, l)
            crowded = screen.crowded(block)
            first = int(crowded.argmin())  # the first clear candidate, if any
            if crowded[first]:
                normals.take(rows * l)
                tried += rows
                rejected["separation"] += rows
                continue
            z = normals.take((first + 1) * l)[-l:]
            tried += first + 1
            rejected["separation"] += first
            code = offsets + np.searchsorted(edges, z + noise * normals.take(l))
            if ((prev_codes != code).sum(axis=1) < 2).any():
                rejected["caption distance"] += 1
                continue
            if split != "train" and not in_train[code].all():
                rejected["coverage"] += 1
                continue
            latents[placed], codes[placed] = z, code
            return z, code
        counts = ", ".join(f"{n} by {test}" for test, n in rejected.items())
        raise ValueError(f"could not place {n_pairs} latents with pairwise "
                         f"separation {separation} in {l} dimensions: all "
                         f"{_CANDIDATE_BUDGET} candidates for pair {placed + 1} of "
                         f"{n_pairs} ({split} split) were rejected, {counts}")

    splits = []
    next_id = 0
    for split, size in zip(("train", "val", "test"), _split_sizes(n_pairs)):
        features: dict[int, np.ndarray] = {}
        captions = []
        for _ in range(size):
            pair_id = next_id
            next_id += 1
            z, code = draw_pair(pair_id, split)
            if split == "train":
                in_train[code] = True
            regions = projections @ z + noise * normals.take(m * f).reshape(m, f)
            features[pair_id] = regions
            captions.append((pair_id, pair_id, [f"w{c:03d}" for c in code.tolist()]))
        splits.append((split, features, captions))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifests = []
    for split, features, captions in splits:
        write_features(out_dir / f"{split}.features.rgft", features)
        write_captions_jsonl(out_dir / f"{split}.captions.jsonl", captions)
        manifests.append(out_dir / f"{split}.manifest.json")
        DatasetManifest(split, f"{split}.features.rgft", f"{split}.captions.jsonl",
                        len(captions), 1).save(manifests[-1])
    return tuple(manifests)
