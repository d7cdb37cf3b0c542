"""The full matching model: encoders, per-modality self-attention, consensus
GCN, and per-modality fusion of the instance and consensus levels.

For a batch of instances the forward pass produces, for each modality:

* instance-level embeddings (attention-pooled encoder output),
* consensus-level embeddings plus their concept distributions,
* fused embeddings combining the two levels.

Each modality's items are padded into one :class:`PaddedBatch`, so training
and inference run the same batched, masked code; a single query is a batch
of one. Training compares image-side and text-side embeddings level by
level; retrieval scores whichever level the config selects (fused by
default). Inference encodes and attention-pools items in length-sorted
chunks bounded by padded size (:data:`CHUNK_CAP`), collects each
modality's pooled rows in one array, runs the consensus head, fusion and
normalization once on it, and returns rows in the order given.

A saved model is two files. The checkpoint is little-endian binary: magic
``MHCV``, version u32, then one record per tensor (name length u32 +
UTF-8 name, rank u32, dims u64 each, float64 values) until end of file;
round-trips are bit exact. A JSON sidecar beside it (``.meta.json``)
holds the config, vocabulary and concept list. Loading reads each tensor
once, straight from the file into the array the loaded model keeps: no
file buffer, no random initial values, no second copy.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import MhsaParams, attend_and_pool
from .autodiff import Tensor, l2_normalize_rows, matmul, transpose
from .config import TrainConfig, format_config_text, parse_config_text
from .consensus import ConceptGraph, build_graph, consensus_embed, gcn_forward
from .data import STOPWORDS, BinaryReader, Dataset, InstancePair, Vocabulary, read_text
from .encoders import GruGates, PaddedBatch, encode_image, encode_text, uniform_init
from .evaluation import RETRIEVAL_LEVELS
from .fusion import TENSOR_NAMES, FusionParams, fuse
from .losses import LossTerms, contrastive_loss, kl_loss, total_loss

__all__ = ["Model", "BatchEmbeddings", "model_for", "save_model", "load_model",
           "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"MHCV"
CHECKPOINT_VERSION = 1

# Inference embeds items in length-sorted chunks. A chunk of b items padded
# to n positions holds about b*n*(d + h*n) floats in each attention layer:
# (b, n, d) activations plus h score matrices of n x n per item. CHUNK_CAP
# bounds that product, so the working set follows padded size, not item
# count (a cap on b*n**2 alone once let 277 six-token captions share a
# chunk). Measured on the bench gallery workload (seed 1: 64 images of
# 10-100 regions, 320 captions of 6-19 tokens, d = 128, h = 8) on a 2-core
# Xeon host:
#
#   cap      chunks (image/text)  evaluate  tracemalloc peak  RSS, 150 passes
#   30,000   51 / 35              57.7 ms   1.99 MB           96.2 MB
#   60,000   42 / 17              48.1 ms   1.98 MB           95.9 MB
#   120,000  29 /  9              42.8 ms   3.06 MB           96.6 MB
#
# At equal pass counts RSS does not follow the cap. Up to 60,000 a wider
# chunk ran faster with no rise in evaluate's peak; 120,000 was 11 % faster
# again but peaked 1.1 MB higher. Here an image of 54 or more regions goes
# alone, 11 captions of 19 tokens share a chunk, and a canonical split (16
# items of 6) is one chunk.
CHUNK_CAP = 60_000


@dataclass
class BatchEmbeddings:
    """Stacked per-level batch matrices; rows align across all fields."""

    v_image: Tensor   # (B, d) instance level, unnormalized
    v_text: Tensor
    c_image: Tensor   # (B, d) consensus level, unit rows
    c_text: Tensor
    f_image: Tensor   # (B, d) or (B, 2d) fused level, unit rows
    f_text: Tensor
    p_image: Tensor   # (B, K) concept distributions
    p_text: Tensor


class Model:
    """Bundles config, vocabulary, concept graph, and every learnable tensor.

    :meth:`named_parameters` gives each tensor its checkpoint name, in the
    order a checkpoint stores them.
    """

    def __init__(self, config: TrainConfig, vocab: Vocabulary, graph: ConceptGraph,
                 rng: np.random.Generator | None = None):
        config.validate()
        if graph.concept_embeddings.shape[1] != config.embed_dim:
            raise ValueError(f"graph embeds dim {graph.concept_embeddings.shape[1]} "
                             f"!= embed_dim {config.embed_dim}")
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        d, f, k = config.embed_dim, config.feature_dim, graph.size
        self.config = config
        self.vocab = vocab
        self.graph = graph
        # the draw order is fixed: a seed always gives the same model
        self.word_embedding = uniform_init(rng, (len(vocab), d), d)
        self.gru_forward = GruGates.init(rng, d, d // 2)
        self.gru_backward = GruGates.init(rng, d, d // 2)
        self.image_proj = uniform_init(rng, (f, d), f)
        self.image_bias = Tensor(np.zeros(d))
        self.attn_image = MhsaParams.init(rng, d, config.heads)
        self.attn_text = MhsaParams.init(rng, d, config.heads)
        self.fusion = FusionParams.init(rng, d, config.fuse_type)
        self.gcn_w0 = uniform_init(rng, (d, d), d)
        self.gcn_w1 = uniform_init(rng, (d, d), d)
        # (d, K) concept predictors of the consensus heads
        self.predictor_image = uniform_init(rng, (d, k), d)
        self.predictor_text = uniform_init(rng, (d, k), d)

    def named_parameters(self) -> dict[str, Tensor]:
        return {
            "encoder.word_embedding": self.word_embedding,
            **self.gru_forward.named_parameters("encoder.gru_forward"),
            **self.gru_backward.named_parameters("encoder.gru_backward"),
            "encoder.image_proj": self.image_proj,
            "encoder.image_bias": self.image_bias,
            **self.attn_image.named_parameters("attention_image"),
            **self.attn_text.named_parameters("attention_text"),
            **self.fusion.named_parameters("fusion"),
            "consensus.concept_embeddings": self.graph.concept_embeddings,
            "consensus.gcn.w0": self.gcn_w0,
            "consensus.gcn.w1": self.gcn_w1,
            "consensus.head_image.predictor": self.predictor_image,
            "consensus.head_text.predictor": self.predictor_text,
        }

    def state_tensors(self) -> dict[str, Tensor]:
        """Everything a checkpoint stores: parameters plus the fixed adjacency."""
        out = self.named_parameters()
        out["consensus.adjacency"] = Tensor(self.graph.adjacency)
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore parameter values (and adjacency) from checkpoint arrays.

        Once every name and shape is known to be this model's, each array
        becomes the tensor's data itself. One that is float64, C-contiguous,
        aligned, writable and owns its data, as :func:`load_checkpoint`
        returns them, is kept without a copy; any other is copied first.
        """
        own = self.state_tensors()
        missing = own.keys() - arrays.keys()
        if missing:
            raise ValueError(f"checkpoint missing tensors: {sorted(missing)[:5]}")
        extra = arrays.keys() - own.keys()
        # older checkpoints hold every fusion strategy's tensor, used or not
        every_fusion = {f"fusion.{n}" for n in TENSOR_NAMES.values()}
        if every_fusion <= arrays.keys():
            extra -= every_fusion
        if extra:
            raise ValueError(f"checkpoint has unknown tensors: {sorted(extra)[:5]}")
        params = self.named_parameters()
        for name, tensor in params.items():
            if arrays[name].shape != tensor.shape:
                raise ValueError(f"checkpoint tensor '{name}' shape {arrays[name].shape} "
                                 f"!= model shape {tensor.shape}")
        adj = arrays["consensus.adjacency"]
        if adj.shape != self.graph.adjacency.shape:
            raise ValueError("checkpoint adjacency shape mismatch")
        for name, tensor in params.items():
            tensor.data = np.require(arrays[name], np.float64, "CAWO")
        self.graph.adjacency = np.require(adj, np.float64, "CAWO")

    # ------------------------------------------------------------------
    # forward passes

    def _image_pooled(self, regions: list[np.ndarray]) -> Tensor:
        batch = PaddedBatch.of(regions)
        seq = encode_image(batch, self.image_proj, self.image_bias)
        return attend_and_pool(seq, self.attn_image, batch.mask)

    def _text_pooled(self, token_ids: list[list[int]]) -> Tensor:
        batch = PaddedBatch.of(token_ids)
        seq = encode_text(batch, self.word_embedding, self.gru_forward, self.gru_backward)
        return attend_and_pool(seq, self.attn_text, batch.mask)

    def batch_forward(self, pairs: list[InstancePair]) -> BatchEmbeddings:
        """All three embedding levels for a batch, ready for the losses."""
        gcn_out = gcn_forward(self.graph, self.gcn_w0, self.gcn_w1)
        vi = self._image_pooled([p.regions for p in pairs])
        ci, pi = consensus_embed(vi, gcn_out, self.predictor_image)
        fi = fuse(vi, ci, self.fusion)
        vt = self._text_pooled([p.token_ids for p in pairs])
        ct, pt = consensus_embed(vt, gcn_out, self.predictor_text)
        ft = fuse(vt, ct, self.fusion)
        return BatchEmbeddings(v_image=vi, v_text=vt, c_image=ci, c_text=ct,
                               f_image=fi, f_text=ft, p_image=pi, p_text=pt)

    def loss_terms(self, pairs: list[InstancePair]) -> LossTerms:
        """The four dynamically weighted training terms for one batch."""
        cfg = self.config
        batch = self.batch_forward(pairs)
        s_inst = matmul(l2_normalize_rows(batch.v_image),
                        transpose(l2_normalize_rows(batch.v_text)))
        s_cons = matmul(batch.c_image, transpose(batch.c_text))
        s_fused = matmul(batch.f_image, transpose(batch.f_text))
        images = [p.image_id for p in pairs]
        l_inst = contrastive_loss(s_inst, cfg.margin, cfg.contrastive_mode, images)
        l_cons = contrastive_loss(s_cons, cfg.margin, cfg.contrastive_mode, images)
        l_fused = contrastive_loss(s_fused, cfg.margin, cfg.contrastive_mode, images)
        l_kl = kl_loss(batch.p_text, batch.p_image)
        return total_loss(l_inst, l_cons, l_fused, l_kl, cfg.base_weights,
                          cfg.invert_dynamic_weight)

    # ------------------------------------------------------------------
    # inference embeddings (no tape, plain arrays)

    def embed_image(self, regions: np.ndarray, level: str = "fused") -> np.ndarray:
        return self.embed([regions], [], level)[0][0]

    def embed_caption(self, token_ids: list[int], level: str = "fused") -> np.ndarray:
        return self.embed([], [token_ids], level)[1][0]

    def embed(self, images: list[np.ndarray], captions: list[list[int]],
              level: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Rows for region arrays and token-id lists, in the order given.

        Returns (image rows (len(images), d'), caption rows
        (len(captions), d')) at ``level`` (the config's if None), where d'
        is the level's width: 2d for fused ``concat`` rows, d otherwise. An
        empty side gives (0, d') rows.
        """
        level = level if level is not None else self.config.retrieval_level
        if level not in RETRIEVAL_LEVELS:
            raise ValueError(f"unknown retrieval level '{level}' "
                             f"(one of {RETRIEVAL_LEVELS})")
        gcn_out = gcn_forward(self.graph, self.gcn_w0, self.gcn_w1)
        return (self._embed_rows(images, self._image_pooled, self.predictor_image, level, gcn_out),
                self._embed_rows(captions, self._text_pooled, self.predictor_text, level, gcn_out))

    def _embed_rows(self, items: list, pooled_of, predictor: Tensor, level: str,
                    gcn_out: Tensor) -> np.ndarray:
        """Each chunk runs only its encoder and attention. The rest of the
        level is row by row, so it runs once on the chunks' pooled rows."""
        cfg = self.config
        if not items:
            # fused concat rows are [instance; consensus], 2d wide
            width = cfg.embed_dim * (2 if level == "fused" and cfg.fuse_type == "concat" else 1)
            return np.empty((0, width))
        chunks = _chunks([len(item) for item in items], cfg.embed_dim, cfg.heads)
        pooled = [pooled_of([items[i] for i in chunk]) for chunk in chunks]
        # one chunk's rows are used as they are, without a copy
        v = pooled[0] if len(pooled) == 1 else Tensor.wrap(
            np.concatenate([p.data for p in pooled]))
        if level == "instance":
            out = l2_normalize_rows(v)
        else:
            out, _ = consensus_embed(v, gcn_out, predictor)
            if level == "fused":
                out = fuse(v, out, self.fusion)
        rows = np.empty_like(out.data)
        rows[[i for chunk in chunks for i in chunk]] = out.data
        return rows

    def embed_dataset(self, dataset: Dataset, level: str | None = None):
        """Embeddings for every image and caption of a split.

        Returns (img_embs (N, d'), txt_embs (N_t, d'), image_ids,
        caption_owner) where caption_owner[j] is the row in image_ids of
        caption j's image.
        """
        image_ids = dataset.image_ids
        img_rows, txt_rows = self.embed(
            [dataset.images[i] for i in image_ids],
            [self.vocab.encode(tokens) for _, _, tokens in dataset.captions], level)
        img_pos = {img: i for i, img in enumerate(image_ids)}
        owner = np.array([img_pos[img] for _, img, _ in dataset.captions])
        return img_rows, txt_rows, image_ids, owner


def model_for(config: TrainConfig, train: Dataset) -> Model:
    """The untrained model ``mhcvse train`` fits: a concept graph from
    ``train``'s captions, stopwords left out, and the model on its vocabulary.
    The two are seeded apart, each from ``config.seed``, so a change to the
    concept list does not reshuffle the encoder initialization."""
    graph = build_graph((tokens for _, _, tokens in train.captions),
                        config.concepts, config.embed_dim,
                        np.random.default_rng(config.seed), STOPWORDS)
    return Model(config, train.vocab, graph)


def _chunks(lengths: list[int], width: int, heads: int) -> list[list[int]]:
    """Item indices in length-sorted chunks of b items padded to n with
    b*n*(width + heads*n) <= CHUNK_CAP; an item over the cap goes alone."""
    chunks: list[list[int]] = []
    for i in np.argsort(lengths, kind="stable").tolist():
        n = lengths[i]
        if chunks and (len(chunks[-1]) + 1) * n * (width + heads * n) <= CHUNK_CAP:
            chunks[-1].append(i)
        else:
            chunks.append([i])
    return chunks


# ---------------------------------------------------------------------------
# checkpoint format

def save_checkpoint(path, tensors: dict[str, Tensor]) -> None:
    """Named float64 tensors in the MHCV binary layout."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, tensor in tensors.items():
            # asarray, not ascontiguousarray: the latter upgrades rank-0 to
            # rank-1 and would corrupt scalar parameters
            arr = np.asarray(tensor.data if isinstance(tensor, Tensor) else tensor,
                             dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read the MHCV layout back; values are bit-exact float64 arrays.

    A file is outside input, so a name that is not UTF-8 or comes twice
    and a value that is not finite are refused, naming the file and the
    tensor.
    """
    out: dict[str, np.ndarray] = {}
    with BinaryReader(path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as reader:
        while reader.left:
            if reader.left < 4:
                raise reader.error("truncated record header")
            (name_len,) = reader.unpack("<I", "name length")
            raw_name = reader.take(name_len, "name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise reader.error(f"the name of tensor {len(out) + 1} is not "
                                   "valid UTF-8") from None
            if name in out:
                raise reader.error(f"tensor '{name}' appears twice")
            (rank,) = reader.unpack("<I", f"rank of '{name}'")
            shape = reader.unpack(f"<{rank}Q", f"dims of '{name}'")
            values = reader.array(shape, "<f8", f"values of '{name}'")
            if not np.isfinite(values).all():
                raise reader.error(f"tensor '{name}' has non-finite values")
            out[name] = values
    return out


def save_model(checkpoint_path, model: Model) -> None:
    """Binary checkpoint plus a JSON sidecar with vocab, concepts, config.

    A tensor with a non-finite value, which ``load_checkpoint`` would
    refuse, raises ``ValueError`` naming it before either file is opened.
    """
    checkpoint_path = Path(checkpoint_path)
    tensors = model.state_tensors()
    for name, tensor in tensors.items():
        if not np.isfinite(tensor.data).all():
            raise ValueError(f"cannot save checkpoint {checkpoint_path}: "
                             f"tensor '{name}' has non-finite values")
    save_checkpoint(checkpoint_path, tensors)
    sidecar = {
        "config": format_config_text(model.config),
        "vocab": model.vocab.tokens,
        "concepts": model.graph.concepts,
        "frequencies": model.graph.frequencies,
    }
    Path(f"{checkpoint_path}.meta.json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def load_model(checkpoint_path) -> Model:
    """Rebuild a model from a checkpoint and its sidecar."""
    checkpoint_path = Path(checkpoint_path)
    sidecar_path = Path(f"{checkpoint_path}.meta.json")
    if not sidecar_path.exists():
        raise ValueError(f"missing checkpoint sidecar {sidecar_path}")
    try:
        sidecar = json.loads(read_text(sidecar_path, "checkpoint sidecar"))
    except json.JSONDecodeError as err:
        raise ValueError(f"checkpoint sidecar {sidecar_path}: invalid JSON ({err})") from None
    if not isinstance(sidecar, dict):
        raise ValueError(f"checkpoint sidecar {sidecar_path}: expected a JSON object")
    for key, kind in (("config", str), ("vocab", list), ("concepts", list),
                      ("frequencies", list)):
        if key not in sidecar:
            raise ValueError(f"checkpoint sidecar {sidecar_path}: missing key '{key}'")
        if not isinstance(sidecar[key], kind):
            raise ValueError(f"checkpoint sidecar {sidecar_path}: key '{key}' must be "
                             f"a JSON {'string' if kind is str else 'list'}")
    if len(sidecar["frequencies"]) != len(sidecar["concepts"]):
        raise ValueError(f"checkpoint sidecar {sidecar_path}: 'frequencies' and "
                         "'concepts' differ in length")
    for key in ("vocab", "concepts"):
        seen: set[str] = set()
        for entry in sidecar[key]:
            if not isinstance(entry, str):
                raise ValueError(f"checkpoint sidecar {sidecar_path}: key '{key}' "
                                 f"holds {entry!r}, not a string")
            if entry in seen:
                raise ValueError(f"checkpoint sidecar {sidecar_path}: key '{key}' "
                                 f"repeats {entry!r}")
            seen.add(entry)
    for count in sidecar["frequencies"]:
        # bool is an int subclass, but true is not a count
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(f"checkpoint sidecar {sidecar_path}: key 'frequencies' "
                             f"holds {count!r}, not a non-negative integer")
    try:
        cfg = parse_config_text(sidecar["config"])
    except ValueError as err:
        raise ValueError(f"checkpoint sidecar {sidecar_path}: key 'config': {err}") from None
    try:
        vocab = Vocabulary.from_tokens(sidecar["vocab"])
    except ValueError as err:
        raise ValueError(f"checkpoint sidecar {sidecar_path}: key 'vocab': {err}") from None
    arrays = load_checkpoint(checkpoint_path)
    missing = {"consensus.adjacency", "consensus.concept_embeddings"} - arrays.keys()
    if missing:
        raise ValueError(f"checkpoint {checkpoint_path}: missing tensors {sorted(missing)}")
    try:
        graph = ConceptGraph(
            sidecar["concepts"], sidecar["frequencies"], arrays["consensus.adjacency"],
            Tensor.wrap(arrays["consensus.concept_embeddings"]))
        model = Model(cfg, vocab, graph, rng=_Unfilled())
        model.load_state(arrays)
    except ValueError as err:
        raise ValueError(f"checkpoint {checkpoint_path} does not match its sidecar "
                         f"{sidecar_path}: {err}") from None
    return model


class _Unfilled:
    """Init generator for a model whose every value a checkpoint is about
    to replace: each parameter starts as a read-only view of eight zero
    bytes with every stride 0, which allocates nothing and draws no
    random value."""

    def uniform(self, low: float, high: float, size: tuple[int, ...]) -> np.ndarray:
        return np.ndarray(size, buffer=bytes(8), strides=(0,) * len(size))
