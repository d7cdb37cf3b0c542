"""The full matching model: encoders, per-modality self-attention, consensus
GCN, and per-modality fusion of the instance and consensus levels.

Per instance the forward pass produces, for each modality:

* an instance-level embedding (attention-pooled encoder output),
* a consensus-level embedding plus its concept distribution,
* a fused embedding combining the two levels.

Training compares image-side and text-side embeddings level by level;
retrieval scores whichever level the config selects (fused by default).

A saved model is two files. The checkpoint is little-endian binary: magic
``MHCV``, version u32, then one record per tensor (name length u32 +
UTF-8 name, rank u32, dims u64 each, float64 values) until end of file;
round-trips are bit exact. A JSON sidecar beside it (``.meta.json``)
holds the config, vocabulary and concept list.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import MhsaParams, attend_and_pool
from .autodiff import Tensor, l2_normalize_rows, matmul, stack_rows, transpose
from .config import TrainConfig, format_config_text, parse_config_text
from .consensus import (ConceptGraph, ConsensusHead, GcnParams, consensus_embed,
                        gcn_forward)
from .data import BinaryReader, Dataset, InstancePair, Vocabulary
from .encoders import Caption, EncoderParams, RegionFeatures, encode_image, encode_text
from .evaluation import RETRIEVAL_LEVELS
from .fusion import FusionParams, fuse
from .losses import LossTerms, contrastive_loss, kl_loss, total_loss

__all__ = ["Model", "BatchEmbeddings", "save_model", "load_model",
           "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"MHCV"
CHECKPOINT_VERSION = 1


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
    """Bundles config, vocabulary, concept graph, and every learnable tensor."""

    def __init__(self, config: TrainConfig, vocab: Vocabulary, graph: ConceptGraph,
                 rng: np.random.Generator | None = None):
        config.validate()
        if graph.concept_embeddings.shape[1] != config.embed_dim:
            raise ValueError(f"graph embeds dim {graph.concept_embeddings.shape[1]} "
                             f"!= embed_dim {config.embed_dim}")
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        d = config.embed_dim
        self.config = config
        self.vocab = vocab
        self.graph = graph
        self.encoder = EncoderParams.init(rng, len(vocab), config.feature_dim, d)
        self.attn_image = MhsaParams.init(rng, d, config.heads)
        self.attn_text = MhsaParams.init(rng, d, config.heads)
        self.fusion = FusionParams.init(rng, d, config.fuse_type)
        self.gcn = GcnParams.init(rng, d, config.gcn_form)
        self.head_image = ConsensusHead.init(rng, d, graph.size)
        self.head_text = ConsensusHead.init(rng, d, graph.size)

    def named_parameters(self) -> dict[str, Tensor]:
        out = self.encoder.named_parameters("encoder")
        out.update(self.attn_image.named_parameters("attention_image"))
        out.update(self.attn_text.named_parameters("attention_text"))
        out.update(self.fusion.named_parameters("fusion"))
        out["consensus.concept_embeddings"] = self.graph.concept_embeddings
        out.update(self.gcn.named_parameters("consensus.gcn"))
        out.update(self.head_image.named_parameters("consensus.head_image"))
        out.update(self.head_text.named_parameters("consensus.head_text"))
        return out

    def state_tensors(self) -> dict[str, Tensor]:
        """Everything a checkpoint stores: parameters plus the fixed adjacency."""
        out = self.named_parameters()
        out["consensus.adjacency"] = Tensor(self.graph.adjacency)
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore parameter values (and adjacency) from checkpoint arrays."""
        own = self.state_tensors()
        missing = own.keys() - arrays.keys()
        if missing:
            raise ValueError(f"checkpoint missing tensors: {sorted(missing)[:5]}")
        extra = arrays.keys() - own.keys()
        if extra:
            raise ValueError(f"checkpoint has unknown tensors: {sorted(extra)[:5]}")
        for name, tensor in self.named_parameters().items():
            arr = arrays[name]
            if arr.shape != tensor.data.shape:
                raise ValueError(f"checkpoint tensor '{name}' shape {arr.shape} != "
                                 f"model shape {tensor.data.shape}")
            tensor.data[...] = arr
        adj = arrays["consensus.adjacency"]
        if adj.shape != self.graph.adjacency.shape:
            raise ValueError("checkpoint adjacency shape mismatch")
        self.graph.adjacency[...] = adj

    # ------------------------------------------------------------------
    # forward passes

    def _image_levels(self, regions: np.ndarray, gcn_out: Tensor):
        seq = encode_image(RegionFeatures(regions), self.encoder)
        v = attend_and_pool(seq, self.attn_image)
        c, p = consensus_embed(v, gcn_out, self.head_image)
        f = fuse(v, c, self.fusion).vector
        return v, c, f, p

    def _text_levels(self, token_ids: list[int], gcn_out: Tensor):
        seq, _ = encode_text(Caption(token_ids), self.encoder)
        v = attend_and_pool(seq, self.attn_text)
        c, p = consensus_embed(v, gcn_out, self.head_text)
        f = fuse(v, c, self.fusion).vector
        return v, c, f, p

    def batch_forward(self, pairs: list[InstancePair]) -> BatchEmbeddings:
        """All three embedding levels for a batch, ready for the losses."""
        gcn_out = gcn_forward(self.graph, self.gcn)
        vi, vt, ci, ct, fi, ft, pi, pt = [], [], [], [], [], [], [], []
        for pair in pairs:
            v, c, f, p = self._image_levels(pair.regions, gcn_out)
            vi.append(v); ci.append(c); fi.append(f); pi.append(p)
            v, c, f, p = self._text_levels(pair.token_ids, gcn_out)
            vt.append(v); ct.append(c); ft.append(f); pt.append(p)
        return BatchEmbeddings(
            v_image=stack_rows(vi), v_text=stack_rows(vt),
            c_image=stack_rows(ci), c_text=stack_rows(ct),
            f_image=stack_rows(fi), f_text=stack_rows(ft),
            p_image=stack_rows(pi), p_text=stack_rows(pt),
        )

    def loss_terms(self, pairs: list[InstancePair]) -> LossTerms:
        """The four dynamically weighted training terms for one batch."""
        cfg = self.config
        batch = self.batch_forward(pairs)
        s_inst = matmul(l2_normalize_rows(batch.v_image),
                        transpose(l2_normalize_rows(batch.v_text)))
        s_cons = matmul(batch.c_image, transpose(batch.c_text))
        s_fused = matmul(batch.f_image, transpose(batch.f_text))
        l_inst = contrastive_loss(s_inst, cfg.margin, cfg.contrastive_mode)
        l_cons = contrastive_loss(s_cons, cfg.margin, cfg.contrastive_mode)
        l_fused = contrastive_loss(s_fused, cfg.margin, cfg.contrastive_mode)
        l_kl = kl_loss(batch.p_text, batch.p_image)
        return total_loss(l_inst, l_cons, l_fused, l_kl, cfg.base_weights,
                          cfg.invert_dynamic_weight)

    # ------------------------------------------------------------------
    # inference embeddings (no tape, plain arrays)

    def embed_image(self, regions: np.ndarray, level: str = "fused") -> np.ndarray:
        gcn_out = gcn_forward(self.graph, self.gcn)
        return self._level_vector(self._image_levels(regions, gcn_out), level)

    def embed_caption(self, token_ids: list[int], level: str = "fused") -> np.ndarray:
        gcn_out = gcn_forward(self.graph, self.gcn)
        return self._level_vector(self._text_levels(token_ids, gcn_out), level)

    @staticmethod
    def _level_vector(levels, level: str) -> np.ndarray:
        if level not in RETRIEVAL_LEVELS:
            raise ValueError(f"unknown retrieval level '{level}' "
                             f"(one of {RETRIEVAL_LEVELS})")
        v, c, f, _ = levels
        if level == "instance":
            return l2_normalize_rows(v).data
        return (f if level == "fused" else c).data

    def embed_dataset(self, dataset: Dataset, level: str | None = None):
        """Embeddings for every image and caption of a split.

        Returns (img_embs (N, d'), txt_embs (N_t, d'), image_ids,
        caption_owner) where caption_owner[j] is the row in image_ids of
        caption j's image.
        """
        level = level if level is not None else self.config.retrieval_level
        gcn_out = gcn_forward(self.graph, self.gcn)
        image_ids = dataset.image_ids
        img_rows = [self._level_vector(
            self._image_levels(dataset.images[i], gcn_out), level)
            for i in image_ids]
        txt_rows = [self._level_vector(
            self._text_levels(self.vocab.encode(tokens), gcn_out), level)
            for _, _, tokens in dataset.captions]
        img_pos = {img: i for i, img in enumerate(image_ids)}
        owner = np.array([img_pos[img] for _, img, _ in dataset.captions])
        return np.stack(img_rows), np.stack(txt_rows), image_ids, owner


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
    """Read the MHCV layout back; values are bit-exact float64 arrays."""
    reader = BinaryReader(path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    out: dict[str, np.ndarray] = {}
    while reader.left:
        if reader.left < 4:
            raise reader.error("truncated record header")
        (name_len,) = reader.unpack("<I", "name length")
        name = bytes(reader.take(name_len, "name")).decode("utf-8")
        (rank,) = reader.unpack("<I", f"rank of '{name}'")
        shape = reader.unpack(f"<{rank}Q", f"dims of '{name}'")
        raw = reader.take(8 * math.prod(shape), f"values of '{name}'")
        out[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return out


def save_model(checkpoint_path, model: Model) -> None:
    """Binary checkpoint plus a JSON sidecar with vocab, concepts, config."""
    checkpoint_path = Path(checkpoint_path)
    save_checkpoint(checkpoint_path, model.state_tensors())
    sidecar = {
        "config": format_config_text(model.config),
        "vocab": model.vocab.tokens,
        "concepts": model.graph.concepts,
        "frequencies": model.graph.frequencies,
    }
    Path(f"{checkpoint_path}.meta.json").write_text(
        json.dumps(sidecar, indent=2) + "\n")


def load_model(checkpoint_path) -> Model:
    """Rebuild a model from a checkpoint and its sidecar."""
    checkpoint_path = Path(checkpoint_path)
    sidecar_path = Path(f"{checkpoint_path}.meta.json")
    if not sidecar_path.exists():
        raise ValueError(f"missing checkpoint sidecar {sidecar_path}")
    sidecar = json.loads(sidecar_path.read_text())
    cfg = parse_config_text(sidecar["config"])
    vocab = Vocabulary.from_tokens(sidecar["vocab"])
    arrays = load_checkpoint(checkpoint_path)
    graph = ConceptGraph(
        list(sidecar["concepts"]), list(sidecar["frequencies"]),
        arrays["consensus.adjacency"],
        Tensor(arrays["consensus.concept_embeddings"]))
    model = Model(cfg, vocab, graph)
    model.load_state(arrays)
    return model
