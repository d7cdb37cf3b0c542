"""Modality encoders: linear projection of region features and a Bi-GRU.

Both encoders emit sequences in the shared embedding width d. The image
side projects each precomputed region-feature row; the text side runs a
bidirectional GRU over learned word embeddings, concatenating the two
directions (each of width d/2) per token. Word embeddings are trained from
scratch.

Both work on a :class:`PaddedBatch`: B items of different lengths padded
with zeros to the longest, plus a (B, n_max) mask of the real positions.
The image side is then one (B·M, F) @ (F, d) product; the GRU steps a
(B, d/2) state through the padded token slots, and a sequence that has
ended holds its state, so each backward pass starts at its own last token
from a zero state. A single image or caption is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor, add, concat, gather, index, matmul, mul, reshape, sigmoid, sub,
    tanh, where,
)

__all__ = [
    "PaddedBatch", "GruGates", "EncoderParams",
    "encode_image", "gru_step", "encode_text", "uniform_init",
]


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 fan_in: int) -> Tensor:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


@dataclass
class PaddedBatch:
    """B items of different lengths, padded with zeros along their first axis.

    ``values`` is (B, n_max, ...) and ``mask`` (B, n_max) is True on each
    item's real positions, which come first.
    """

    values: np.ndarray
    mask: np.ndarray

    @classmethod
    def of(cls, items) -> "PaddedBatch":
        arrays = [np.asarray(item) for item in items]
        if not arrays:
            raise ValueError("a batch needs at least one item")
        if any(a.ndim < 1 or len(a) < 1 for a in arrays):
            raise ValueError("every item of a batch needs at least one position")
        tail = arrays[0].shape[1:]
        if any(a.shape[1:] != tail for a in arrays):
            raise ValueError("batch items differ in shape beyond their length")
        lengths = np.array([len(a) for a in arrays])
        values = np.zeros((len(arrays), lengths.max()) + tail,
                          dtype=np.result_type(*arrays))
        for i, a in enumerate(arrays):
            values[i, :len(a)] = a
        return cls(values, np.arange(lengths.max()) < lengths[:, None])

    def __len__(self) -> int:
        return len(self.values)


class GruGates:
    """Gate weights for one GRU direction (update z, reset r, candidate h)."""

    def __init__(self, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h):
        self.w_z, self.u_z, self.b_z = w_z, u_z, b_z
        self.w_r, self.u_r, self.b_r = w_r, u_r, b_r
        self.w_h, self.u_h, self.b_h = w_h, u_h, b_h

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_hidden: int) -> "GruGates":
        def gate():
            return (uniform_init(rng, (d_in, d_hidden), d_in),
                    uniform_init(rng, (d_hidden, d_hidden), d_hidden),
                    Tensor(np.zeros(d_hidden)))
        w_z, u_z, b_z = gate()
        w_r, u_r, b_r = gate()
        w_h, u_h, b_h = gate()
        return cls(w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w_z": self.w_z, f"{prefix}.u_z": self.u_z, f"{prefix}.b_z": self.b_z,
            f"{prefix}.w_r": self.w_r, f"{prefix}.u_r": self.u_r, f"{prefix}.b_r": self.b_r,
            f"{prefix}.w_h": self.w_h, f"{prefix}.u_h": self.u_h, f"{prefix}.b_h": self.b_h,
        }


class EncoderParams:
    """All encoder weights: word embeddings, both GRU directions, image projection."""

    def __init__(self, word_embedding: Tensor, gru_forward: GruGates,
                 gru_backward: GruGates, image_proj: Tensor, image_bias: Tensor):
        self.word_embedding = word_embedding
        self.gru_forward = gru_forward
        self.gru_backward = gru_backward
        self.image_proj = image_proj
        self.image_bias = image_bias

    @classmethod
    def init(cls, rng: np.random.Generator, vocab_size: int, feature_dim: int,
             embed_dim: int) -> "EncoderParams":
        if embed_dim % 2 != 0:
            raise ValueError(f"embed_dim must be even for a Bi-GRU, got {embed_dim}")
        d_hidden = embed_dim // 2
        return cls(
            word_embedding=uniform_init(rng, (vocab_size, embed_dim), embed_dim),
            gru_forward=GruGates.init(rng, embed_dim, d_hidden),
            gru_backward=GruGates.init(rng, embed_dim, d_hidden),
            image_proj=uniform_init(rng, (feature_dim, embed_dim), feature_dim),
            image_bias=Tensor(np.zeros(embed_dim)),
        )

    def named_parameters(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out = {f"{prefix}.word_embedding": self.word_embedding}
        out.update(self.gru_forward.named_parameters(f"{prefix}.gru_forward"))
        out.update(self.gru_backward.named_parameters(f"{prefix}.gru_backward"))
        out[f"{prefix}.image_proj"] = self.image_proj
        out[f"{prefix}.image_bias"] = self.image_bias
        return out


def encode_image(features: PaddedBatch, params: EncoderParams) -> Tensor:
    """Project region features into the embedding space.

    A padded batch (B, M, F) gives (B, M, d), as one (B·M, F) @ (F, d)
    product. Padded rows come out as the bias alone and are left to the
    caller's mask.
    """
    regions = features.values
    if regions.ndim != 3 or regions.shape[2] != params.image_proj.shape[0]:
        raise ValueError(f"region batch must be (B, M, {params.image_proj.shape[0]}), "
                         f"got {regions.shape}")
    return add(matmul(Tensor(regions), params.image_proj), params.image_bias)


def gru_step(x_t: Tensor, h_prev: Tensor, gates: GruGates) -> Tensor:
    """One GRU step over rows: h_t = (1 - z_t) * h_prev + z_t * h_cand.

    x_t is (B, d_in) and h_prev (B, d_hidden).
    """
    if x_t.ndim != 2 or h_prev.ndim != 2:
        raise ValueError(f"gru_step needs (B, d) rows, got {x_t.shape} and {h_prev.shape}")
    z = sigmoid(add(add(matmul(x_t, gates.w_z), matmul(h_prev, gates.u_z)), gates.b_z))
    r = sigmoid(add(add(matmul(x_t, gates.w_r), matmul(h_prev, gates.u_r)), gates.b_r))
    cand = tanh(add(add(matmul(x_t, gates.w_h), matmul(mul(r, h_prev), gates.u_h)),
                    gates.b_h))
    return add(mul(sub(1.0, z), h_prev), mul(z, cand))


def _run_direction(steps: list[Tensor], mask: np.ndarray, gates: GruGates,
                   reverse: bool) -> list[Tensor]:
    """States (B, d_hidden) per token slot; a row past its end holds its state."""
    h = Tensor(np.zeros((mask.shape[0], gates.u_z.shape[0])))
    states = [None] * len(steps)
    for t in (range(len(steps) - 1, -1, -1) if reverse else range(len(steps))):
        h_next = gru_step(steps[t], h, gates)
        live = mask[:, t]
        h = h_next if live.all() else where(live[:, None], h_next, h)
        states[t] = h
    return states


def encode_text(caption: PaddedBatch, params: EncoderParams) -> Tensor:
    """Bi-GRU over token ids.

    For a padded batch of ids (B, L) returns the per-token states (B, L, d).
    Each token state is the concatenation of the forward state at t and the
    backward state at t; the states at padded slots are left to the
    caller's mask.
    """
    ids, mask = caption.values, caption.mask
    if ids.ndim != 2:
        raise ValueError(f"token batch must be (B, L) ids, got {ids.shape}")
    vocab_size = params.word_embedding.shape[0]
    bad = (ids < 0) | (ids >= vocab_size)
    if np.any(bad & mask):
        raise ValueError(f"token id {ids[bad & mask][0]} outside vocabulary "
                         f"of {vocab_size}")
    # time-major, so that each step's (B, d) input is one slab
    embedded = gather(params.word_embedding, ids.T)
    steps = [index(embedded, t) for t in range(ids.shape[1])]
    fwd = _run_direction(steps, mask, params.gru_forward, reverse=False)
    bwd = _run_direction(steps, mask, params.gru_backward, reverse=True)
    b, length = ids.shape
    return reshape(concat([h for pair in zip(fwd, bwd) for h in pair]), (b, length, -1))
