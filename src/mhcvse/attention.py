"""Multi-head scaled dot-product self-attention with mean pooling.

One module per modality sits on top of the encoder output (region rows or
token states) and pools the attended sequence into a single instance
embedding. No positional encodings anywhere, so the whole stack is
permutation equivariant and the pooled vector is permutation invariant.

Everything runs on padded batches (B, n, d) with a (B, n) mask of real
rows. The heads are folded into the batch axis, (B·h, n, d_k), so one
batched product serves every head; padded rows are masked out as keys and
left out of the mean pool. A single (n, d) sequence is a batch of one,
(1, n, d).
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Tensor, concat, div_scalar, masked_mean, matmul, merge_heads,
    softmax_rows, split_heads, transpose,
)
from .encoders import uniform_init

__all__ = [
    "MhsaParams", "attention_scores", "attention_weights",
    "scaled_dot_attention", "multi_head", "attend_and_pool",
    "head_attention_weights",
]


class MhsaParams:
    """Per-head projections W_q, W_k, W_v of shape (d, d_k) and the output
    map W_out of shape (h * d_k, d), with d_k = d // h exactly."""

    def __init__(self, heads: list[tuple[Tensor, Tensor, Tensor]], w_out: Tensor):
        self.heads = heads
        self.w_out = w_out

    @classmethod
    def init(cls, rng: np.random.Generator, d: int, h: int) -> "MhsaParams":
        if h < 1:
            raise ValueError(f"need at least one head, got {h}")
        if d % h != 0:
            raise ValueError(f"embed dim {d} not divisible by head count {h}")
        d_k = d // h
        heads = [tuple(uniform_init(rng, (d, d_k), d) for _ in range(3))
                 for _ in range(h)]
        return cls(heads, uniform_init(rng, (h * d_k, d), h * d_k))

    @property
    def head_count(self) -> int:
        return len(self.heads)

    @property
    def head_dim(self) -> int:
        return self.heads[0][0].shape[1]

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, (wq, wk, wv) in enumerate(self.heads):
            out[f"{prefix}.head{i}.w_q"] = wq
            out[f"{prefix}.head{i}.w_k"] = wk
            out[f"{prefix}.head{i}.w_v"] = wv
        out[f"{prefix}.w_out"] = self.w_out
        return out


def attention_scores(q: Tensor, k: Tensor) -> Tensor:
    """Pre-softmax scores Q K^T / sqrt(d_k) for (B, n, d_k) operands."""
    if q.ndim != 3 or k.ndim != 3 or q.shape[-1] != k.shape[-1]:
        raise ValueError(f"bad attention operand shapes {q.shape} and {k.shape}")
    # scaling the (n, d_k) queries, not the (n, n) scores, saves one score
    # batch; for d_k a power of 4 (d_k = 16 by default) it is exact
    scaled = div_scalar(q, float(np.sqrt(q.shape[-1])))
    return matmul(scaled, transpose(k))


def attention_weights(q: Tensor, k: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
    """Row-stochastic attention softmax(Q K^T / sqrt(d_k)) over the real keys.

    ``key_mask`` (B, n) marks the real keys of a batch; None means all.
    """
    scores = attention_scores(q, k)
    if key_mask is None:
        key_mask = np.ones(k.shape[:-1], dtype=bool)
    return softmax_rows(scores, np.asarray(key_mask)[..., None, :])


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         key_mask: np.ndarray | None = None) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V for (B, n, d_k) operands."""
    if v.ndim != k.ndim or v.shape[:-1] != k.shape[:-1]:
        raise ValueError(f"value rows {v.shape} do not match keys {k.shape}")
    return matmul(attention_weights(q, k, key_mask), v)


def _head_qkv(x: Tensor, params: MhsaParams) -> list[Tensor]:
    """Queries, keys and values of every head, (B·h, n, d_k) each, from one
    (B·n, d) @ (d, h·d_k) product per role."""
    if x.ndim != 3:
        raise ValueError(f"multi_head needs a (B, n, d) input, got rank {x.ndim}")
    if x.shape[2] != params.heads[0][0].shape[0]:
        raise ValueError(f"input width {x.shape[2]} != projection input "
                         f"{params.heads[0][0].shape[0]}")
    return [split_heads(matmul(x, concat([head[role] for head in params.heads])),
                        params.head_count)
            for role in range(3)]


def _key_mask(x: Tensor, mask: np.ndarray | None, heads: int) -> np.ndarray:
    """The (B, n) mask repeated per head in split_heads order."""
    if mask is None:
        return np.ones((x.shape[0] * heads, x.shape[1]), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[:2]:
        raise ValueError(f"mask {mask.shape} does not match input {x.shape}")
    return np.repeat(mask, heads, axis=0)


def multi_head(x: Tensor, params: MhsaParams, mask: np.ndarray | None = None) -> Tensor:
    """Self-attention over the rows of each item: (B, n, d) -> (B, n, d).

    Each head projects x to (n, d_k) queries/keys/values and attends over
    the rows ``mask`` marks as real (all, if None); the concatenated head
    outputs go through W_out. Padded query rows are computed but meaningless.
    """
    h = params.head_count
    q, k, v = _head_qkv(x, params)
    heads = scaled_dot_attention(q, k, v, _key_mask(x, mask, h))
    return matmul(merge_heads(heads, h), params.w_out)


def attend_and_pool(x: Tensor, params: MhsaParams,
                    mask: np.ndarray | None = None) -> Tensor:
    """Instance embedding: mean over the real rows of multi_head(x).

    (B, n, d) with a (B, n) mask (all rows real, if None) gives (B, d).
    """
    attended = multi_head(x, params, mask)
    if mask is None:
        mask = np.ones(x.shape[:2], dtype=bool)
    return masked_mean(attended, mask)


def head_attention_weights(x: Tensor, params: MhsaParams) -> list[np.ndarray]:
    """Per-head attention matrices (n, n) of one (1, n, d) sequence, for inspection."""
    if x.ndim != 3 or x.shape[0] != 1:
        raise ValueError(f"head_attention_weights needs one (1, n, d) sequence, got {x.shape}")
    q, k, _ = _head_qkv(x, params)
    return list(attention_weights(q, k).data)
