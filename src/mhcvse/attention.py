"""Multi-head scaled dot-product self-attention with mean pooling.

One module per modality sits on top of the encoder output (region rows or
token states) and pools the attended sequence into a single instance
embedding. No positional encodings anywhere, so the whole stack is
permutation equivariant and the pooled vector is permutation invariant.

Everything runs on padded batches (B, n, d) with a (B, n) mask of real
rows. :func:`attend_and_pool` is one recorded op from the input to the
pooled rows. Its forward is plain numpy: queries and keys are one
(B·n, d) @ (d, h·d_k) product each, against the h per-head matrices side
by side, with the heads folded into the batch axis, (B·h, n, d_k), so the
scores are one batched product; padded rows are masked out as keys. As
W_v and W_out are linear, the mean pool is taken over each head's
attention weights, so values and W_out run on one row per item, not one
per sequence row, and padded rows get no share of the mean. Its vjp is
hand-written. A single (n, d) sequence is a batch of one, (1, n, d).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _make, _recording
from .encoders import uniform_init

__all__ = ["MhsaParams", "attend_and_pool", "head_attention_weights"]


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

    def role_tensors(self) -> tuple[Tensor, ...]:
        """The 3·h per-head tensors, role-major: every w_q, every w_k, every w_v."""
        return tuple(head[role] for role in range(3) for head in self.heads)

    def role_projection(self, role: int) -> np.ndarray:
        """The (d, h·d_k) projection of one role (0 query, 1 key, 2 value):
        its per-head matrices side by side."""
        return np.concatenate([head[role].data for head in self.heads], axis=1)


def _check_input(x: Tensor, params: MhsaParams, mask) -> np.ndarray:
    """The (B, n) mask of a valid (B, n, d) input; None means all rows real."""
    if not isinstance(x, Tensor):
        raise TypeError(f"attention input must be a Tensor, got {type(x).__name__}")
    if x.ndim != 3:
        raise ValueError(f"attention needs a (B, n, d) input, got rank {x.ndim}")
    d = params.heads[0][0].shape[0]
    if x.shape[2] != d:
        raise ValueError(f"input width {x.shape[2]} != projection input {d}")
    if mask is None:
        return np.ones(x.shape[:2], dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[:2]:
        raise ValueError(f"mask {mask.shape} does not match input {x.shape}")
    if not mask.any(axis=1).all():
        raise ValueError("attention: an item has no real rows")
    return mask


def _head_means(weights: np.ndarray, x: np.ndarray, params: MhsaParams):
    """Each head's mean input row z (B, h, d) under its mean weight row
    (B, h, n), the value maps stacked (h, d, d_k), and each head's mean
    output row z_h @ W_v,h, (h, B, d_k)."""
    w_v = np.stack([head[2].data for head in params.heads])
    z = weights @ x
    return z, w_v, z.swapaxes(0, 1) @ w_v


def _attend(x: np.ndarray, params: MhsaParams, mask: np.ndarray, save: bool):
    """The forward in numpy: pooled rows (B, d), the attention weights
    (B·h, n, n) with head i of item b at batch entry b·h + i, and, if
    ``save``, the arrays the vjp reads (None otherwise).

    W_v and W_out are linear, so the mean over an item's real rows is taken
    over the attention weights before they apply: each head's mean weight
    row mixes the input rows into one (d,) row, and the values and W_out
    run once per item instead of once per row. Only the float summation
    order differs from averaging the attended rows. The query and key
    heads are made where they are first used, and an array only the vjp
    reads is dropped at once when nothing records, which keeps the peak of
    inference low.
    """
    b, n, d = x.shape
    h, k = params.head_count, params.head_dim
    x2 = x.reshape(-1, d)

    def heads_of(role):
        # one role's (b·h, n, k) heads
        w = params.role_projection(role)
        return (x2 @ w).reshape(b, n, h, k).transpose(0, 2, 1, 3).reshape(b * h, n, k)

    # scaling the (n, d_k) queries, not the (n, n) scores, saves one score
    # batch; for d_k a power of 4 (d_k = 16 by default) it is exact
    scale = float(np.sqrt(k))
    scaled = heads_of(0) / scale
    key_t = heads_of(1).swapaxes(-1, -2).copy()
    probs = scaled @ key_t
    saved = (x2, scale, scaled, key_t) if save else None
    del scaled, key_t
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite attention scores")
    # in place on one array: a score batch is the largest array of a pass
    if not mask.all():
        np.copyto(probs, -np.inf, where=~np.repeat(mask, h, axis=0)[:, None, :])
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    # (b·h, 1, n): 1 / count at an item's real query rows, 0 at its padding;
    # a batched product, not a masked sum, averages the weight rows
    share = np.repeat(mask / mask.sum(axis=1, keepdims=True), h, axis=0)[:, None, :]
    weights = (share @ probs).reshape(b, h, n)
    if save:
        saved += (share, weights)
    _, _, mixed = _head_means(weights, x, params)
    return mixed.swapaxes(0, 1).reshape(b, h * k) @ params.w_out.data, probs, saved


def attend_and_pool(x: Tensor, params: MhsaParams,
                    mask: np.ndarray | None = None) -> Tensor:
    """Instance embedding: the mean over the real rows of the attended sequence.

    (B, n, d) with a (B, n) mask (all rows real, if None) gives (B, d).
    Each head projects x to (n, d_k) queries, keys and values and attends
    over the real rows; the concatenated head outputs go through W_out and
    the real rows are averaged. One recorded op; its vjp gives the
    gradients of ``x``, of every head's W_q, W_k and W_v and of W_out.
    A non-finite score raises ``FloatingPointError``.
    """
    mask = _check_input(x, params, mask)
    pooled, probs, saved = _attend(x.data, params, mask, _recording())
    b, n, d = x.shape
    h, k = params.head_count, params.head_dim
    width = h * k
    # the vjp takes the saved arrays out of the list, so that it can drop
    # each one after its last use
    held = [(probs, saved)]

    def vjp(g):
        probs, (x2, scale, scaled, key_t, share, weights) = held.pop()
        x = x2.reshape(b, n, d)

        def role(r, g_heads):
            # one role's share of the input's gradient, and its per-head
            # tensors' column slices of the role's weight gradient
            g_cols = g_heads.reshape(b, h, n, k).transpose(0, 2, 1, 3).reshape(b * n, width)
            return (g_cols @ params.role_projection(r).T,
                    np.split(x2.T @ g_cols, h, axis=1))

        # the mean rows are formed again, not saved, to keep the peak low
        z, w_v, mixed = _head_means(weights, x, params)
        g_w_out = mixed.swapaxes(0, 1).reshape(b, width).T @ g
        del mixed
        g = (g @ params.w_out.data.T).reshape(b, h, k).swapaxes(0, 1)
        g_wv = list(z.swapaxes(0, 1).swapaxes(-1, -2) @ g)
        del z
        g = (g @ w_v.swapaxes(-1, -2)).swapaxes(0, 1)
        g_x = (weights.swapaxes(-1, -2) @ g).reshape(-1, d)
        del weights
        g = (g @ x.swapaxes(-1, -2)).reshape(b * h, 1, n)
        # the softmax vjp of the rank-one upstream share^T g: score row r
        # gets share_r · p_r ⊙ (g - p_r · g)
        g = g - probs @ g.swapaxes(-1, -2)
        g *= probs
        g *= share.swapaxes(-1, -2)
        del probs
        g_xk, g_wk = role(1, (scaled.swapaxes(-1, -2) @ g).swapaxes(-1, -2))
        g_x += g_xk
        del g_xk
        g_xq, g_wq = role(0, (g @ key_t.swapaxes(-1, -2)) / scale)
        g_x += g_xq
        return (g_x.reshape(b, n, d),) + tuple(g_wq + g_wk + g_wv) + (g_w_out,)
    return _make(pooled, (x,) + params.role_tensors() + (params.w_out,), vjp,
                 "attend_and_pool")


def head_attention_weights(x: Tensor, params: MhsaParams) -> list[np.ndarray]:
    """Per-head attention matrices (n, n) of one (1, n, d) sequence, for inspection."""
    if not isinstance(x, Tensor) or x.ndim != 3 or x.shape[0] != 1:
        raise ValueError(f"head_attention_weights needs one (1, n, d) sequence, "
                         f"got {getattr(x, 'shape', type(x).__name__)}")
    _, probs, _ = _attend(x.data, params, _check_input(x, params, None), False)
    return list(probs)
