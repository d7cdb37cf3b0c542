"""Modality encoders: linear projection of region features and a Bi-GRU.

Both encoders emit sequences in the shared embedding width d. The image
side projects each precomputed region-feature row; the text side runs a
bidirectional GRU over learned word embeddings, concatenating the two
directions (each of width d/2) per token. Word embeddings are trained from
scratch.

Both work on a :class:`PaddedBatch`: B items of different lengths padded
with zeros to the longest, plus a (B, n_max) mask of the real positions.
The image side is then one (B·M, F) @ (F, d) product. The Bi-GRU is one
recorded op, :func:`bi_gru`: it projects the inputs of all token slots at
once, then steps a (B, d/2) state per direction through the padded slots
in numpy, and a sequence that has ended holds its state, so each backward
pass starts at its own last token from a zero state. Its vjp is a
hand-written backpropagation through time. :func:`gru_step` is the same
step composed from tape ops, kept as the reference. A single image or
caption is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor, _make, _recording, _sigmoid, add, finite_checks_enabled, gather,
    matmul, mul, sigmoid, sub, tanh,
)

__all__ = [
    "PaddedBatch", "GruGates", "EncoderParams",
    "encode_image", "gru_step", "bi_gru", "encode_text", "uniform_init",
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

    NAMES = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")

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

    def tensors(self) -> tuple[Tensor, ...]:
        """The nine gate tensors, in :attr:`NAMES` order."""
        return tuple(getattr(self, name) for name in self.NAMES)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": t for name, t in zip(self.NAMES, self.tensors())}


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


def _gru_forward(rows: np.ndarray, live: np.ndarray, gates: tuple, slots,
                 save: bool):
    """One direction of the masked recurrence in numpy.

    ``rows`` (L·B, d_in) holds the inputs time-major, ``live`` (L, B, 1) is
    True on real positions, ``gates`` the nine gate arrays in
    :attr:`GruGates.NAMES` order and ``slots`` the order of the steps. Each
    step is :func:`gru_step`'s arithmetic in the same order. Returns the
    state after each slot (L, B, k) and, if ``save``, per slot the state
    before it and the z, r and candidate activations, which the backward
    pass reads (None otherwise).
    """
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = gates
    length, b, _ = live.shape
    k = u_z.shape[0]
    xz, xr, xh = ((rows @ w).reshape(length, b, k) for w in (w_z, w_r, w_h))
    states = np.empty((length, b, k))
    saved = tuple(np.empty((length, b, k)) for _ in range(4)) if save else None
    full = live.all(axis=(1, 2))
    check = finite_checks_enabled()
    h = np.zeros((b, k))
    for t in slots:
        a_z = (xz[t] + h @ u_z) + b_z
        a_r = (xr[t] + h @ u_r) + b_r
        r_t = _sigmoid(a_r)
        a_h = (xh[t] + (r_t * h) @ u_h) + b_h
        if check:
            for gate, a in (("z", a_z), ("r", a_r), ("h", a_h)):
                if not np.isfinite(a).all():
                    raise FloatingPointError(
                        f"non-finite {gate} pre-activation in bi_gru at slot {t}")
        z_t, c_t = _sigmoid(a_z), np.tanh(a_h)
        h_next = (1.0 - z_t) * h + z_t * c_t
        if save:
            for arr, value in zip(saved, (h, z_t, r_t, c_t)):
                arr[t] = value
        h = h_next if full[t] else np.where(live[t], h_next, h)
        states[t] = h
    return states, saved


def _gru_backward(rows: np.ndarray, live: np.ndarray, gates: tuple, slots,
                  saved: tuple, g: np.ndarray):
    """Backpropagation through time for one direction of :func:`_gru_forward`.

    ``g`` (L, B, k) is the gradient of each slot's state. One reverse pass
    collects the gate pre-activation gradients of every slot; each weight
    gradient is then one product or sum over all slots. Rows past their
    end pass their gradient straight to the state before. Returns the
    gradient of ``rows`` and the nine gate gradients in ``gates`` order.
    """
    w_z, u_z, _, w_r, u_r, _, w_h, u_h, _ = gates
    before, z, r, cand = saved
    length, b, k = z.shape
    da_z, da_r, da_h = (np.empty((length, b, k)) for _ in range(3))
    full = live.all(axis=(1, 2))
    carry = np.zeros((b, k))
    for t in reversed(slots):
        dh = carry + g[t]
        gh = dh if full[t] else np.where(live[t], dh, 0.0)
        h, z_t, r_t, c_t = before[t], z[t], r[t], cand[t]
        dah = gh * z_t * (1.0 - c_t * c_t)
        drh = dah @ u_h.T
        daz = gh * (c_t - h) * z_t * (1.0 - z_t)
        dar = drh * h * r_t * (1.0 - r_t)
        dh_before = gh * (1.0 - z_t) + drh * r_t + daz @ u_z.T + dar @ u_r.T
        carry = dh_before if full[t] else np.where(live[t], dh_before, dh)
        da_z[t], da_r[t], da_h[t] = daz, dar, dah
    flat = (length * b, k)
    da_z, da_r, da_h = da_z.reshape(flat), da_r.reshape(flat), da_h.reshape(flat)
    h_before = before.reshape(flat)
    d_rows = da_z @ w_z.T + da_r @ w_r.T + da_h @ w_h.T
    return d_rows, (rows.T @ da_z, h_before.T @ da_z, da_z.sum(axis=0),
                    rows.T @ da_r, h_before.T @ da_r, da_r.sum(axis=0),
                    rows.T @ da_h, (r.reshape(flat) * h_before).T @ da_h,
                    da_h.sum(axis=0))


def bi_gru(x: Tensor, mask: np.ndarray, forward: GruGates, backward: GruGates) -> Tensor:
    """Both GRU directions over a padded batch, as one recorded op.

    ``x`` (B, L, d_in) holds the inputs and ``mask`` (B, L) is True on the
    real positions. Returns the token states (B, L, 2k), the forward state
    at t next to the backward state at t, for gates of hidden width k. Each
    direction starts from a zero state, and a row holds its state through
    its padded slots. The states match a loop of :func:`gru_step` over
    each item alone; the vjp gives the gradients of ``x`` and of all
    eighteen gate tensors. While finite checks are on, a non-finite gate
    pre-activation raises ``FloatingPointError``.
    """
    if not isinstance(x, Tensor):
        raise TypeError(f"bi_gru: x must be a Tensor, got {type(x).__name__}")
    mask = np.asarray(mask, dtype=bool)
    if x.ndim != 3 or mask.shape != x.shape[:2]:
        raise ValueError(f"bi_gru needs (B, L, d) inputs and a (B, L) mask, "
                         f"got {x.shape} and {mask.shape}")
    b, length, d_in = x.shape
    rows = x.data.transpose(1, 0, 2).reshape(length * b, d_in)
    live = mask.T[:, :, None]
    params = forward.tensors() + backward.tensors()
    fwd = tuple(p.data for p in params[:9]), range(length)
    bwd = tuple(p.data for p in params[9:]), range(length - 1, -1, -1)
    # only a recorded op's vjp reads the per-slot activations
    save = _recording()
    states_f, saved_f = _gru_forward(rows, live, *fwd, save)
    states_b, saved_b = _gru_forward(rows, live, *bwd, save)
    out = np.concatenate([states_f.transpose(1, 0, 2), states_b.transpose(1, 0, 2)], axis=2)
    k = states_f.shape[2]

    def vjp(g):
        g = g.transpose(1, 0, 2)
        d_f, grads_f = _gru_backward(rows, live, *fwd, saved_f, g[:, :, :k])
        d_b, grads_b = _gru_backward(rows, live, *bwd, saved_b, g[:, :, k:])
        return ((d_f + d_b).reshape(length, b, d_in).transpose(1, 0, 2),) + grads_f + grads_b
    return _make(out, (x,) + params, vjp, "bi_gru")


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
    return bi_gru(gather(params.word_embedding, ids), mask,
                  params.gru_forward, params.gru_backward)
