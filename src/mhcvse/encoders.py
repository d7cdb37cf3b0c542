"""Modality encoders: linear projection of region features and a Bi-GRU.

Both encoders emit sequences in the shared embedding width d. The image
side projects each precomputed region-feature row; the text side runs a
bidirectional GRU over learned word embeddings, concatenating the two
directions (each of width d/2) per token. Word embeddings are trained from
scratch.

Both work on a :class:`PaddedBatch`: B items of different lengths padded
with zeros to the longest, plus a (B, n_max) mask of the real positions.
The image side is then one (B·M, F) @ (F, d) product. The text side is
one recorded op, :func:`encode_text`: it projects each distinct token
id's word row once per gate and direction, then one numpy loop of L
steps advances both directions, the forward one at slot t and the
backward one at slot L-1-t, as one (2, B, d/2) state. A sequence that
has ended holds its state, so each backward pass starts at its own last
token from a zero state. Its vjp is a hand-written backpropagation
through time, one reverse loop over both directions. Every product and
sum is the one a direction alone would run, so the states and gradients
are the same bits as one direction at a time. :func:`gru_step` is the
same step composed from tape ops, kept as the reference. A single image
or caption is a batch of one.

Each encoder takes the tensors it uses: :func:`encode_image` the (F, d)
projection and its bias, :func:`encode_text` the word embeddings and the
two directions' :class:`GruGates`. The model owns them and names them in
its checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor, _make, _recording, _sigmoid, add, matmul, mul, sigmoid, sub, tanh,
)

__all__ = [
    "PaddedBatch", "GruGates",
    "encode_image", "gru_step", "encode_text", "uniform_init",
]


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 fan_in: int) -> Tensor:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor.wrap(rng.uniform(-bound, bound, size=shape))


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
        return cls(*gate(), *gate(), *gate())

    def tensors(self) -> tuple[Tensor, ...]:
        """The nine gate tensors, in :attr:`NAMES` order."""
        return tuple(getattr(self, name) for name in self.NAMES)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": t for name, t in zip(self.NAMES, self.tensors())}


def encode_image(features: PaddedBatch, proj: Tensor, bias: Tensor) -> Tensor:
    """Project region features into the embedding space.

    A padded batch (B, M, F) gives (B, M, d) rows ``features @ proj +
    bias`` for a (F, d) ``proj`` and a (d,) ``bias``, as one (B·M, F) @
    (F, d) product. Padded rows come out as the bias alone and are left to
    the caller's mask.
    """
    regions = features.values
    if regions.ndim != 3 or regions.shape[2] != proj.shape[0]:
        raise ValueError(f"region batch must be (B, M, {proj.shape[0]}), "
                         f"got {regions.shape}")
    return add(matmul(Tensor(regions), proj), bias)


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


def _each(a: np.ndarray, u: tuple, out: np.ndarray) -> np.ndarray:
    """a[i] @ u[i] for each direction i into ``out`` (2, B, k): the same
    (B, k) @ (k, k) product as one direction alone. ``np.dot`` runs the
    BLAS call of ``@`` with less overhead per call."""
    np.dot(a[0], u[0], out=out[0])
    np.dot(a[1], u[1], out=out[1])
    return out


def _non_finite(a: np.ndarray, gates: str, slots: tuple) -> FloatingPointError:
    """The error naming the first non-finite pre-activation in ``a``
    (gate, direction, B, k), which holds the gates named in ``gates``, and
    its direction's slot in ``slots``."""
    gate, i = next((gate, i) for i in range(2) for gate, a_gate in zip(gates, a[:, i])
                   if not np.isfinite(a_gate).all())
    return FloatingPointError(f"non-finite {gate} pre-activation in encode_text at slot "
                              f"{slots[i]} ({('forward', 'backward')[i]} direction)")


def _recurrence(proj: np.ndarray, live: np.ndarray, u_z, u_r, u_h, bias_zr: np.ndarray,
                bias_h: np.ndarray, save: bool):
    """Both directions stepped together through the slots, in numpy.

    Step t is slot t of the forward direction and slot L-1-t of the
    backward one. ``proj`` (gate, direction, L, B, k) holds the input
    projections in step order, ``live`` (L, 2, B, 1) the real rows of each
    step, ``u_*`` (forward, backward) pairs and ``bias_*`` the biases
    stacked as (gate, direction, 1, k) and (direction, 1, k). Each step
    writes the two new states into the z-gate projections it has just
    read, so on return ``proj[0]`` (direction, L, B, k) holds each
    direction's state after each step. Returns, if ``save``, the z and r
    activations (L, gate, 2, B, k) and the candidates (L, 2, B, k) of each
    step, which the backward pass reads (None otherwise).
    """
    _, _, length, b, k = proj.shape
    full = live.all(axis=(1, 2, 3))
    # the state before the step and the one it makes, in turn
    states = np.zeros((2, 2, b, k))
    kept = length if save else 1
    zr = np.empty((kept, 2, 2, b, k))
    cand = np.empty((kept, 2, b, k))
    scratch = np.empty((2, 2, b, k))
    for t in range(length):
        slots = t, length - 1 - t
        h, h_next = states[t % 2], states[(t + 1) % 2]
        # z then r, (gate, direction, B, k); the sigmoid runs in place
        a_zr = zr[t % kept]
        _each(h, u_z, a_zr[0])
        _each(h, u_r, a_zr[1])
        a_zr += proj[:2, :, t]
        a_zr += bias_zr
        if not np.isfinite(a_zr).all():
            raise _non_finite(a_zr, "zr", slots)
        z_t, r_t = _sigmoid(a_zr, a_zr, scratch)
        a_h = _each(np.multiply(r_t, h, out=scratch[0]), u_h, cand[t % kept])
        a_h += proj[2, :, t]
        a_h += bias_h
        if not np.isfinite(a_h).all():
            raise _non_finite(a_h[None], "h", slots)
        c_t = np.tanh(a_h, out=a_h)
        keep = np.subtract(1.0, z_t, out=scratch[0])
        keep *= h
        np.add(keep, np.multiply(z_t, c_t, out=scratch[1]), out=h_next)
        if not full[t]:
            np.copyto(h_next, h, where=~live[t])
        proj[0, :, t] = h_next
    return (zr, cand) if save else None


def _bptt(g: np.ndarray, hs: np.ndarray, zr: np.ndarray, cand: np.ndarray,
          live: np.ndarray, u_z, u_r, u_h) -> list[np.ndarray]:
    """Backpropagation through time for :func:`_recurrence`, both directions
    in one reverse loop.

    ``g`` (B, L, 2k) is the gradient of the token states. Returns per
    direction the gate pre-activation gradients of every slot, in slot
    order, as (L, B, 3k): z, r and h side by side. Rows past their end
    pass their gradient straight to the state before.
    """
    length, _, b, k = cand.shape
    full = live.all(axis=(1, 2, 3))
    u_zt, u_rt, u_ht = ((u[0].T, u[1].T) for u in (u_z, u_r, u_h))
    da = [np.empty((length, b, 3 * k)) for _ in range(2)]
    step = np.empty((2, b, 3 * k))
    dh = np.empty((2, b, k))
    products = np.empty((3, 2, b, k))
    carry = np.zeros((2, b, k))
    for t in range(length - 1, -1, -1):
        s = length - 1 - t
        np.add(carry[0], g[:, t, :k], out=dh[0])
        np.add(carry[1], g[:, s, k:], out=dh[1])
        gh = dh if full[t] else np.where(live[t], dh, 0.0)
        h, (z_t, r_t), c_t = hs[t], zr[t], cand[t]
        dah = np.multiply(gh * z_t, 1.0 - c_t * c_t, out=step[..., 2 * k:])
        drh = _each(dah, u_ht, products[0])
        daz = np.multiply(gh * (c_t - h) * z_t, 1.0 - z_t, out=step[..., :k])
        dar = np.multiply(drh * h * r_t, 1.0 - r_t, out=step[..., k:2 * k])
        dh_before = (gh * (1.0 - z_t) + drh * r_t + _each(daz, u_zt, products[1])
                     + _each(dar, u_rt, products[2]))
        carry = dh_before if full[t] else np.where(live[t], dh_before, dh)
        da[0][t] = step[0]
        da[1][s] = step[1]
    return da


def encode_text(caption: PaddedBatch, word_embedding: Tensor, forward: GruGates,
                backward: GruGates) -> Tensor:
    """Bi-GRU over token ids, as one recorded op.

    For a padded batch of ids (B, L) returns the token states (B, L, 2k)
    for gates of hidden width k, the forward state at t next to the
    backward state at t, over each id's row of the (V, d)
    ``word_embedding``. A caption holds its state through its padded
    slots, whose states are left to the caller's mask. The states match a
    loop of :func:`gru_step` over each caption's rows alone, and are the
    same bits as one direction at a time: each distinct id is projected
    once per gate and direction, and :func:`_recurrence` and :func:`_bptt`
    keep each direction's own products and sums. The vjp gives the
    gradients of the word embedding, where repeated ids add up, and of
    all eighteen gate tensors. A non-finite gate pre-activation raises
    ``FloatingPointError``.
    """
    ids, mask = caption.values, caption.mask
    if ids.ndim != 2 or not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"token batch must be (B, L) integer ids, got {ids.dtype} "
                         f"of shape {ids.shape}")
    table = word_embedding.data
    bad = (ids < 0) | (ids >= len(table))
    if np.any(bad):
        raise ValueError(f"token id {ids[bad][0]} outside vocabulary of {len(table)}")
    b, length = ids.shape
    params = forward.tensors() + backward.tensors()
    # each gate array as a (forward, backward) pair
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = zip(
        *(tuple(p.data for p in half) for half in (params[:9], params[9:])))
    k = u_z[0].shape[0]
    # the input projections in step order, (gate, direction, L, B, k): per
    # direction and gate one product over the distinct ids' rows, taken to
    # each step's slots, for the backward direction from the last slot back
    # (np.take buffers its output unless an index out of range may be clipped)
    distinct, row_of = np.unique(ids, return_inverse=True)
    steps = row_of.reshape(b, length).T
    rows = table[distinct]
    proj = np.empty((3, 2, length, b, k))
    for i, order in enumerate((steps, steps[::-1])):
        for j, w in enumerate((w_z, w_r, w_h)):
            np.take(rows @ w[i], order, axis=0, out=proj[j, i], mode="clip")
    del rows
    # step t's real rows, (L, 2, B, 1): slot t forward, slot L-1-t backward
    live = np.stack((mask.T, mask.T[::-1]), axis=1)[..., None]
    saved = _recurrence(proj, live, u_z, u_r, u_h, np.stack((b_z, b_r))[:, :, None],
                        np.stack(b_h)[:, None], _recording())
    out = np.empty((b, length, 2 * k))
    out[:, :, :k] = proj[0, 0].transpose(1, 0, 2)
    out[:, :, k:] = proj[0, 1, ::-1].transpose(1, 0, 2)
    del proj
    # the vjp takes the saved arrays out of the list, so that it can drop
    # them once the weight gradients no longer need them
    held = [saved] if saved else []
    del saved

    def vjp(g):
        zr, cand = held.pop()
        # the state before each step, (L, 2, B, k), from the token states
        hs = np.zeros((length, 2, b, k))
        hs[1:, 0] = out[:, :-1, :k].transpose(1, 0, 2)
        hs[1:, 1] = out[:, :0:-1, k:].transpose(1, 0, 2)
        da = _bptt(g, hs, zr, cand, live, u_z, u_r, u_h)
        # each weight gradient is one product or sum over all slots in slot
        # order, as one direction alone forms it; the backward direction's
        # slot s is step L-1-s
        flat = (length * b, k)
        before = [hs[:, 0].reshape(flat), hs[::-1, 1].reshape(flat)]
        r_before = [np.multiply(r, h.reshape(length, b, k), out=np.empty((length, b, k)))
                    .reshape(flat) for r, h in zip((zr[:, 1, 0], zr[::-1, 1, 1]), before)]
        del hs, zr, cand
        rows = table[ids.T.ravel()]  # each slot's looked-up row, time-major (L·B, d)
        d_rows, grads = [], ()
        for i in range(2):
            da_z, da_r, da_h = np.split(da[i].reshape(length * b, 3 * k), 3, axis=1)
            d_rows.append(da_z @ w_z[i].T + da_r @ w_r[i].T + da_h @ w_h[i].T)
            grads += (rows.T @ da_z, before[i].T @ da_z, da_z.sum(axis=0),
                      rows.T @ da_r, before[i].T @ da_r, da_r.sum(axis=0),
                      rows.T @ da_h, r_before[i].T @ da_h, da_h.sum(axis=0))
            # free this direction's arrays before the next one's products
            da[i] = before[i] = r_before[i] = da_z = da_r = da_h = None
        # each slot's input gradient adds into its id's row; repeated ids add up
        d_x = np.add(*d_rows, out=d_rows[0]).reshape(length, b, -1)
        d_table = np.zeros(table.shape)
        np.add.at(d_table, ids, d_x.transpose(1, 0, 2))
        return (d_table,) + grads
    return _make(out, (word_embedding,) + params, vjp, "encode_text")
