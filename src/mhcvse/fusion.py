"""Parameterized fusion of two same-width embeddings, selectable at runtime.

Three strategies plus an escape hatch, all L2-normalized on the way out:

* ``concat``: plain concatenation, width 2d.
* ``adap_sum``: convex blend a*x + (1-a)*y with a = sigmoid of one learned
  unconstrained scalar.
* ``weight_sum`` (default): per-instance weights from a small linear map on
  [x; y] followed by a softmax over the two logits.
* ``global_weight_sum``: like weight_sum but the two logits are free
  parameters shared across instances.

Only the one tensor the strategy reads is held, trained and saved (none for
concat). Older checkpoints, which hold every strategy's tensor, still load.

The model fuses each modality's instance-level embedding with its
consensus-level embedding; the operator combines two (B, d) batches row by
row. The concatenation or blend is one recorded op with a hand-written vjp,
and ``l2_normalize_rows`` follows it, so a call records two tape nodes. The
strategies' weights come from one numpy function, which ``fusion_weights``
reads too. The vjp adds its gradient terms in the order a tape of the
separate engine ops (matmul, softmax, broadcast products) would, so
training gives the same bits as that composition.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _make, _sigmoid, _softmax, _unbroadcast, l2_normalize_rows
from .encoders import uniform_init

__all__ = ["FUSE_TYPES", "TENSOR_NAMES", "FusionParams", "fuse", "fusion_weights"]

FUSE_TYPES = ("concat", "adap_sum", "weight_sum", "global_weight_sum")
# the name of the one tensor each strategy reads; concat reads none
TENSOR_NAMES = {"adap_sum": "alpha_raw", "weight_sum": "weight_net",
                "global_weight_sum": "global_logits"}


class FusionParams:
    """A strategy and the one learnable tensor it reads (None for concat).

    ``alpha_raw`` starts at 0 (blend weight 0.5); ``weight_net`` is a
    (2d, 2) map producing per-instance logits; ``global_logits`` are the
    shared pair of logits, starting at 0.
    """

    def __init__(self, fuse_type: str, tensor: Tensor | None):
        if fuse_type not in FUSE_TYPES:
            raise ValueError(f"unknown fuse_type '{fuse_type}' (one of {FUSE_TYPES})")
        self.fuse_type = fuse_type
        self.tensor = tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d: int,
             fuse_type: str = "weight_sum") -> "FusionParams":
        # drawn for every strategy, so the draws after it do not depend on it
        weight_net = uniform_init(rng, (2 * d, 2), 2 * d)
        initial = {"adap_sum": Tensor(0.0), "weight_sum": weight_net,
                   "global_weight_sum": Tensor(np.zeros(2))}
        return cls(fuse_type, initial.get(fuse_type))

    def named_parameters(self, prefix: str = "fusion") -> dict[str, Tensor]:
        return ({} if self.tensor is None
                else {f"{prefix}.{TENSOR_NAMES[self.fuse_type]}": self.tensor})


def _weights(x: np.ndarray, y: np.ndarray, params: FusionParams) -> np.ndarray | None:
    """The (instance, consensus) weights of (B, d) operand values ``x`` and
    ``y``: a (2,) pair, or for weight_sum a (B, 2) pair per row; None for
    concat."""
    if params.fuse_type == "adap_sum":
        a = _sigmoid(params.tensor.data)
        return np.array([a, 1.0 - a])
    if params.fuse_type == "weight_sum":
        return _softmax(np.concatenate([x, y], axis=-1) @ params.tensor.data)
    if params.fuse_type == "global_weight_sum":
        return _softmax(params.tensor.data)
    return None


def fusion_weights(instance: Tensor, consensus: Tensor,
                   params: FusionParams) -> np.ndarray | None:
    """The (w_instance, w_consensus) pair as plain values; None for concat.

    weight_sum gives one pair per row of (B, d) operands.
    """
    return _weights(instance.data, consensus.data, params)


def fuse(instance: Tensor, consensus: Tensor, params: FusionParams) -> Tensor:
    """Combine one modality's (B, d) instance and consensus rows row by row.

    Returns L2-normalized rows: width 2d for concat, d otherwise.
    """
    if instance.ndim != 2 or consensus.ndim != 2:
        raise ValueError(f"fuse operands must both be (B, d) rows, got "
                         f"{instance.shape} and {consensus.shape}")
    if instance.shape != consensus.shape:
        raise ValueError(f"fuse width mismatch {instance.shape} vs {consensus.shape}")
    x, y = instance.data, consensus.data
    d = x.shape[1]
    w = _weights(x, y, params)
    if w is None:
        return l2_normalize_rows(_make(np.concatenate([x, y], axis=-1), (instance, consensus),
                                       lambda g: (g[:, :d], g[:, d:]), "fuse"))
    kind, t = params.fuse_type, params.tensor.data
    # each operand's weight: a scalar, or for weight_sum a (B, 1) column
    wx, wy = (w[:, :1], w[:, 1:]) if w.ndim == 2 else w

    def vjp(g):
        sx, sy = _unbroadcast(g * x, np.shape(wx)), _unbroadcast(g * y, np.shape(wy))
        blend = (g * wx, g * wy)
        if kind == "adap_sum":
            return blend + ((sx - sy) * wx * (1.0 - wx),)
        # the softmax backward; the weights' gradient is the transpose of a
        # (2, B) array, as a tape of separate ops lays it out, so the
        # products below keep that composition's bits
        gw = np.array([sx, sy]) if w.ndim == 1 else np.array([sx[:, 0], sy[:, 0]]).T
        gz = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        if kind == "global_weight_sum":
            return blend + (gz,)
        joint = np.concatenate([x, y], axis=-1)
        gj = gz @ t.T
        return blend + (joint.T @ gz, gj[:, :d], gj[:, d:])

    inputs = (instance, consensus, params.tensor)
    if kind == "weight_sum":
        # the operands again, for the weight net's input split
        inputs += (instance, consensus)
    return l2_normalize_rows(_make(x * wx + y * wy, inputs, vjp, "fuse"))
