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
row.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Tensor, add, concat, index, l2_normalize_rows, matmul, mul, reshape,
    sigmoid, softmax_rows, sub, transpose,
)
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


def _weights(instance: Tensor, consensus: Tensor,
             params: FusionParams) -> tuple[Tensor, Tensor] | None:
    """The (instance, consensus) weights, each broadcasting against (B, d)
    rows; None for concat. weight_sum gives one (B, 1) column per operand."""
    if params.fuse_type == "adap_sum":
        a = sigmoid(params.tensor)
        return a, sub(1.0, a)
    if params.fuse_type == "weight_sum":
        logits = matmul(concat([instance, consensus]), params.tensor)
        # (2, B, 1): slab i holds each row's weight for operand i as a column
        w = reshape(transpose(softmax_rows(logits)), (2, -1, 1))
    elif params.fuse_type == "global_weight_sum":
        w = softmax_rows(params.tensor)
    else:
        return None
    return index(w, 0), index(w, 1)


def fusion_weights(instance: Tensor, consensus: Tensor,
                   params: FusionParams) -> np.ndarray | None:
    """The (w_instance, w_consensus) pair as plain values; None for concat.

    weight_sum gives one pair per row of (B, d) operands.
    """
    w = _weights(instance, consensus, params)
    return None if w is None else np.hstack([w[0].data, w[1].data])


def fuse(instance: Tensor, consensus: Tensor, params: FusionParams) -> Tensor:
    """Combine one modality's (B, d) instance and consensus rows row by row.

    Returns L2-normalized rows: width 2d for concat, d otherwise.
    """
    if instance.ndim != 2 or consensus.ndim != 2:
        raise ValueError(f"fuse operands must both be (B, d) rows, got "
                         f"{instance.shape} and {consensus.shape}")
    if instance.shape != consensus.shape:
        raise ValueError(f"fuse width mismatch {instance.shape} vs {consensus.shape}")
    w = _weights(instance, consensus, params)
    vec = (concat([instance, consensus]) if w is None
           else add(mul(instance, w[0]), mul(consensus, w[1])))
    return l2_normalize_rows(vec)
