"""Parameterized fusion of two same-width embeddings, selectable at runtime.

Three strategies plus an escape hatch, all L2-normalized on the way out:

* ``concat``: plain concatenation, width 2d.
* ``adap_sum``: convex blend a*x + (1-a)*y with a = sigmoid of one learned
  unconstrained scalar.
* ``weight_sum`` (default): per-instance weights from a small linear map on
  [x; y] followed by a softmax over the two logits.
* ``global_weight_sum``: like weight_sum but the two logits are free
  parameters shared across instances.

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

__all__ = ["FUSE_TYPES", "FusionParams", "fuse", "fusion_weights"]

FUSE_TYPES = ("concat", "adap_sum", "weight_sum", "global_weight_sum")


class FusionParams:
    """Learnable state for every strategy, so checkpoints are uniform.

    ``alpha_raw`` starts at 0 (blend weight 0.5); ``weight_net`` is a
    (2d, 2) map producing per-instance logits; ``global_logits`` are the
    shared pair of logits for the escape hatch.
    """

    def __init__(self, fuse_type: str, alpha_raw: Tensor, weight_net: Tensor,
                 global_logits: Tensor):
        if fuse_type not in FUSE_TYPES:
            raise ValueError(f"unknown fuse_type '{fuse_type}' (one of {FUSE_TYPES})")
        self.fuse_type = fuse_type
        self.alpha_raw = alpha_raw
        self.weight_net = weight_net
        self.global_logits = global_logits

    @classmethod
    def init(cls, rng: np.random.Generator, d: int,
             fuse_type: str = "weight_sum") -> "FusionParams":
        return cls(
            fuse_type,
            alpha_raw=Tensor(0.0),
            weight_net=uniform_init(rng, (2 * d, 2), 2 * d),
            global_logits=Tensor(np.zeros(2)),
        )

    def named_parameters(self, prefix: str = "fusion") -> dict[str, Tensor]:
        return {
            f"{prefix}.alpha_raw": self.alpha_raw,
            f"{prefix}.weight_net": self.weight_net,
            f"{prefix}.global_logits": self.global_logits,
        }


def fusion_weights(instance: Tensor, consensus: Tensor,
                   params: FusionParams) -> np.ndarray | None:
    """The (w_instance, w_consensus) pair as plain values; None for concat.

    weight_sum gives one pair per row of (B, d) operands.
    """
    if params.fuse_type == "adap_sum":
        a = sigmoid(params.alpha_raw).item()
        return np.array([a, 1.0 - a])
    if params.fuse_type == "weight_sum":
        logits = matmul(concat([instance, consensus]), params.weight_net)
        return softmax_rows(logits).data
    if params.fuse_type == "global_weight_sum":
        return softmax_rows(params.global_logits).data
    return None


def fuse(instance: Tensor, consensus: Tensor, params: FusionParams) -> Tensor:
    """Combine one modality's (B, d) instance and consensus rows row by row.

    Returns L2-normalized rows: width 2d for concat, d otherwise.
    """
    if instance.ndim != 2 or consensus.ndim != 2:
        raise ValueError(f"fuse operands must both be (B, d) rows, got "
                         f"{instance.shape} and {consensus.shape}")
    if instance.shape != consensus.shape:
        raise ValueError(f"fuse width mismatch {instance.shape} vs {consensus.shape}")
    ft = params.fuse_type
    if ft == "concat":
        vec = concat([instance, consensus])
    elif ft == "adap_sum":
        a = sigmoid(params.alpha_raw)
        vec = add(mul(instance, a), mul(consensus, sub(1.0, a)))
    elif ft == "weight_sum":
        logits = matmul(concat([instance, consensus]), params.weight_net)
        # (2, B, 1): slab i holds each row's weight for operand i as a column
        w = reshape(transpose(softmax_rows(logits)), (2, -1, 1))
        vec = add(mul(instance, index(w, 0)), mul(consensus, index(w, 1)))
    elif ft == "global_weight_sum":
        w = softmax_rows(params.global_logits)
        vec = add(mul(instance, index(w, 0)), mul(consensus, index(w, 1)))
    else:  # unreachable: constructor validates
        raise ValueError(f"unknown fuse_type '{ft}'")
    return l2_normalize_rows(vec)
