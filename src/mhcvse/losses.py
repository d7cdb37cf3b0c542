"""The four training objectives and their dynamic weighting.

Three bidirectional max-margin ranking losses (instance, consensus, fusion
levels, identical machinery on different similarity matrices) plus a KL
term aligning the text concept distribution to the image one. Each term
is one recorded op with a hand-written vjp, and its contribution to the
total is scaled by w * sigmoid(loss_value); the scale is computed from
the plain float value, so it is a constant to the backward pass.
``invert_dynamic_weight`` flips the sigmoid argument for the opposite
scheme (high loss, low weight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _make, add, mul

__all__ = [
    "CONTRASTIVE_MODES", "contrastive_loss", "kl_loss",
    "dynamic_weight", "total_loss", "LossTerms",
]

CONTRASTIVE_MODES = ("sum", "hardest")


def contrastive_loss(scores: Tensor, margin: float, mode: str = "hardest", image_ids=None) -> Tensor:
    """Bidirectional hinge ranking loss on a (B, B) similarity matrix, one op.

    Row i / column i hold the matched pair. Per query the violation is
    [margin - s(i,i) + s(i,j)]_+ over the negatives j, the pairs of other
    images by ``image_ids`` (each pair its own image when None); ``sum``
    averages them, ``hardest`` keeps the worst one (VSE++), and a query
    with none adds 0. Both directions are added and the result is
    averaged over the batch. A hardest negative that ties with another
    takes the whole gradient at the first index.
    """
    if mode not in CONTRASTIVE_MODES:
        raise ValueError(f"unknown contrastive mode '{mode}' (one of {CONTRASTIVE_MODES})")
    if isinstance(margin, bool) or not isinstance(margin, (int, float)):
        raise TypeError(f"margin must be a number, got {type(margin).__name__}")
    if not 0.0 < margin < math.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ValueError(f"scores must be square, got {scores.shape}")
    b = scores.shape[0]
    if b < 2:
        raise ValueError(f"contrastive loss needs a batch of >= 2, got {b}")
    ids = np.arange(b) if image_ids is None else np.asarray(image_ids)
    if ids.shape != (b,):
        raise ValueError(f"image ids of shape {ids.shape} for a batch of {b}")

    # the numpy operations and the vjp's gradient sums run in a fixed order
    # that checkpoints depend on bit for bit; the transpose is copied so its
    # sum runs in row order
    x = scores.data
    diag = np.diag(x)[:, None].copy()  # (B, 1): each row's matched score
    # 1 where column j is a negative of row i: a pair of another image
    negative = (ids[:, None] != ids) * 1.0
    # image -> text: row i against its caption's column
    hinge_t = (x - diag) + margin
    # text -> image: column i against its image's row
    hinge_i = (x.T.copy() - diag) + margin
    viol_t = np.maximum(hinge_t, 0.0) * negative
    viol_i = np.maximum(hinge_i, 0.0) * negative
    if mode == "sum":
        n = max(negative.sum(), 1.0)
        total = viol_t.sum() + viol_i.sum()
    else:
        n = float(b)
        first_t, first_i = viol_t.argmax(axis=1), viol_i.argmax(axis=1)
        total = viol_t.max(axis=1).sum() + viol_i.max(axis=1).sum()

    def vjp(g):
        g = g / n
        g_t = g_i = g
        if mode == "hardest":
            rows = np.arange(b)
            g_t, g_i = np.zeros((b, b)), np.zeros((b, b))
            g_t[rows, first_t] = g
            g_i[rows, first_i] = g
        g_t = g_t * negative * (hinge_t > 0.0)
        g_i = g_i * negative * (hinge_i > 0.0)
        # each negative's score, then each matched score, which both
        # directions' hinges subtract
        matched = (-g_i).sum(axis=1) + (-g_t).sum(axis=1)
        return (g_i.T + g_t + np.diag(matched),)
    return _make(np.asarray(total / n), (scores,), vjp, "contrastive_loss")


def kl_loss(p_text: Tensor, p_image: Tensor) -> Tensor:
    """KL(p_text || p_image) of (B, K) rows, averaged over the batch, one op.

    Inputs must be strictly positive distributions (softmax range), whose
    rows sum to 1; anything else raises ``ValueError``.
    """
    if p_text.shape != p_image.shape:
        raise ValueError(f"distribution shapes differ: {p_text.shape} vs {p_image.shape}")
    if p_text.ndim != 2:
        raise ValueError(f"kl_loss needs (B, K) distribution rows, got {p_text.shape}")
    pt, pi = p_text.data, p_image.data
    for name, d in (("p_text", pt), ("p_image", pi)):
        if np.any(d <= 0.0):
            raise ValueError(f"{name} is not strictly positive")
        if not np.allclose(d.sum(axis=-1), 1.0, atol=1e-6):
            raise ValueError(f"{name} rows do not sum to 1")
    log_ratio = np.log(pt) - np.log(pi)
    n = float(pt.shape[0])

    def vjp(g):
        g = g / n
        g_log = g * pt
        return g * log_ratio + g_log / pt, -g_log / pi
    return _make(np.asarray((pt * log_ratio).sum() / n), (p_text, p_image), vjp, "kl_loss")


def dynamic_weight(w: float, loss_value: float, invert: bool = False) -> float:
    """Effective weight w * sigmoid(loss_value), a plain float.

    Computed outside the tape on purpose: the weight is a constant to
    backpropagation. ``invert`` uses sigmoid(-loss_value) instead.
    """
    x = -loss_value if invert else loss_value
    if x >= 0.0:
        s = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        s = e / (1.0 + e)
    return w * s


@dataclass
class LossTerms:
    """One batch's loss breakdown; tensors stay live for backward."""

    l_instance: Tensor
    l_consensus: Tensor
    l_fusion: Tensor
    l_kl: Tensor
    effective_weights: tuple[float, float, float, float]
    total: Tensor

    def values(self) -> tuple[float, float, float, float]:
        return (self.l_instance.item(), self.l_consensus.item(),
                self.l_fusion.item(), self.l_kl.item())


def total_loss(l_instance: Tensor, l_consensus: Tensor, l_fusion: Tensor,
               l_kl: Tensor, base_weights=(1.0, 1.0, 1.0, 1.0),
               invert: bool = False) -> LossTerms:
    """Dynamically weighted sum of the four scalar terms."""
    terms = (l_instance, l_consensus, l_fusion, l_kl)
    if len(base_weights) != 4:
        raise ValueError(f"need 4 base weights, got {len(base_weights)}")
    for t in terms:
        if t.ndim != 0:
            raise ValueError("loss terms must be scalars")
    lambdas = tuple(dynamic_weight(float(w), t.item(), invert)
                    for w, t in zip(base_weights, terms))
    total = mul(terms[0], lambdas[0])
    for lam, t in zip(lambdas[1:], terms[1:]):
        total = add(total, mul(t, lam))
    return LossTerms(l_instance, l_consensus, l_fusion, l_kl, lambdas, total)
