"""Independent checks of mhcvse outputs, in plain numpy.

Each function recomputes a result the program also computes, by another
route, and returns True when the program's output agrees. None of them
compares against stored output: the reference is always computed from the
same inputs in the same run. ``selftest.py`` shows each one rejecting a
corrupted input.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

RECALL_KS = (1, 5, 10)


def _rank(scores: np.ndarray, target: int) -> int:
    """0-based rank of column ``target`` when ties go to the lower index."""
    s = scores[target]
    return int(np.count_nonzero(scores > s) + np.count_nonzero(scores[:target] == s))


def brute_recalls(img: np.ndarray, txt: np.ndarray, owner: np.ndarray) -> list[float]:
    """R@1/5/10 image->text, then text->image, then their mean, by counting
    how many candidates outscore each relevant one (no sorting)."""
    s = img @ txt.T
    n_img, n_txt = s.shape
    best = [min(_rank(s[i], j) for j in range(n_txt) if owner[j] == i)
            for i in range(n_img)]
    ranks_t = [_rank(s[:, j], int(owner[j])) for j in range(n_txt)]
    i2t = [sum(r < k for r in best) / n_img for k in RECALL_KS]
    t2i = [sum(r < k for r in ranks_t) / n_txt for k in RECALL_KS]
    return i2t + t2i + [sum(i2t + t2i) / 6.0]


def recalls_match(reported, img, txt, owner, tol: float = 1e-12) -> bool:
    """``reported`` holds the six recalls and mR in brute_recalls order."""
    ref = brute_recalls(img, txt, owner)
    return len(reported) == 7 and all(abs(a - b) <= tol for a, b in zip(reported, ref))


def chance_mr(n_images: int) -> float:
    """Expected mR of a random ranking of n images with one caption each."""
    return sum(min(k, n_images) / n_images for k in RECALL_KS) / len(RECALL_KS)


def cosines(query: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    q = query / np.sqrt(np.sum(query * query))
    g = gallery / np.sqrt(np.sum(gallery * gallery, axis=1, keepdims=True))
    return np.einsum("nd,d->n", g, q)


def order_is_sorted(order, ref_scores: np.ndarray, tol: float = 1e-12) -> bool:
    """``order`` is a permutation of the candidates, best first under
    ``ref_scores``; scores closer than ``tol`` count as ties."""
    order = np.asarray(order)
    n = len(ref_scores)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        return False
    return bool(np.all(np.diff(ref_scores[order]) <= tol))


def rows_match(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> bool:
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= tol


def unit_rows(rows: np.ndarray, tol: float = 1e-12) -> bool:
    rows = np.atleast_2d(rows)
    return bool(np.all(np.abs(np.sqrt(np.sum(rows * rows, axis=1)) - 1.0) <= tol))


# ---------------------------------------------------------------------------
# training

def hinge(s: np.ndarray, margin: float, mode: str) -> float:
    """Bidirectional hinge ranking loss on a square score matrix, by loops."""
    b = s.shape[0]
    viol_t = [[max(0.0, margin - s[i, i] + s[i, j]) for j in range(b) if j != i]
              for i in range(b)]
    viol_i = [[max(0.0, margin - s[i, i] + s[j, i]) for j in range(b) if j != i]
              for i in range(b)]
    if mode == "sum":
        return (sum(map(sum, viol_t)) + sum(map(sum, viol_i))) / (b * (b - 1))
    return (sum(map(max, viol_t)) + sum(map(max, viol_i))) / b


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """Mean over rows of KL(p || q)."""
    return float(np.mean(np.sum(p * np.log(p / q), axis=1)))


def normalize_rows(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def loss_terms_from(batch, margin: float, mode: str) -> list[float]:
    """Instance, consensus, fusion and KL terms from stacked batch arrays
    (v_image, v_text, c_image, c_text, f_image, f_text, p_image, p_text)."""
    vi, vt, ci, ct, fi, ft, pi, pt = batch
    return [hinge(normalize_rows(vi) @ normalize_rows(vt).T, margin, mode),
            hinge(ci @ ct.T, margin, mode),
            hinge(fi @ ft.T, margin, mode),
            kl(pt, pi)]


def weighted_total(terms, base_weights) -> float:
    """Sum of w * sigmoid(l) * l over the four terms."""
    return sum(w * l / (1.0 + math.exp(-l)) for w, l in zip(base_weights, terms))


def losses_match(reported, reference, tol: float = 1e-10) -> bool:
    return len(reported) == len(reference) and all(
        abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(reported, reference))


def cosine_lr(eta0: float, eta_min: float, period: int, step: int) -> float:
    """Cosine annealing with warm restarts at optimizer step ``step``."""
    phase = (step % period) / period
    return eta_min + (eta0 - eta_min) * (1.0 + math.cos(math.pi * phase)) / 2.0


def lrs_match(reported, expected, tol: float = 1e-14) -> bool:
    return len(reported) == len(expected) and all(
        abs(a - b) <= tol * max(abs(b), 1e-300) for a, b in zip(reported, expected))


def gradient_agrees(analytic: float, numeric: list[float], atol: float = 1e-7,
                    rtol: float = 1e-4) -> bool:
    """Analytic entry against central differences at a few step sizes.

    The losses are piecewise linear (hinge, max, relu), so one step size can
    straddle a kink; agreement at any of them is enough.
    """
    return any(abs(analytic - n) <= atol + rtol * abs(n) for n in numeric)


# ---------------------------------------------------------------------------
# CLI outputs

def parse_eval_csv(text: str) -> list[float]:
    """The six recalls and mR from an eval report, in brute_recalls order."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["direction", "k", "recall"]:
        return []
    try:
        by_key = {(r[0], r[1]): float(r[2]) for r in rows[1:] if len(r) == 3}
    except ValueError:
        return []
    keys = [("image_to_text", str(k)) for k in RECALL_KS] + \
           [("text_to_image", str(k)) for k in RECALL_KS] + [("mean", "")]
    return [by_key[key] for key in keys if key in by_key]


def retrieve_output_ok(stdout: str, ref_scores: np.ndarray, caption_ids: list[int],
                       k: int, print_tol: float = 5.000001e-7,
                       tie_tol: float = 1e-12) -> bool:
    """k lines of caption_id<TAB>score, scores not increasing, each score the
    benchmark's cosine to printing precision, and no unlisted caption
    outscoring a listed one."""
    lines = stdout.strip().splitlines()
    if len(lines) != min(k, len(caption_ids)):
        return False
    col_of = {cid: j for j, cid in enumerate(caption_ids)}
    cols, printed = [], []
    for line in lines:
        parts = line.split("\t")
        try:
            col, score = col_of.get(int(parts[0])), float(parts[1])
        except (ValueError, IndexError):
            return False
        if len(parts) != 2 or col is None:
            return False
        cols.append(col)
        printed.append(score)
    if len(set(cols)) != len(cols):
        return False
    if any(b > a for a, b in zip(printed, printed[1:])):
        return False
    if any(abs(p - ref_scores[c]) > print_tol for p, c in zip(printed, cols)):
        return False
    rest = np.delete(ref_scores, cols)
    return rest.size == 0 or float(np.max(rest)) <= min(ref_scores[cols]) + tie_tol


def lr_curve_ok(text: str, eta0: float, eta_min: float, period: int, steps: int) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["step", "lr"] or len(rows) != steps + 1:
        return False
    try:
        ts, lrs = [int(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]
    except (ValueError, IndexError):
        return False
    return ts == list(range(steps)) and lrs_match(
        lrs, [cosine_lr(eta0, eta_min, period, t) for t in range(steps)])


def same_files(a, b) -> bool:
    """Both directories hold the same file names with the same bytes."""
    a, b = Path(a), Path(b)
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
