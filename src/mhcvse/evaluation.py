"""Bidirectional retrieval metrics: cosine similarity, R@K, and their mean.

Image-to-text counts a hit when any caption of the query image lands in
the top K; text-to-image looks for the single owning image. Ranking ties
break toward the lower index, and mR is the mean of the six recalls
(R@1/5/10 in both directions).

Recalls rank by counting, not sorting: a candidate's rank is the number
of candidates that score higher plus the number that score the same at a
lower index, which is its place in a stable sort, so the tie rule is the
one :func:`rank_candidates` applies. Queries are ranked in blocks of
:data:`RANK_ROWS` rows, and :func:`evaluate` computes each block's scores
just before it counts them, so neither the full score matrix nor a
sorted copy of it is ever held.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["RETRIEVAL_LEVELS", "RetrievalResult", "similarity_matrix", "recall_at_k",
           "rank_candidates", "evaluate", "write_eval_report"]

RECALL_KS = (1, 5, 10)
# embedding levels a model can be scored at
RETRIEVAL_LEVELS = ("fused", "instance", "consensus")
# query rows ranked at once: a block holds RANK_ROWS x candidates scores
RANK_ROWS = 256


@dataclass
class RetrievalResult:
    """Six recalls and their mean; 'text' is image->text retrieval."""

    text_r1: float
    text_r5: float
    text_r10: float
    image_r1: float
    image_r5: float
    image_r10: float
    mr: float

    def as_rows(self) -> list[tuple[str, int, float]]:
        return [
            ("image_to_text", 1, self.text_r1),
            ("image_to_text", 5, self.text_r5),
            ("image_to_text", 10, self.text_r10),
            ("text_to_image", 1, self.image_r1),
            ("text_to_image", 5, self.image_r5),
            ("text_to_image", 10, self.image_r10),
        ]


def similarity_matrix(img_embs, txt_embs) -> np.ndarray:
    """Cosine similarities for L2-normalized rows: (N, d') x (N_t, d') -> (N, N_t)."""
    a = np.asarray(img_embs, dtype=np.float64)
    b = np.asarray(txt_embs, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("similarity_matrix needs rank-2 embedding matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"embedding widths differ: {a.shape[1]} vs {b.shape[1]}")
    return a @ b.T


def rank_candidates(scores: np.ndarray) -> np.ndarray:
    """Candidate indices per query, best first; equal scores keep lower index.

    The indices are int32, half the memory of numpy's default index type
    for a ranking the caller keeps; a query has far fewer than 2**31
    candidates.
    """
    scores = np.asarray(scores)
    return np.argsort(-scores, axis=-1, kind="stable").astype(np.int32)


def recall_at_k(scores, relevant, k: int) -> float:
    """Fraction of queries with a relevant candidate in the top k by score.

    ``relevant[i]`` is the collection of relevant column indices for query
    row i; each must be an integer in [0, candidates). k larger than the
    candidate count retrieves everything. A NaN score has no rank, so it
    is refused.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a rank-2 matrix")
    if np.isnan(scores).any():
        raise ValueError("scores hold NaN")
    return _recalls(lambda rows: scores[rows], scores.shape, relevant, (k,))[0]


def _recalls(score_rows, shape: tuple[int, int], relevant, ks) -> list[float]:
    """:func:`recall_at_k` at each k of ``ks`` for a (queries, candidates)
    score matrix of ``shape``, ranked in blocks: ``score_rows(rows)`` gives
    the scores of the query rows in slice ``rows``."""
    for k in ks:
        # bool is an int subclass, but True is not a rank
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {k!r}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    n, m = shape
    if len(relevant) != n:
        raise ValueError(f"{len(relevant)} relevance sets for {n} queries")
    counts, flat = [], []
    for i, rel in enumerate(relevant):
        rel = list(rel)
        if not rel:
            raise ValueError(f"query {i} has no relevant candidates")
        for c in rel:
            # bool is an int subclass, but True is not an index
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < m:
                raise ValueError(f"query {i}: relevant candidate {c!r} is not an "
                                 f"integer in [0, {m})")
        counts.append(len(rel))
        flat.extend(rel)
    cand = np.array(flat, dtype=np.intp)
    query = np.repeat(np.arange(n), counts)
    starts = np.concatenate([[0], np.cumsum(counts)])
    cols = np.arange(m)
    # per query, the rank of its best-placed relevant candidate: the one with
    # the highest score, and the lowest index among equal scores
    first = np.empty(n, dtype=np.intp)
    for a in range(0, n, RANK_ROWS):
        b = min(a + RANK_ROWS, n)
        s = score_rows(slice(a, b))
        pairs = slice(starts[a], starts[b])
        q, c = query[pairs] - a, cand[pairs]
        t = s[q, c]
        best = np.lexsort((c, -t, q))[starts[a:b] - starts[a]]
        r, t = c[best][:, None], t[best][:, None]
        ahead = s > t
        ahead |= (s == t) & (cols < r)
        first[a:b] = np.count_nonzero(ahead, axis=1)
    return [int(np.count_nonzero(first < k)) / n for k in ks]


def evaluate(model, dataset, level: str | None = None) -> RetrievalResult:
    """Both retrieval directions at K = 1, 5, 10 for one split, each ranked once."""
    img, txt, image_ids, owner = model.embed_dataset(dataset, level)
    n_images = len(image_ids)
    captions_of = [np.nonzero(owner == i)[0].tolist() for i in range(n_images)]
    for i, caps in enumerate(captions_of):
        if not caps:
            raise ValueError(f"image {image_ids[i]} has no captions")
    t_r = _recalls(lambda rows: similarity_matrix(img[rows], txt), (len(img), len(txt)),
                   captions_of, RECALL_KS)
    i_r = _recalls(lambda rows: similarity_matrix(txt[rows], img), (len(txt), len(img)),
                   [[int(o)] for o in owner], RECALL_KS)
    mr = float(np.mean(t_r + i_r))
    return RetrievalResult(t_r[0], t_r[1], t_r[2], i_r[0], i_r[1], i_r[2], mr)


def write_eval_report(path, result: RetrievalResult) -> None:
    """CSV with one row per direction/K pair and a final mR row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction", "k", "recall"])
        for direction, k, value in result.as_rows():
            writer.writerow([direction, k, repr(value)])
        writer.writerow(["mean", "", repr(result.mr)])
