"""Similarity ranking, Recall@K against brute-force oracles, evaluate()."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tinymodel import tiny_setup

import mhcvse.evaluation
from mhcvse.evaluation import (
    RetrievalResult,
    evaluate,
    rank_candidates,
    recall_at_k,
    similarity_matrix,
    write_eval_report,
)


def recall_oracle(scores, relevant, k):
    """Pairwise-comparison rank of each relevant candidate; no sorting."""
    hits = 0
    for i, rel in enumerate(relevant):
        best_rank = min(
            sum(1 for j in range(scores.shape[1])
                if scores[i, j] > scores[i, r]
                or (scores[i, j] == scores[i, r] and j < r))
            for r in rel)
        hits += best_rank < k
    return hits / scores.shape[0]


def argsort_recalls(scores, relevant, ks):
    """Recall at each k from a stable argsort of every row, walked in order:
    the ranking the count-based recalls replaced."""
    order = np.argsort(-scores, axis=-1, kind="stable")[:, :max(ks)].tolist()
    first = []
    for i, rel in enumerate(relevant):
        rel = set(rel)
        first.append(next((r for r, c in enumerate(order[i]) if c in rel), max(ks)))
    return [sum(f < k for f in first) / scores.shape[0] for k in ks]


def tied_scores(rng, n, m):
    """Random scores with exact ties: duplicated rows, and one value
    repeated at several indices of many rows."""
    scores = rng.normal(size=(n, m))
    for i in rng.choice(n, size=n // 3, replace=False):
        scores[i] = scores[rng.integers(n)]
    for i in range(0, n, 2):
        cols = rng.choice(m, size=min(m, 4), replace=False)
        scores[i, cols] = scores[i, cols[0]]
    return scores


class StubModel:
    """Fixed embeddings standing in for a trained model inside evaluate()."""

    def __init__(self, img, txt, owner):
        self.img = np.asarray(img, dtype=np.float64)
        self.txt = np.asarray(txt, dtype=np.float64)
        self.owner = np.asarray(owner)
        self.seen_level = "unset"

    def embed_dataset(self, dataset, level=None):
        self.seen_level = level
        return self.img, self.txt, list(range(len(self.img))), self.owner


class TestSimilarityMatrix:
    def test_self_similarity_of_a_unit_vector(self):
        v = np.array([[1.0, 0.0, 0.0]])
        assert_allclose(similarity_matrix(v, v), [[1.0]], rtol=0, atol=0)

    def test_orthogonal_rows_score_zero(self):
        s = similarity_matrix(np.eye(3), np.eye(3))
        assert_allclose(s, np.eye(3), rtol=0, atol=0)

    def test_matches_pairwise_dot_product_loop(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(7, 8))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        s = similarity_matrix(a, b)
        assert s.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert_allclose(s[i, j], float(np.dot(a[i], b[j])),
                                rtol=0, atol=1e-12)
        assert np.all(np.abs(s) <= 1.0 + 1e-9)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths differ"):
            similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_rank1_input_rejected(self):
        with pytest.raises(ValueError, match="rank-2"):
            similarity_matrix(np.ones(3), np.ones((2, 3)))


class TestRankCandidates:
    def test_hand_built_ranking(self):
        s = np.array([[0.1, 0.9, 0.5],
                      [0.8, 0.2, 0.7],
                      [0.3, 0.6, 0.4]])
        expected = [[1, 2, 0], [0, 2, 1], [1, 2, 0]]
        order = rank_candidates(s)
        assert order.tolist() == expected
        assert order.dtype == np.int32

    def test_ties_keep_the_lower_index(self):
        order = rank_candidates(np.array([[0.5, 0.5, 0.5]]))
        assert order.tolist() == [[0, 1, 2]]


class TestRecallAtK:
    def test_diagonal_dominant_scores_are_perfect(self):
        s = np.eye(4) + 0.01
        assert recall_at_k(s, [[i] for i in range(4)], 1) == 1.0

    def test_hand_built_three_by_three(self):
        s = np.array([[0.1, 0.9, 0.5],
                      [0.8, 0.2, 0.7],
                      [0.3, 0.6, 0.4]])
        rel = [[0], [1], [2]]
        assert recall_at_k(s, rel, 1) == 0.0
        assert recall_at_k(s, rel, 2) == pytest.approx(1 / 3)
        assert recall_at_k(s, rel, 3) == 1.0

    def test_matches_pairwise_rank_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 12))
            scores = np.round(rng.normal(size=(n, m)), 1)  # provoke ties
            relevant = [rng.choice(m, size=int(rng.integers(1, min(4, m + 1))),
                                   replace=False).tolist() for _ in range(n)]
            for k in (1, 2, 5, m, m + 3):
                assert recall_at_k(scores, relevant, k) == \
                    recall_oracle(scores, relevant, k)

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(71)
        scores = rng.normal(size=(10, 15))
        relevant = [[int(rng.integers(15))] for _ in range(10)]
        values = [recall_at_k(scores, relevant, k) for k in range(1, 16)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_k_beyond_candidates_retrieves_everything(self):
        scores = np.zeros((3, 4))
        assert recall_at_k(scores, [[3], [2], [1]], 100) == 1.0

    def test_chance_level_on_random_scores(self):
        rng = np.random.default_rng(73)
        scores = rng.normal(size=(10_000, 100))
        relevant = [[int(rng.integers(100))] for _ in range(10_000)]
        r1 = recall_at_k(scores, relevant, 1)
        assert abs(r1 - 0.01) < 0.005

    def test_singleton_tie_goes_to_the_lower_index(self):
        scores = np.full((1, 3), 0.5)
        assert recall_at_k(scores, [[0]], 1) == 1.0
        assert recall_at_k(scores, [[2]], 1) == 0.0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            recall_at_k(np.eye(2), [[0], [1]], 0)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "1"])
    def test_k_that_is_not_an_integer_rejected(self, k):
        # 1.5, 2.0 and True each once ranked as if k were an integer
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            recall_at_k(np.array([[0.1, 0.5, 0.3]]), [[1]], k)

    def test_numpy_integer_k_accepted(self):
        assert recall_at_k(np.array([[0.1, 0.5, 0.3]]), [[2]], np.int64(2)) == 1.0

    def test_empty_relevance_set_rejected(self):
        with pytest.raises(ValueError, match="no relevant"):
            recall_at_k(np.eye(2), [[0], []], 1)

    def test_relevance_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="relevance sets"):
            recall_at_k(np.eye(3), [[0], [1]], 1)

    def test_rank1_scores_rejected(self):
        with pytest.raises(ValueError, match="rank-2"):
            recall_at_k(np.ones(3), [[0]], 1)

    @pytest.mark.parametrize("entry", [5, 3, -1, 1.0, True, "1", None])
    def test_relevant_entry_outside_the_candidates_rejected(self, entry):
        # each once read as a miss (5, 3, -1) or as index 1 (1.0, True)
        s = np.array([[0.1, 0.5, 0.3], [0.2, 0.1, 0.9]])
        with pytest.raises(ValueError, match=r"query 1: .* not an integer in \[0, 3\)"):
            recall_at_k(s, [[0], [2, entry]], 1)

    def test_nan_scores_rejected(self):
        # no candidate scores higher than NaN, so counting would rank it first
        s = np.array([[0.1, np.nan, 0.3]])
        with pytest.raises(ValueError, match="NaN"):
            recall_at_k(s, [[1]], 1)

    def test_numpy_integer_entries_accepted(self):
        s = np.array([[0.1, 0.5, 0.3]])
        assert recall_at_k(s, [np.array([1])], 1) == 1.0
        assert recall_at_k(s, [[np.int32(2)]], 1) == 0.0


class TestCountedRanksMatchArgsort:
    """The count-based recalls against a stable argsort of every row, with
    blocks smaller than the query count so block edges are crossed."""

    @pytest.mark.parametrize("rows", [1, 3, 7, 256])
    def test_random_scores_with_ties(self, rows, monkeypatch):
        monkeypatch.setattr(mhcvse.evaluation, "RANK_ROWS", rows)
        rng = np.random.default_rng([89, rows])
        for _ in range(40):
            n, m = int(rng.integers(2, 20)), int(rng.integers(1, 15))
            scores = tied_scores(rng, n, m)
            # several relevant candidates per query, repeats included
            relevant = [rng.choice(m, size=int(rng.integers(1, 6))).tolist()
                        for _ in range(n)]
            ks = (1, 2, 5, m, m + 3)
            got = [recall_at_k(scores, relevant, k) for k in ks]
            assert got == argsort_recalls(scores, relevant, ks)
            assert all(type(g) is float for g in got)

    def test_evaluate_ranks_both_directions_in_blocks(self, monkeypatch):
        rng = np.random.default_rng(97)
        img = rng.normal(size=(11, 4))
        txt = rng.normal(size=(33, 4))
        img[5] = img[2]
        txt[[7, 20, 31]] = txt[4]
        txt[9] = img[0]
        owner = rng.permutation(np.repeat(np.arange(11), 3))
        monkeypatch.setattr(mhcvse.evaluation, "RANK_ROWS", 4)
        r = evaluate(StubModel(img, txt, owner), dataset=None)
        scores = img @ txt.T
        text = argsort_recalls(scores, [np.flatnonzero(owner == i) for i in range(11)],
                               (1, 5, 10))
        image = argsort_recalls(scores.T, [[o] for o in owner], (1, 5, 10))
        assert [r.text_r1, r.text_r5, r.text_r10] == text
        assert [r.image_r1, r.image_r5, r.image_r10] == image


class TestEvaluate:
    def test_separable_toy_is_perfect(self):
        # two orthogonal images, two captions each sitting on the same axes
        img = np.eye(3)[:2]
        txt = np.vstack([np.eye(3)[0], np.eye(3)[0], np.eye(3)[1], np.eye(3)[1]])
        result = evaluate(StubModel(img, txt, [0, 0, 1, 1]), dataset=None)
        assert result == RetrievalResult(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_any_caption_of_the_image_counts_as_a_hit(self):
        # image 0's best caption is its second one; still a top-1 hit
        img = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        txt = np.array([[1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0]])
        result = evaluate(StubModel(img, txt, [0, 0, 1]), dataset=None)
        assert result.text_r1 == 1.0

    def test_mean_recall_is_the_arithmetic_mean(self):
        rng = np.random.default_rng(79)
        img = rng.normal(size=(6, 4))
        txt = rng.normal(size=(12, 4))
        owner = np.repeat(np.arange(6), 2)
        r = evaluate(StubModel(img, txt, owner), dataset=None)
        six = [r.text_r1, r.text_r5, r.text_r10,
               r.image_r1, r.image_r5, r.image_r10]
        assert_allclose(r.mr, np.mean(six), rtol=0, atol=1e-15)
        assert r.text_r1 <= r.text_r5 <= r.text_r10
        assert r.image_r1 <= r.image_r5 <= r.image_r10

    def test_consistent_reordering_leaves_the_result_unchanged(self):
        rng = np.random.default_rng(83)
        img = rng.normal(size=(5, 4))
        txt = rng.normal(size=(10, 4))
        owner = np.repeat(np.arange(5), 2)
        base = evaluate(StubModel(img, txt, owner), dataset=None)

        img_perm = rng.permutation(5)
        txt_perm = rng.permutation(10)
        relabel = np.empty(5, dtype=int)
        relabel[img_perm] = np.arange(5)
        shuffled = evaluate(StubModel(img[img_perm], txt[txt_perm],
                                      relabel[owner[txt_perm]]), dataset=None)
        assert shuffled == base

    def test_image_without_captions_rejected(self):
        img = np.eye(3)[:2]
        txt = np.eye(3)[:1]
        with pytest.raises(ValueError, match="no captions"):
            evaluate(StubModel(img, txt, [0]), dataset=None)

    def test_level_argument_reaches_the_embedder(self):
        img = np.eye(2)
        stub = StubModel(img, img, [0, 1])
        evaluate(stub, dataset=None, level="instance")
        assert stub.seen_level == "instance"

    def test_untrained_tiny_model_yields_valid_recalls(self):
        model, _, val = tiny_setup()
        result = evaluate(model, val)
        assert 0.0 <= result.text_r1 <= result.text_r5 <= result.text_r10 <= 1.0
        assert 0.0 <= result.image_r1 <= result.image_r5 <= result.image_r10 <= 1.0
        assert_allclose(result.mr,
                        np.mean([result.text_r1, result.text_r5, result.text_r10,
                                 result.image_r1, result.image_r5,
                                 result.image_r10]), rtol=0, atol=1e-15)


class TestEvalReport:
    def test_report_layout_and_values(self, tmp_path):
        result = RetrievalResult(0.25, 0.5, 0.75, 0.125, 0.375, 0.625, 0.4375)
        path = tmp_path / "eval_report.csv"
        write_eval_report(path, result)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "direction,k,recall"
        assert lines[1] == "image_to_text,1,0.25"
        assert lines[4] == "text_to_image,1,0.125"
        assert lines[-1] == "mean,,0.4375"
        assert len(lines) == 8
