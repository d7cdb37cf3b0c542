"""Concept graph construction, GCN propagation, and consensus embeddings."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mhcvse.autodiff import Tape, Tensor, mul, sum as t_sum
from mhcvse.encoders import uniform_init
from mhcvse.gradcheck import max_relative_error, numeric_gradients
from mhcvse.consensus import (
    ConceptGraph,
    build_graph,
    consensus_embed,
    export_adjacency_csv,
    export_concepts_csv,
    gcn_forward,
)


def relu_np(x):
    return np.maximum(x, 0.0)


def softmax_np(v):
    e = np.exp(v - v.max())
    return e / e.sum()


class TestBuildGraph:
    def test_disjoint_concepts_give_identity_adjacency(self):
        # each caption mentions exactly one concept, so there is no
        # co-occurrence mass and only the self-loops survive
        corpus = [["cat"], ["dog"], ["bird"], ["cat"], ["dog"], ["bird"]]
        graph = build_graph(corpus, k=3, dim=4, rng=np.random.default_rng(0))
        assert_allclose(graph.adjacency, np.eye(3), rtol=0, atol=0)

    def test_two_concepts_always_together(self):
        corpus = [["sun", "sky"], ["sky", "sun"], ["sun", "sky"]]
        graph = build_graph(corpus, k=2, dim=4, rng=np.random.default_rng(0))
        # self-loop 1 plus three co-occurrences on each off-diagonal,
        # so every raw row is [1, 3] in some order and normalizes the same
        assert_allclose(graph.adjacency,
                        np.array([[0.25, 0.75], [0.75, 0.25]]),
                        rtol=0, atol=1e-15)

    def test_row_sums_are_one(self):
        rng = np.random.default_rng(11)
        vocab = [f"tok{i}" for i in range(12)]
        corpus = [list(rng.choice(vocab, size=rng.integers(2, 6), replace=False))
                  for _ in range(40)]
        graph = build_graph(corpus, k=8, dim=4, rng=rng)
        assert_allclose(graph.adjacency.sum(axis=1), np.ones(8),
                        rtol=0, atol=1e-10)

    def test_concepts_ranked_by_frequency(self):
        corpus = [["a", "b"], ["a", "b"], ["a", "c"], ["a"]]
        graph = build_graph(corpus, k=3, dim=4, rng=np.random.default_rng(0))
        assert graph.concepts == ["a", "b", "c"]
        assert graph.frequencies == [4, 2, 1]

    def test_frequency_ties_break_alphabetically(self):
        corpus = [["zebra"], ["apple"], ["mango"]]
        graph = build_graph(corpus, k=2, dim=4, rng=np.random.default_rng(0))
        assert graph.concepts == ["apple", "mango"]

    def test_stopwords_excluded(self):
        corpus = [["the", "cat"], ["the", "dog"], ["the", "cat"]]
        graph = build_graph(corpus, k=2, dim=4, rng=np.random.default_rng(0),
                            stopwords=frozenset({"the"}))
        assert graph.concepts == ["cat", "dog"]

    def test_duplicate_tokens_in_caption_count_once_for_cooccurrence(self):
        corpus = [["a", "a", "b"]]
        graph = build_graph(corpus, k=2, dim=4, rng=np.random.default_rng(0))
        # raw rows [1, 1]: one self-loop plus one co-occurrence each
        assert_allclose(graph.adjacency, np.full((2, 2), 0.5), rtol=0, atol=0)

    def test_k_exceeding_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_graph([["a", "b"]], k=3, dim=4, rng=np.random.default_rng(0))

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_graph([["a"]], k=0, dim=4, rng=np.random.default_rng(0))

    def test_embedding_shape_and_size(self):
        graph = build_graph([["a", "b", "c"]], k=3, dim=6,
                            rng=np.random.default_rng(0))
        assert graph.concept_embeddings.shape == (3, 6)
        assert graph.size == 3

    def test_mismatched_adjacency_shape_rejected(self):
        with pytest.raises(ValueError, match="adjacency"):
            ConceptGraph(["a", "b"], [1, 1], np.eye(3),
                         Tensor(np.zeros((2, 4))))

    def test_embedding_row_count_must_match_concepts(self):
        with pytest.raises(ValueError, match="per concept"):
            ConceptGraph(["a", "b"], [1, 1], np.eye(2),
                         Tensor(np.zeros((3, 4))))


class TestGcnForward:
    def test_identity_propagation_fixes_nonnegative_features(self):
        rng = np.random.default_rng(3)
        h0 = np.abs(rng.normal(size=(4, 5)))
        graph = ConceptGraph([f"c{i}" for i in range(4)], [1] * 4,
                             np.eye(4), Tensor(h0))
        out = gcn_forward(graph, Tensor(np.eye(5)), Tensor(np.eye(5)))
        assert_allclose(out.data, h0, rtol=0, atol=0)

    def test_uniform_adjacency_collapses_rows(self):
        rng = np.random.default_rng(4)
        k = 5
        graph = ConceptGraph([f"c{i}" for i in range(k)], [1] * k,
                             np.full((k, k), 1.0 / k),
                             Tensor(rng.normal(size=(k, 3))))
        w0, w1 = uniform_init(rng, (3, 3), 3), uniform_init(rng, (3, 3), 3)
        out = gcn_forward(graph, w0, w1).data
        for i in range(1, k):
            assert_allclose(out[i], out[0], rtol=0, atol=1e-12)

    def test_small_instance_matches_layerwise_oracle(self):
        rng = np.random.default_rng(21)
        adjacency = rng.uniform(0.1, 1.0, size=(3, 3))
        adjacency /= adjacency.sum(axis=1, keepdims=True)
        h0 = rng.normal(size=(3, 2))
        w0 = rng.normal(size=(2, 2))
        w1 = rng.normal(size=(2, 2))
        graph = ConceptGraph(["a", "b", "c"], [1, 1, 1], adjacency, Tensor(h0))
        h1 = relu_np(adjacency @ h0) @ w0
        h2 = relu_np(adjacency @ h1) @ w1

        assert_allclose(gcn_forward(graph, Tensor(w0), Tensor(w1)).data, h2,
                        rtol=0, atol=1e-12)


class TestConsensusEmbed:
    def _setup(self, seed=5, k=4, d=6):
        rng = np.random.default_rng(seed)
        gcn_out = Tensor(rng.normal(size=(k, d)))
        predictor = uniform_init(rng, (d, k), d)
        instance = Tensor(rng.normal(size=(1, d)))
        return instance, gcn_out, predictor

    def test_one_hot_distribution_selects_gcn_row(self):
        rng = np.random.default_rng(6)
        k, d = 4, 3
        gcn_out = Tensor(rng.normal(size=(k, d)))
        instance = Tensor(np.ones((1, d)))
        # force huge logit mass on concept 2
        predictor = np.zeros((d, k))
        predictor[:, 2] = 200.0
        emb, dist = consensus_embed(instance, gcn_out, Tensor(predictor))
        assert_allclose(dist.data[0], np.eye(k)[2], rtol=0, atol=1e-12)
        row = gcn_out.data[2]
        assert_allclose(emb.data[0], row / np.linalg.norm(row), rtol=0, atol=1e-12)

    def test_uniform_logits_give_mean_of_rows(self):
        rng = np.random.default_rng(7)
        k, d = 5, 4
        gcn_out = Tensor(rng.normal(size=(k, d)))
        instance = Tensor(rng.normal(size=(1, d)))
        emb, dist = consensus_embed(instance, gcn_out, Tensor(np.zeros((d, k))))
        assert_allclose(dist.data[0], np.full(k, 1.0 / k), rtol=0, atol=1e-15)
        mean = gcn_out.data.mean(axis=0)
        assert_allclose(emb.data[0], mean / np.linalg.norm(mean), rtol=0, atol=1e-12)

    def test_distribution_sums_to_one_and_is_positive(self):
        for seed in range(20):
            instance, gcn_out, predictor = self._setup(seed=seed)
            _, dist = consensus_embed(instance, gcn_out, predictor)
            assert abs(dist.data.sum() - 1.0) <= 1e-12
            assert (dist.data > 0).all()

    def test_embedding_is_unit_norm(self):
        instance, gcn_out, predictor = self._setup(seed=9)
        emb, _ = consensus_embed(instance, gcn_out, predictor)
        assert abs(np.linalg.norm(emb.data) - 1.0) <= 1e-12

    def test_rank3_instance_rejected(self):
        rng = np.random.default_rng(10)
        gcn_out = Tensor(rng.normal(size=(3, 4)))
        predictor = uniform_init(rng, (4, 3), 4)
        with pytest.raises(ValueError, match=r"\(B, d\) rows"):
            consensus_embed(Tensor(rng.normal(size=(2, 2, 4))), gcn_out, predictor)

    def test_rows_match_one_instance_at_a_time(self):
        rng = np.random.default_rng(11)
        gcn_out = Tensor(rng.normal(size=(3, 4)))
        predictor = uniform_init(rng, (4, 3), 4)
        rows = rng.normal(size=(5, 4))
        emb, dist = consensus_embed(Tensor(rows), gcn_out, predictor)
        for i, r in enumerate(rows):
            e1, d1 = consensus_embed(Tensor(r[None]), gcn_out, predictor)
            assert_allclose(emb.data[i], e1.data[0], rtol=0, atol=1e-12)
            assert_allclose(dist.data[i], d1.data[0], rtol=0, atol=1e-12)

    def test_relabeling_concepts_leaves_embedding_unchanged(self):
        # permuting concept order, adjacency, node features, and predictor
        # columns together is a pure relabeling and must not move the output
        rng = np.random.default_rng(12)
        k, d = 6, 5
        adjacency = rng.uniform(0.1, 1.0, size=(k, k))
        adjacency /= adjacency.sum(axis=1, keepdims=True)
        h0 = rng.normal(size=(k, d))
        w0, w1 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        predictor = rng.normal(size=(d, k))
        instance = Tensor(rng.normal(size=(1, d)))
        perm = rng.permutation(k)

        def run(adj, feats, pred):
            graph = ConceptGraph([f"c{i}" for i in range(k)], [1] * k,
                                 adj, Tensor(feats))
            out = gcn_forward(graph, Tensor(w0), Tensor(w1))
            emb, dist = consensus_embed(instance, out, Tensor(pred))
            return emb.data[0], dist.data[0]

        base_emb, base_dist = run(adjacency, h0, predictor)
        perm_emb, perm_dist = run(adjacency[np.ix_(perm, perm)], h0[perm],
                                  predictor[:, perm])
        assert_allclose(perm_emb, base_emb, rtol=0, atol=1e-10)
        assert_allclose(perm_dist, base_dist[perm], rtol=0, atol=1e-10)

    def test_gradient_check_through_full_pipeline(self):
        rng = np.random.default_rng(14)
        k, d = 3, 4
        adjacency = rng.uniform(0.1, 1.0, size=(k, k))
        adjacency /= adjacency.sum(axis=1, keepdims=True)
        feats = rng.normal(size=(k, d))
        w0, w1 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        predictor = rng.normal(size=(d, k))
        inst = rng.normal(size=(1, d))
        probe = rng.normal(size=d)

        def loss_value(f, a, b, p, x):
            h1 = relu_np(adjacency @ f) @ a
            h2 = relu_np(adjacency @ h1) @ b
            dist = softmax_np(x[0] @ p)
            mix = dist @ h2
            return probe @ (mix / np.linalg.norm(mix))

        leaves = {
            "feats": Tensor(feats.copy()), "w0": Tensor(w0.copy()),
            "w1": Tensor(w1.copy()), "predictor": Tensor(predictor.copy()),
            "instance": Tensor(inst.copy()),
        }
        graph = ConceptGraph(["a", "b", "c"], [1] * k, adjacency,
                             leaves["feats"])
        with Tape() as tape:
            out = gcn_forward(graph, leaves["w0"], leaves["w1"])
            emb, _ = consensus_embed(leaves["instance"], out, leaves["predictor"])
            loss = t_sum(mul(emb, Tensor(probe[None])))
            grads = tape.backward(loss)

        numeric = numeric_gradients(
            lambda: loss_value(*(t.data for t in leaves.values())), leaves, h=1e-6)
        for name, t in leaves.items():
            assert max_relative_error(grads[t], numeric[name]) < 1e-4, name


class TestCsvExports:
    def test_concepts_csv_round_trip(self, tmp_path):
        corpus = [["a", "b"], ["a", "b"], ["a", "c"]]
        graph = build_graph(corpus, k=3, dim=4, rng=np.random.default_rng(0))
        path = tmp_path / "concepts.csv"
        export_concepts_csv(graph, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,concept,frequency"
        assert lines[1] == "0,a,3"
        assert lines[2] == "1,b,2"
        assert lines[3] == "2,c,1"

    def test_adjacency_csv_values_parse_back_exactly(self, tmp_path):
        import csv as csv_mod

        corpus = [["a", "b"], ["b", "c"], ["a", "c"], ["a", "b", "c"]]
        graph = build_graph(corpus, k=3, dim=4, rng=np.random.default_rng(0))
        path = tmp_path / "adjacency.csv"
        export_adjacency_csv(graph, path)
        with open(path) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == ["concept", "a", "b", "c"]
        parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert_allclose(parsed, graph.adjacency, rtol=0, atol=0)
