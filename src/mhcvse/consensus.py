"""Consensus-level embeddings from a concept co-occurrence graph and a GCN.

Concepts are the K most frequent non-stopword tokens of the training
corpus. The adjacency has a self-loop of exactly 1 on the diagonal,
caption-level co-occurrence counts off the diagonal, and is then row
normalized; it stays fixed while the concept node features are learned.

Each of the two GCN layers applies the activation to the propagated
features before the weight multiply, as the paper writes it,

    H_next = relu(A @ H) @ W,

with no activation on the final product. A consensus head is a (d, K)
predictor matrix: softmax(v @ predictor) is an instance row v's concept
distribution, which mixes the GCN node outputs into v's consensus
embedding. :func:`gcn_forward` and :func:`consensus_embed` take these
tensors as arguments; the model owns them and names them in its
checkpoint.
"""

from __future__ import annotations

import csv
from collections import Counter

import numpy as np

from .autodiff import Tensor, l2_normalize_rows, matmul, relu, softmax_rows
from .encoders import uniform_init

__all__ = [
    "ConceptGraph", "build_graph", "gcn_forward", "consensus_embed",
    "export_concepts_csv", "export_adjacency_csv",
]


class ConceptGraph:
    """Fixed row-stochastic adjacency over K concepts plus learnable node features."""

    def __init__(self, concepts: list[str], frequencies: list[int],
                 adjacency: np.ndarray, concept_embeddings: Tensor):
        self.concepts = concepts
        self.frequencies = frequencies
        self.adjacency = np.asarray(adjacency, dtype=np.float64)
        self.concept_embeddings = concept_embeddings
        k = len(concepts)
        if self.adjacency.shape != (k, k):
            raise ValueError(f"adjacency shape {self.adjacency.shape} != ({k}, {k})")
        if concept_embeddings.ndim != 2 or concept_embeddings.shape[0] != k:
            raise ValueError(f"concept embeddings shape {concept_embeddings.shape}: "
                             f"need one row per concept, ({k}, d)")

    @property
    def size(self) -> int:
        return len(self.concepts)


def build_graph(corpus, k: int, dim: int, rng: np.random.Generator,
                stopwords=frozenset()) -> ConceptGraph:
    """Concept selection and adjacency from an iterable of token lists.

    Concepts are the k most frequent non-stopword tokens (ties broken
    alphabetically). adjacency[i][j] counts captions containing both i and
    j for i != j, the diagonal is the self-loop 1, and rows are normalized
    to sum to 1.
    """
    if k < 1:
        raise ValueError(f"need at least one concept, got k={k}")
    captions = [list(tokens) for tokens in corpus]
    counts = Counter()
    for tokens in captions:
        counts.update(t for t in tokens if t not in stopwords)
    if len(counts) < k:
        raise ValueError(f"k={k} exceeds the {len(counts)} distinct "
                         "non-stopword tokens in the corpus")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]
    concepts = [tok for tok, _ in ranked]
    frequencies = [cnt for _, cnt in ranked]
    concept_index = {tok: i for i, tok in enumerate(concepts)}

    adjacency = np.eye(k)
    for tokens in captions:
        present = sorted({concept_index[t] for t in tokens if t in concept_index})
        for a in range(len(present)):
            for b in range(a + 1, len(present)):
                i, j = present[a], present[b]
                adjacency[i, j] += 1.0
                adjacency[j, i] += 1.0
    adjacency /= adjacency.sum(axis=1, keepdims=True)

    embeddings = uniform_init(rng, (k, dim), dim)
    return ConceptGraph(concepts, frequencies, adjacency, embeddings)


def gcn_forward(graph: ConceptGraph, w0: Tensor, w1: Tensor) -> Tensor:
    """Two propagation layers over the fixed adjacency, with (d, d) layer
    weights ``w0`` and ``w1``: (K, d) -> (K, d)."""
    a = Tensor(graph.adjacency)
    h = matmul(relu(matmul(a, graph.concept_embeddings)), w0)
    return matmul(relu(matmul(a, h)), w1)


def consensus_embed(instance: Tensor, gcn_output: Tensor,
                    predictor: Tensor) -> tuple[Tensor, Tensor]:
    """Consensus embeddings and concept distributions for a batch of instances.

    The (d, K) ``predictor`` turns each instance row into concept logits;
    their softmax weights the GCN node outputs, and the mixture is
    L2-normalized. Returns (embeddings (B, d), concept_dists (B, K)) for
    (B, d) rows.
    """
    if instance.ndim != 2:
        raise ValueError(f"instance embeddings must be (B, d) rows, got {instance.shape}")
    dist = softmax_rows(matmul(instance, predictor))
    embedding = l2_normalize_rows(matmul(dist, gcn_output))
    return embedding, dist


def export_concepts_csv(graph: ConceptGraph, path) -> None:
    """Write (index, concept, frequency) rows for inspection."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "concept", "frequency"])
        for i, (tok, freq) in enumerate(zip(graph.concepts, graph.frequencies)):
            writer.writerow([i, tok, freq])


def export_adjacency_csv(graph: ConceptGraph, path) -> None:
    """Write the row-normalized adjacency with concept-labeled rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["concept"] + graph.concepts)
        for tok, row_vals in zip(graph.concepts, graph.adjacency):
            writer.writerow([tok] + [repr(float(v)) for v in row_vals])
