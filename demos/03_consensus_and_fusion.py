"""
Concept graph, consensus embeddings, and fusion
===============================================

Captions mention things together: "dog" shows up near "grass", "ball"
near "dog". A concept graph counts those co-occurrences over the corpus,
a two-layer GCN smooths learned concept embeddings over it, and any
instance embedding can then be re-expressed as a mixture of concepts (its
consensus embedding). Finally, fusion combines the instance-level and
consensus-level views of the same thing into one vector.
"""

import numpy as np

from mhcvse import FusionParams, Tensor, build_graph, consensus_embed, fuse, gcn_forward
from mhcvse.encoders import uniform_init
from mhcvse.fusion import fusion_weights

rng = np.random.default_rng(2)

# 1. A toy corpus. Concepts are the k most frequent tokens; the adjacency
#    row-normalizes co-occurrence counts (with self-loops), so each row is
#    a distribution over neighbors.
corpus = [
    ["dog", "grass", "running"],
    ["dog", "ball", "grass"],
    ["cat", "sofa"],
    ["dog", "ball", "park"],
    ["cat", "window", "sofa"],
    ["dog", "park", "running"],
]
k, d = 6, 16
graph = build_graph(iter(corpus), k, d, rng)
print("concepts by frequency:", list(zip(graph.concepts, graph.frequencies)))
print(f"adjacency rows sum to one: "
      f"{np.allclose(graph.adjacency.sum(axis=1), 1.0, atol=1e-12)}")

dog = graph.concepts.index("dog")
print("dog row of the adjacency (who dog co-occurs with):")
for tok, w in zip(graph.concepts, graph.adjacency[dog]):
    print(f"  {tok:8s} {w:.3f}")

# 2. Two GCN layers, with (d, d) weights w0 and w1, propagate the concept
#    embeddings along those edges.
w0, w1 = uniform_init(rng, (d, d), d), uniform_init(rng, (d, d), d)
nodes = gcn_forward(graph, w0, w1)
print(f"gcn output: {nodes.shape} (one row per concept)")

# 3. Consensus embedding of an instance: a (d, k) predictor gives a
#    distribution over the concepts, which mixes the GCN rows, and the mix
#    is L2-normalized. Training shapes the predictor; here we set it to
#    score instances against the concept embeddings directly, so an
#    instance sitting on "dog" puts its mass there.
predictor = Tensor(graph.concept_embeddings.data.T * 8.0)
#    Instances come as (B, d) rows; this is a batch of one.
instance = Tensor(graph.concept_embeddings.data[dog][None] * 3.0)
embedding, dist = consensus_embed(instance, nodes, predictor)
embedding, dist = embedding.data[0], dist.data[0]
print(f"concept distribution sums to one: {abs(dist.sum() - 1.0) < 1e-12}")
print(f"consensus embedding is unit norm:  "
      f"{abs(np.linalg.norm(embedding) - 1.0) < 1e-12}")
top = int(np.argmax(dist))
print(f"heaviest concept for this instance: {graph.concepts[top]} "
      f"({dist[top]:.3f})")

# 4. Fusion. Same two (1, d) rows, four strategies; all outputs are unit
#    norm. concat doubles the width, the others blend with scalar weights.
a = Tensor(rng.normal(size=(1, d)))
b = Tensor(rng.normal(size=(1, d)))
for fuse_type in ("concat", "adap_sum", "weight_sum", "global_weight_sum"):
    params = FusionParams.init(rng, d, fuse_type)
    fused = fuse(a, b, params)
    w = fusion_weights(a, b, params)
    blend = "" if w is None else f"  weights={np.round(np.ravel(w), 3)}"
    print(f"{fuse_type:18s} -> width {fused.shape[1]}, "
          f"norm {np.linalg.norm(fused.data[0]):.6f}{blend}")
