"""
Self-attention and the two modality encoders
============================================

Images arrive as a set of precomputed region-feature rows, captions as
token id sequences. Each side is encoded into a shared width d, then
multi-head self-attention re-weights the sequence and a mean pool gives
one embedding per instance. Every block takes a batch: B items padded to
a common length, with a mask of their real rows, so a single sequence is a
batch of one. This script pokes at the pieces: attention weights are
row-stochastic and equivariant to row order (so the pooled vector ignores
region order entirely), padding does not leak into a pooled item, and both
encoders agree on the output width.
"""

import numpy as np

from mhcvse import (GruGates, MhsaParams, PaddedBatch, Tensor, attend_and_pool,
                    encode_image, encode_text, head_attention_weights)
from mhcvse.encoders import uniform_init

rng = np.random.default_rng(1)
d = 16

# 1. Multi-head attention pooling turns a (B, n, d) batch into one (B, d)
#    row per item. Each of the h heads scores every row against every
#    other, softmax(Q K^T / sqrt(d_k)), and each score matrix has rows
#    summing to one. The pool is one recorded op with a hand-written
#    backward pass.
x = Tensor(rng.normal(size=(1, 5, d)))
params = MhsaParams.init(rng, d, h=4)
pooled = attend_and_pool(x, params)
weights = head_attention_weights(x, params)
print(f"attend_and_pool: {x.shape} -> {pooled.shape}, heads: {len(weights)}")
row_sums = np.concatenate([w.sum(axis=1) for w in weights])
print(f"attention rows sum to one: {np.allclose(row_sums, 1.0, atol=1e-12)}")

# 2. Shuffle the input rows: every head's weight matrix shuffles the same
#    way, and the pooled instance embedding does not move. Region order
#    carries no information, so this is exactly the invariance the image
#    side needs.
perm = rng.permutation(5)
weights_perm = head_attention_weights(Tensor(x.data[:, perm]), params)
gap = max(np.abs(b - a[perm][:, perm]).max() for a, b in zip(weights, weights_perm))
print(f"equivariance gap: {gap:.2e}")
pooled_perm = attend_and_pool(Tensor(x.data[:, perm]), params)
print(f"pooled invariance gap: {np.abs(pooled.data - pooled_perm.data).max():.2e}")

# 3. Items of different lengths share a padded batch. Padded rows are
#    masked out as keys and left out of the mean, so each item pools as
#    it would alone.
batch = PaddedBatch.of([x.data[0], x.data[0, :2]])
pooled_batch = attend_and_pool(Tensor(batch.values), params, batch.mask)
alone = attend_and_pool(Tensor(x.data[:, :2]), params)
print(f"padded vs alone gap: {np.abs(pooled_batch.data[1] - alone.data[0]).max():.2e}")

# 4. The encoders. The image side is a linear projection of the region
#    rows; the text side runs a Bi-GRU and concatenates the forward and
#    backward states per token. Both land in width d. Items of different
#    lengths share a batch: they are padded with zeros, and the mask marks
#    their real rows. The mean of a caption's real token states, taken in
#    numpy over the mask, serves as its sentence vector here. Each encoder
#    takes the tensors it uses: 30 word embeddings and the gates of both
#    GRU directions (width d/2 each), and a (7, d) projection and its bias.
embedding = uniform_init(rng, (30, d), d)
forward, backward = GruGates.init(rng, d, d // 2), GruGates.init(rng, d, d // 2)
proj, bias = uniform_init(rng, (7, d), 7), Tensor(np.zeros(d))
images = PaddedBatch.of([rng.normal(size=(5, 7)), rng.normal(size=(2, 7))])
image_seq = encode_image(images, proj, bias)
captions = PaddedBatch.of([[3, 14, 8, 21], [21, 8, 14, 3], [9, 2]])
token_seq = encode_text(captions, embedding, forward, backward)
real = captions.mask[:, :, None]
sentence = (token_seq.data * real).sum(axis=1) / real.sum(axis=1)
print(f"image regions encoded:  {image_seq.shape}, real rows per image: "
      f"{images.mask.sum(axis=1).tolist()}")
print(f"caption tokens encoded: {token_seq.shape}, pooled sentences: {sentence.shape}")

# 5. The Bi-GRU is direction-aware: the second caption is the first one
#    reversed, and its sentence vector differs, unlike the order-free image side.
delta = np.linalg.norm(sentence[0] - sentence[1])
print(f"sentence vector moves when the caption is reversed: {delta:.4f}")
