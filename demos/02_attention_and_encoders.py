"""
Self-attention and the two modality encoders
============================================

Images arrive as a set of precomputed region-feature rows, captions as
token id sequences. Each side is encoded into a shared width d, then
multi-head self-attention re-weights the sequence and a mean pool gives
one embedding per instance. Every block takes a batch: B items padded to
a common length, with a mask of their real rows, so a single sequence is a
batch of one. This script pokes at the pieces: attention weights are
row-stochastic, the attended sequence is equivariant to row order (so the
pooled vector ignores region order entirely), and both encoders agree on
the output width.
"""

import numpy as np

from mhcvse import (EncoderParams, MhsaParams, PaddedBatch, Tensor, attend_and_pool,
                    encode_image, encode_text, multi_head, scaled_dot_attention)
from mhcvse.attention import head_attention_weights
from mhcvse.autodiff import masked_mean

rng = np.random.default_rng(1)
d = 16

# 1. Scaled dot-product attention on a handmade batch of one 3-row
#    sequence. Row i of the output is a convex combination of the value rows.
q = Tensor(rng.normal(size=(1, 3, 4)))
k = Tensor(rng.normal(size=(1, 3, 4)))
v = Tensor(rng.normal(size=(1, 3, 4)))
out = scaled_dot_attention(q, k, v)
print(f"attention output shape: {out.shape}")

# 2. Multi-head attention keeps the sequence shape and every head's weight
#    matrix has rows summing to one.
x = Tensor(rng.normal(size=(1, 5, d)))
params = MhsaParams.init(rng, d, h=4)
y = multi_head(x, params)
weights = head_attention_weights(x, params)
print(f"multi_head: {x.shape} -> {y.shape}, heads: {len(weights)}")
row_sums = np.concatenate([w.sum(axis=1) for w in weights])
print(f"attention rows sum to one: {np.allclose(row_sums, 1.0, atol=1e-12)}")

# 3. Shuffle the input rows: the attended rows shuffle the same way, and
#    the pooled instance embedding does not move. Region order carries no
#    information, so this is exactly the invariance the image side needs.
perm = rng.permutation(5)
y_perm = multi_head(Tensor(x.data[:, perm]), params)
print(f"equivariance gap: {np.abs(y_perm.data - y.data[:, perm]).max():.2e}")
pooled = attend_and_pool(x, params)
pooled_perm = attend_and_pool(Tensor(x.data[:, perm]), params)
print(f"pooled invariance gap: {np.abs(pooled.data - pooled_perm.data).max():.2e}")

# 4. The encoders. The image side is a linear projection of the region
#    rows; the text side runs a Bi-GRU and concatenates the forward and
#    backward states per token. Both land in width d. Items of different
#    lengths share a batch: they are padded with zeros, and the mask marks
#    their real rows. The mean of a caption's real token states serves as
#    its sentence vector here.
enc = EncoderParams.init(rng, vocab_size=30, feature_dim=7, embed_dim=d)
images = PaddedBatch.of([rng.normal(size=(5, 7)), rng.normal(size=(2, 7))])
image_seq = encode_image(images, enc)
captions = PaddedBatch.of([[3, 14, 8, 21], [21, 8, 14, 3], [9, 2]])
token_seq = encode_text(captions, enc)
sentence = masked_mean(token_seq, captions.mask)
print(f"image regions encoded:  {image_seq.shape}, real rows per image: "
      f"{images.mask.sum(axis=1).tolist()}")
print(f"caption tokens encoded: {token_seq.shape}, pooled sentences: {sentence.shape}")

# 5. The Bi-GRU is direction-aware: the second caption is the first one
#    reversed, and its sentence vector differs, unlike the order-free image side.
delta = np.linalg.norm(sentence.data[0] - sentence.data[1])
print(f"sentence vector moves when the caption is reversed: {delta:.4f}")
