"""
End to end: synthesize, train, evaluate, retrieve
=================================================

The full loop on generated data. The synthetic set plants a latent code
per image-caption pair, renders region features from it, and writes
captions whose tokens encode the same code, so a model that learns the
shared structure can match perfectly. Starting from random weights (where
retrieval sits at chance), a default-config run reaches perfect mean
recall on the held-out test split in well under a minute on a laptop.
"""

import tempfile
import time

from mhcvse import TrainConfig, evaluate, fit, generate_synthetic, load_dataset, model_for, similarity_matrix
from mhcvse.evaluation import rank_candidates

with tempfile.TemporaryDirectory() as workdir:
    # 1. Generate 96 image-caption pairs, split 64/16/16. Everything is
    #    derived from the seed, so this file set is reproducible bit for bit.
    train_m, val_m, test_m = generate_synthetic(workdir, seed=7)
    train = load_dataset(train_m)
    val = load_dataset(val_m, vocab=train.vocab)
    test = load_dataset(test_m, vocab=train.vocab)
    print(f"splits: {len(train.pairs)} train / {len(val.pairs)} val / "
          f"{len(test.pairs)} test pairs, vocab {len(train.vocab)}")

    # 2. The model exactly as `mhcvse train` builds it: a concept graph from
    #    the training captions, then the encoders, attention, GCN and fusion.
    cfg = TrainConfig()
    model = model_for(cfg, train)

    # 3. Untrained baseline: retrieval is at chance (R@1 around 1/16 on a
    #    16-item test split).
    before = evaluate(model, test)
    print(f"untrained test mR: {before.mr:.4f} "
          f"(R@1 {before.text_r1:.4f} / {before.image_r1:.4f})")

    # 4. Train with early stopping on validation mean recall. fit() keeps
    #    the best snapshot and restores it afterwards.
    t0 = time.time()
    result = fit(model, train, val)
    print(f"trained {len(result.history)} epochs in {time.time() - t0:.0f}s, "
          f"best epoch {result.best_epoch} at val mR {result.best_mr:.4f}")
    for stats in result.history[:: max(1, len(result.history) // 5)]:
        print(f"  epoch {stats.epoch:2d}  total {stats.total:.4f}  "
              f"lr {stats.lr:.5f}  val mR {stats.val_mr:.4f}")

    # 5. Held-out evaluation, both directions.
    after = evaluate(model, test)
    print("test split after training:")
    print(f"  text  side  R@1/5/10: {after.text_r1:.3f} {after.text_r5:.3f} "
          f"{after.text_r10:.3f}")
    print(f"  image side  R@1/5/10: {after.image_r1:.3f} {after.image_r5:.3f} "
          f"{after.image_r10:.3f}")
    print(f"  mean recall: {after.mr:.4f}")

    # 6. Retrieval for one query image: embed everything, score by cosine,
    #    rank. The true caption should sit at rank 1 with a visible margin.
    img, txt, image_ids, caption_owner = model.embed_dataset(test)
    query = 0
    scores = similarity_matrix(img[query : query + 1], txt)[0]
    order = rank_candidates(scores[None, :])[0]
    print(f"top 3 captions for image {image_ids[query]}:")
    for rank, col in enumerate(order[:3], start=1):
        caption_id, owner, tokens = test.captions[col]
        marker = " <- true pair" if owner == image_ids[query] else ""
        print(f"  {rank}. caption {caption_id} score {scores[col]:+.4f} "
              f"[{' '.join(tokens[:6])}]{marker}")
