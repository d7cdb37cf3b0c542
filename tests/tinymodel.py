"""Shared test helpers: a small random paired dataset and a model sized to
train in milliseconds (captions are 3 distinct tokens from a 10-token
pool), plus a raw RGFT writer for files the library refuses to write."""

import struct

import numpy as np

from mhcvse.config import TrainConfig
from mhcvse.consensus import build_graph
from mhcvse.data import Dataset, Vocabulary
from mhcvse.model import Model


def tiny_setup(seed=3, n_train=8, n_val=4, **overrides):
    rng = np.random.default_rng(seed)
    pool = [f"t{i}" for i in range(10)]

    def split(first_id, n):
        captions = [(first_id + i, first_id + i,
                     list(rng.choice(pool, size=3, replace=False)))
                    for i in range(n)]
        images = {first_id + i: rng.normal(size=(3, 5)) for i in range(n)}
        return images, captions

    train_images, train_captions = split(0, n_train)
    val_images, val_captions = split(1000, n_val)
    vocab = Vocabulary.build(tokens for _, _, tokens in train_captions)
    train = Dataset("train", train_images, train_captions, vocab)
    val = Dataset("val", val_images, val_captions, vocab)

    cfg = dict(embed_dim=8, feature_dim=5, heads=2, concepts=4, batch_size=4,
               epochs=30, patience=5, eta0=0.01, seed=11)
    cfg.update(overrides)
    config = TrainConfig(**cfg)
    graph = build_graph((tokens for _, _, tokens in train_captions),
                        config.concepts, config.embed_dim,
                        np.random.default_rng(seed + 1))
    model = Model(config, vocab, graph, np.random.default_rng(seed + 2))
    return model, train, val


def snapshot(model):
    return {name: p.data.copy() for name, p in model.named_parameters().items()}


def states_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[n], b[n]) for n in a)


def rgft_bytes(features):
    """An RGFT feature file written without ``write_features``' checks."""
    out = b"RGFT" + struct.pack("<IQ", 1, len(features))
    for image_id in sorted(features):
        arr = np.asarray(features[image_id], "<f4")
        out += struct.pack("<QII", image_id, *arr.shape) + arr.tobytes()
    return out
