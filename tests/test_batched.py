"""The batched, masked forward path: padded rows equal one-item rows, and
chunked inference returns rows in the order it was given."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tinymodel import tiny_setup

import mhcvse.model
from mhcvse.attention import attend_and_pool
from mhcvse.autodiff import Tape
from mhcvse.data import InstancePair
from mhcvse.encoders import Caption, PaddedBatch, RegionFeatures, encode_image, encode_text
from mhcvse.evaluation import RETRIEVAL_LEVELS
from mhcvse.model import CHUNK_CAP, _chunks

TOL = 1e-12
REGION_COUNTS = (1, 3, 10, 40)
CAPTION_LENGTHS = (1, 2, 7, 19)


@pytest.fixture(scope="module")
def mixed():
    """A tiny model plus items of very different lengths, in an order that
    length sorting changes."""
    model, _, _ = tiny_setup()
    rng = np.random.default_rng(21)
    f = model.config.feature_dim
    regions = [rng.normal(size=(m, f)) for m in (10, 1, 40, 3)]
    captions = [rng.integers(0, len(model.vocab), size=n).tolist() for n in (7, 19, 1, 2)]
    assert sorted(map(len, regions)) == list(REGION_COUNTS)
    assert sorted(map(len, captions)) == list(CAPTION_LENGTHS)
    return model, regions, captions


class TestPaddedBatch:
    def test_pads_with_zeros_and_marks_real_positions(self):
        batch = PaddedBatch.of([[4, 5, 6], [7]])
        assert batch.values.tolist() == [[4, 5, 6], [7, 0, 0]]
        assert batch.mask.tolist() == [[True, True, True], [True, False, False]]
        assert len(batch) == 2

    def test_rejects_empty_items_and_ragged_tails(self):
        with pytest.raises(ValueError):
            PaddedBatch.of([])
        with pytest.raises(ValueError):
            PaddedBatch.of([[1], []])
        with pytest.raises(ValueError):
            PaddedBatch.of([np.zeros((2, 3)), np.zeros((2, 4))])


class TestPaddedEqualsSingle:
    def test_encoders_and_attention(self, mixed):
        model, regions, captions = mixed
        enc = model.encoder
        images = PaddedBatch.of(regions)
        seq = encode_image(images, enc)
        pooled = attend_and_pool(seq, model.attn_image, images.mask)
        for i, r in enumerate(regions):
            one = encode_image(RegionFeatures(r), enc)
            assert_allclose(seq.data[i, :len(r)], one.data, rtol=0, atol=TOL)
            assert_allclose(pooled.data[i], attend_and_pool(one, model.attn_image).data,
                            rtol=0, atol=TOL)

        texts = PaddedBatch.of(captions)
        states, sentence = encode_text(texts, enc)
        pooled = attend_and_pool(states, model.attn_text, texts.mask)
        for i, ids in enumerate(captions):
            one_states, one_sentence = encode_text(Caption(ids), enc)
            assert_allclose(states.data[i, :len(ids)], one_states.data, rtol=0, atol=TOL)
            assert_allclose(sentence.data[i], one_sentence.data, rtol=0, atol=TOL)
            assert_allclose(pooled.data[i], attend_and_pool(one_states, model.attn_text).data,
                            rtol=0, atol=TOL)

    @pytest.mark.parametrize("level", RETRIEVAL_LEVELS)
    def test_every_retrieval_level(self, mixed, level):
        model, regions, captions = mixed
        img, txt = model.embed(regions, captions, level)
        for i, r in enumerate(regions):
            assert_allclose(img[i], model.embed_image(r, level), rtol=0, atol=TOL)
        for i, ids in enumerate(captions):
            assert_allclose(txt[i], model.embed_caption(ids, level), rtol=0, atol=TOL)

    def test_training_batch_rows(self, mixed):
        model, regions, captions = mixed
        pairs = [InstancePair(i, i, r, c) for i, (r, c) in enumerate(zip(regions, captions))]
        batch = model.batch_forward(pairs)
        fields = ("v_image", "v_text", "c_image", "c_text",
                  "f_image", "f_text", "p_image", "p_text")
        for i, pair in enumerate(pairs):
            one = model.batch_forward([pair])
            for name in fields:
                assert_allclose(getattr(batch, name).data[i], getattr(one, name).data[0],
                                rtol=0, atol=TOL, err_msg=name)


def cost(b, n, d=128, h=8):
    """Padded floats of one attention layer over b items of n positions."""
    return b * n * (d + h * n)


class TestChunks:
    def test_canonical_split_is_one_chunk(self):
        assert _chunks([6] * 16, 128, 8) == [list(range(16))]

    def test_cap_bounds_every_chunk_and_covers_every_item(self):
        lengths = [100, 19, 6, 101, 19, 50, 3, 100, 40, 19, 6, 6]
        chunks = _chunks(lengths, 128, 8)
        assert sorted(i for c in chunks for i in c) == list(range(len(lengths)))
        for c in chunks:
            longest = max(lengths[i] for i in c)
            assert len(c) == 1 or cost(len(c), longest) <= CHUNK_CAP
            assert [lengths[i] for i in c] == sorted(lengths[i] for i in c)
        # items over the cap on their own still run, one per chunk
        assert cost(1, 100) > CHUNK_CAP
        assert [0] in chunks and [3] in chunks and [7] in chunks

    def test_items_on_both_sides_of_the_cap(self):
        # b captions of 19 tokens fill one chunk; the next one starts another
        b = CHUNK_CAP // cost(1, 19)
        assert b > 1 and cost(b, 19) <= CHUNK_CAP < cost(b + 1, 19)
        assert [len(c) for c in _chunks([19] * (b + 1), 128, 8)] == [b, 1]


class TestEmbedOrder:
    def test_rows_follow_dataset_order_across_chunks(self, mixed, monkeypatch):
        model, regions, captions = mixed
        # with d = 8 and h = 2 a cap of 1000 splits the images 1+3+10 | 40
        # and the captions 1+2+7 | 19; the 40-region image exceeds it alone
        monkeypatch.setattr(mhcvse.model, "CHUNK_CAP", 1000)
        assert (model.config.embed_dim, model.config.heads) == (8, 2)
        assert _chunks([len(r) for r in regions], 8, 2) == [[1, 3, 0], [2]]
        assert _chunks([len(c) for c in captions], 8, 2) == [[2, 3, 0], [1]]
        seen = []
        real = mhcvse.model.encode_image
        monkeypatch.setattr(mhcvse.model, "encode_image",
                            lambda batch, enc: (seen.append(len(batch)), real(batch, enc))[1])
        img, txt = model.embed(regions, captions, "fused")
        assert sorted(seen) == [1, 3]
        for i, r in enumerate(regions):
            assert_allclose(img[i], model.embed_image(r), rtol=0, atol=TOL)
        for i, ids in enumerate(captions):
            assert_allclose(txt[i], model.embed_caption(ids), rtol=0, atol=TOL)

    def test_embed_dataset_keeps_image_and_caption_order(self, monkeypatch):
        model, train, _ = tiny_setup(n_train=6)
        rng = np.random.default_rng(5)
        for image_id, m in zip(train.image_ids, (7, 2, 30, 1, 12, 4)):
            train.images[image_id] = rng.normal(size=(m, model.config.feature_dim))
        monkeypatch.setattr(mhcvse.model, "CHUNK_CAP", 400)
        img, txt, image_ids, owner = model.embed_dataset(train, "fused")
        for row, image_id in enumerate(image_ids):
            assert_allclose(img[row], model.embed_image(train.images[image_id]),
                            rtol=0, atol=TOL)
        for row, (_, image_id, tokens) in enumerate(train.captions):
            assert image_ids[owner[row]] == image_id
            assert_allclose(txt[row], model.embed_caption(train.vocab.encode(tokens)),
                            rtol=0, atol=TOL)


class TestNodeCount:
    def test_tape_nodes_do_not_grow_with_the_batch(self):
        model, train, _ = tiny_setup(n_train=8)
        counts = []
        for b in (2, 8):
            with Tape() as tape:
                model.loss_terms(train.pairs[:b])
            counts.append(len(tape))
        assert counts[0] == counts[1]
