"""The batched, masked forward path: padded rows equal one-item rows,
chunked inference returns rows in the order it was given, and every block
rejects an unbatched item."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tinymodel import tiny_setup

import mhcvse.model
from mhcvse.attention import MhsaParams, attend_and_pool, head_attention_weights
from mhcvse.autodiff import Tape, Tensor, l2_normalize_rows
from mhcvse.consensus import consensus_embed
from mhcvse.data import InstancePair
from mhcvse.encoders import (GruGates, PaddedBatch, encode_image, encode_text, gru_step,
                              uniform_init)
from mhcvse.evaluation import RETRIEVAL_LEVELS
from mhcvse.fusion import FusionParams, fuse
from mhcvse.losses import kl_loss
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
        with pytest.raises(ValueError):
            PaddedBatch.of([np.float64(1.0)])


class TestPaddedEqualsSingle:
    def test_encoders_and_attention(self, mixed):
        model, regions, captions = mixed
        images = PaddedBatch.of(regions)
        seq = encode_image(images, model.image_proj, model.image_bias)
        pooled = attend_and_pool(seq, model.attn_image, images.mask)
        for i, r in enumerate(regions):
            one = encode_image(PaddedBatch.of([r]), model.image_proj, model.image_bias)
            assert_allclose(seq.data[i, :len(r)], one.data[0], rtol=0, atol=TOL)
            assert_allclose(pooled.data[i], attend_and_pool(one, model.attn_image).data[0],
                            rtol=0, atol=TOL)

        gru = model.word_embedding, model.gru_forward, model.gru_backward
        texts = PaddedBatch.of(captions)
        states = encode_text(texts, *gru)
        pooled = attend_and_pool(states, model.attn_text, texts.mask)
        for i, ids in enumerate(captions):
            one_states = encode_text(PaddedBatch.of([ids]), *gru)
            assert_allclose(states.data[i, :len(ids)], one_states.data[0], rtol=0, atol=TOL)
            assert_allclose(pooled.data[i],
                            attend_and_pool(one_states, model.attn_text).data[0],
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


def _single_item_calls():
    """Each block called on a rank-1 input and on an input one rank off its
    batched form: an unbatched (n, ·) item where it takes (B, n, ·), rank 3
    where it takes (B, ·) rows."""
    rng = np.random.default_rng(3)
    d, f, k, n = 8, 6, 5, 3
    embedding = uniform_init(rng, (12, d), d)
    gates = GruGates.init(rng, d, d // 2)
    proj, bias = uniform_init(rng, (f, d), f), Tensor(np.zeros(d))
    attn = MhsaParams.init(rng, d, 2)
    predictor = uniform_init(rng, (d, k), d)
    fusion = FusionParams.init(rng, d, "weight_sum")
    gcn_out = Tensor(rng.normal(size=(k, d)))
    dist = np.full(k, 1.0 / k)

    def vec(width):
        return Tensor(rng.normal(size=width))

    def seq(width):
        return Tensor(rng.normal(size=(n, width)))

    def seq3(width):
        return Tensor(rng.normal(size=(1, n, width)))

    def single(values):
        return PaddedBatch(values, np.ones(values.shape[:1], dtype=bool))

    return {
        "encode_image": (lambda: encode_image(single(rng.normal(size=f)), proj, bias),
                         lambda: encode_image(single(rng.normal(size=(n, f))), proj, bias)),
        "encode_text": (
            lambda: encode_text(single(np.array([1, 2, 3])), embedding, gates, gates),
            lambda: encode_text(single(np.ones((1, n, 2), dtype=int)), embedding, gates,
                                gates)),
        "gru_step": (lambda: gru_step(vec(d), vec(d // 2), gates),
                     lambda: gru_step(seq3(d), seq3(d // 2), gates)),
        "attend_and_pool": (lambda: attend_and_pool(vec(d), attn),
                            lambda: attend_and_pool(seq(d), attn)),
        "head_attention_weights": (
            lambda: head_attention_weights(seq(d), attn),
            lambda: head_attention_weights(Tensor(rng.normal(size=(2, n, d))), attn)),
        "consensus_embed": (lambda: consensus_embed(vec(d), gcn_out, predictor),
                            lambda: consensus_embed(seq3(d), gcn_out, predictor)),
        "kl_loss": (lambda: kl_loss(Tensor(dist), Tensor(dist)),
                    lambda: kl_loss(Tensor(dist[None, None]), Tensor(dist[None, None]))),
        "fuse": (lambda: fuse(vec(d), vec(d), fusion),
                 lambda: fuse(seq3(d), seq3(d), fusion)),
        "l2_normalize_rows": (lambda: l2_normalize_rows(vec(d)),
                              lambda: l2_normalize_rows(seq3(d))),
    }


class TestBatchOnly:
    @pytest.mark.parametrize("block", sorted(_single_item_calls()))
    def test_single_item_forms_are_rejected(self, block):
        for call in _single_item_calls()[block]:
            with pytest.raises(ValueError):
                call()


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
                            lambda batch, *tensors: (seen.append(len(batch)),
                                                     real(batch, *tensors))[1])
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


class TestTailOncePerModality:
    # calls of (consensus_embed, fuse) per non-empty side at each level
    CALLS = {"fused": (1, 1), "consensus": (1, 0), "instance": (0, 0)}

    @pytest.mark.parametrize("level", RETRIEVAL_LEVELS)
    def test_consensus_head_and_fusion_run_once_per_side(self, mixed, level, monkeypatch):
        model, regions, captions = mixed
        # two chunks per side, as in TestEmbedOrder
        monkeypatch.setattr(mhcvse.model, "CHUNK_CAP", 1000)
        assert len(_chunks([len(r) for r in regions], 8, 2)) == 2
        assert len(_chunks([len(c) for c in captions], 8, 2)) == 2
        calls = {"consensus_embed": [], "fuse": []}
        for name, seen in calls.items():
            real = getattr(mhcvse.model, name)
            monkeypatch.setattr(mhcvse.model, name,
                                lambda v, *rest, real=real, seen=seen:
                                (seen.append(len(v.data)), real(v, *rest))[1])
        img, txt = model.embed(regions, captions, level)
        n_head, n_fuse = self.CALLS[level]
        # each call takes every row of its side: four images, four captions
        assert calls == {"consensus_embed": [4] * 2 * n_head, "fuse": [4] * 2 * n_fuse}
        for seen in calls.values():
            seen.clear()
        only_images, none = model.embed(regions, [], level)
        assert calls == {"consensus_embed": [4] * n_head, "fuse": [4] * n_fuse}
        assert none.shape == (0, img.shape[1])
        assert_allclose(only_images, img, rtol=0, atol=0)
        monkeypatch.undo()
        for i, r in enumerate(regions):
            assert_allclose(img[i], model.embed_image(r, level), rtol=0, atol=TOL)
        for i, ids in enumerate(captions):
            assert_allclose(txt[i], model.embed_caption(ids, level), rtol=0, atol=TOL)


class TestNodeCount:
    def test_tape_nodes_do_not_grow_with_the_batch(self):
        model, train, _ = tiny_setup(n_train=8)
        counts = []
        for b in (2, 8):
            with Tape() as tape:
                model.loss_terms(train.pairs[:b])
            counts.append(len(tape))
        assert counts[0] == counts[1]
