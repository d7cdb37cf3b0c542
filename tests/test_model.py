"""Model assembly: parameter registry, forward wiring, save/load."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tinymodel import snapshot, states_equal, tiny_setup

import mhcvse.model
from mhcvse.autodiff import AdamState, adam_step
from mhcvse.config import TrainConfig
from mhcvse.consensus import build_graph
from mhcvse.data import Vocabulary
from mhcvse.evaluation import similarity_matrix
from mhcvse.fusion import FUSE_TYPES
from mhcvse.losses import contrastive_loss
from mhcvse.model import Model, load_checkpoint, load_model, save_checkpoint, save_model


def small_graph(dim, k=4, seed=1):
    corpus = [[f"c{i}", f"c{(i + 1) % 6}"] for i in range(6)]
    return build_graph(corpus, k, dim, np.random.default_rng(seed))


def layout_model(seed=0):
    """A small model whose sizes differ where they can: vocabulary 3,
    features 6, embed_dim 8, GRU width 4, 4 heads of width 2, 5 concepts."""
    cfg = TrainConfig(embed_dim=8, heads=4, feature_dim=6, concepts=5)
    return Model(cfg, Vocabulary(["a", "b"]), small_graph(dim=8, k=5),
                 np.random.default_rng(seed))


class TestConstruction:
    def test_graph_width_must_match_embed_dim(self):
        cfg = TrainConfig(embed_dim=8, heads=2, feature_dim=5)
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError, match="embed_dim"):
            Model(cfg, vocab, small_graph(dim=6))

    def test_invalid_config_rejected_up_front(self):
        cfg = TrainConfig(embed_dim=10, heads=4)
        with pytest.raises(ValueError, match="heads"):
            Model(cfg, Vocabulary(["a"]), small_graph(dim=10))

    def test_default_rng_comes_from_the_config_seed(self):
        cfg = TrainConfig(embed_dim=8, heads=2, feature_dim=5, concepts=4,
                          seed=77)
        vocab = Vocabulary(["a", "b"])
        a = Model(cfg, vocab, small_graph(dim=8))
        b = Model(cfg, vocab, small_graph(dim=8))
        assert states_equal(snapshot(a), snapshot(b))

    def test_parameter_registry_names(self):
        # the checkpoint layout: every record's name and shape, in order
        def gru(direction):
            return [(f"encoder.{direction}.{kind}_{gate}", shape) for gate in "zrh"
                    for kind, shape in (("w", (8, 4)), ("u", (4, 4)), ("b", (4,)))]

        def attention(modality):
            return [(f"attention_{modality}.head{i}.{role}", (8, 2)) for i in range(4)
                    for role in ("w_q", "w_k", "w_v")] + [(f"attention_{modality}.w_out",
                                                           (8, 8))]

        layout = ([("encoder.word_embedding", (3, 8))] + gru("gru_forward")
                  + gru("gru_backward")
                  + [("encoder.image_proj", (6, 8)), ("encoder.image_bias", (8,))]
                  + attention("image") + attention("text")
                  + [("fusion.weight_net", (16, 2)),
                     ("consensus.concept_embeddings", (5, 8)),
                     ("consensus.gcn.w0", (8, 8)), ("consensus.gcn.w1", (8, 8)),
                     ("consensus.head_image.predictor", (8, 5)),
                     ("consensus.head_text.predictor", (8, 5)),
                     ("consensus.adjacency", (5, 5))])
        state = layout_model().state_tensors()
        assert [(name, t.shape) for name, t in state.items()] == layout

    def test_a_seed_draws_every_tensor_in_a_fixed_order(self):
        # the model's init restated draw by draw; a reordered draw fails
        model = layout_model(seed=5)
        rng = np.random.default_rng(5)

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        want = {"encoder.word_embedding": uniform((3, 8), 8)}
        for direction in ("gru_forward", "gru_backward"):
            for gate in "zrh":
                want[f"encoder.{direction}.w_{gate}"] = uniform((8, 4), 8)
                want[f"encoder.{direction}.u_{gate}"] = uniform((4, 4), 4)
                want[f"encoder.{direction}.b_{gate}"] = np.zeros(4)
        want["encoder.image_proj"] = uniform((6, 8), 6)
        want["encoder.image_bias"] = np.zeros(8)
        for modality in ("image", "text"):
            for i in range(4):
                for role in ("w_q", "w_k", "w_v"):
                    want[f"attention_{modality}.head{i}.{role}"] = uniform((8, 2), 8)
            want[f"attention_{modality}.w_out"] = uniform((8, 8), 8)
        want["fusion.weight_net"] = uniform((16, 2), 16)
        # the graph draws its node features from its own generator
        want["consensus.concept_embeddings"] = model.graph.concept_embeddings.data
        want["consensus.gcn.w0"] = uniform((8, 8), 8)
        want["consensus.gcn.w1"] = uniform((8, 8), 8)
        want["consensus.head_image.predictor"] = uniform((8, 5), 8)
        want["consensus.head_text.predictor"] = uniform((8, 5), 8)
        got = model.named_parameters()
        assert list(got) == list(want)
        for name, values in want.items():
            assert np.array_equal(got[name].data, values), name

    @pytest.mark.parametrize("fuse_type", ["concat", "adap_sum", "global_weight_sum"])
    def test_each_strategy_holds_its_tensor_and_draws_the_rest_alike(self, fuse_type):
        # every strategy draws the weight_sum map and keeps only its own
        # tensor, so the tensors drawn after fusion match weight_sum's
        base = layout_model(seed=5).named_parameters()
        cfg = TrainConfig(embed_dim=8, heads=4, feature_dim=6, concepts=5,
                          fuse_type=fuse_type)
        model = Model(cfg, Vocabulary(["a", "b"]), small_graph(dim=8, k=5),
                      np.random.default_rng(5))
        own = {"concat": {}, "adap_sum": {"fusion.alpha_raw": np.array(0.0)},
               "global_weight_sum": {"fusion.global_logits": np.zeros(2)}}[fuse_type]
        want = {}
        for name, tensor in base.items():
            want.update(own if name == "fusion.weight_net" else {name: tensor.data})
        got = model.named_parameters()
        assert list(got) == list(want)
        for name, values in want.items():
            assert np.array_equal(got[name].data, values), name

    def test_state_tensors_add_the_fixed_adjacency(self):
        model, _, _ = tiny_setup()
        state = set(model.state_tensors())
        assert state == set(model.named_parameters()) | {"consensus.adjacency"}


class TestForward:
    def test_batch_forward_shapes_and_normalization(self):
        model, train, _ = tiny_setup()
        d = model.config.embed_dim
        k = model.graph.size
        batch = model.batch_forward(train.pairs[:3])
        assert batch.v_image.shape == (3, d)
        assert batch.v_text.shape == (3, d)
        assert batch.c_image.shape == (3, d)
        assert batch.f_image.shape == (3, d)  # weight_sum keeps the width
        assert batch.p_image.shape == (3, k)
        for mat in (batch.c_image, batch.c_text, batch.f_image, batch.f_text):
            assert_allclose(np.linalg.norm(mat.data, axis=1), np.ones(3),
                            rtol=0, atol=1e-12)
        for dist in (batch.p_image, batch.p_text):
            assert_allclose(dist.data.sum(axis=1), np.ones(3),
                            rtol=0, atol=1e-12)
            assert (dist.data > 0).all()

    def test_concat_fusion_doubles_the_retrieval_width(self):
        model, train, _ = tiny_setup(fuse_type="concat")
        d = model.config.embed_dim
        batch = model.batch_forward(train.pairs[:2])
        assert batch.f_image.shape == (2, 2 * d)

    def test_loss_terms_are_finite_and_weighted(self):
        model, train, _ = tiny_setup()
        terms = model.loss_terms(train.pairs[:4])
        for value in terms.values():
            assert np.isfinite(value) and value >= 0.0
        assert np.isfinite(terms.total.item())
        for lam, w in zip(terms.effective_weights, model.config.base_weights):
            assert 0.0 < lam < w

    def test_two_captions_of_one_image_are_not_each_others_negatives(self, monkeypatch):
        model, train, _ = tiny_setup()
        pairs = train.pairs[:4]
        pairs[2] = dataclasses.replace(pairs[2], image_id=pairs[0].image_id,
                                       regions=pairs[0].regions)
        seen = []

        def recorded(scores, margin, mode, images):
            seen.append(list(images))
            return contrastive_loss(scores, margin, mode, images)
        monkeypatch.setattr(mhcvse.model, "contrastive_loss", recorded)
        model.loss_terms(pairs)
        assert seen == [[p.image_id for p in pairs]] * 3
        assert seen[0][0] == seen[0][2] != seen[0][1]

    def test_embedding_levels_and_shapes(self):
        model, train, _ = tiny_setup()
        d = model.config.embed_dim
        pair = train.pairs[0]
        for embed in (lambda lv: model.embed_image(pair.regions, lv),
                      lambda lv: model.embed_caption(pair.token_ids, lv)):
            fused = embed("fused")
            inst = embed("instance")
            cons = embed("consensus")
            assert fused.shape == inst.shape == cons.shape == (d,)
            for vec in (fused, inst, cons):
                assert_allclose(np.linalg.norm(vec), 1.0, rtol=0, atol=1e-12)
            assert not np.allclose(inst, cons)

    @pytest.mark.parametrize("fuse_type, level, width", [
        ("weight_sum", "fused", 1), ("concat", "fused", 2), ("concat", "instance", 1),
        ("concat", "consensus", 1)])
    def test_an_empty_side_has_the_level_width(self, fuse_type, level, width):
        # a query scored against no rows gets an empty score row, not a
        # width mismatch
        model, train, _ = tiny_setup(fuse_type=fuse_type)
        d = width * model.config.embed_dim
        pair = train.pairs[0]
        img, txt = model.embed([pair.regions], [], level)
        assert img.shape == (1, d) and txt.shape == (0, d)
        img, txt = model.embed([], [pair.token_ids], level)
        assert img.shape == (0, d) and txt.shape == (1, d)
        assert similarity_matrix(txt, img).shape == (1, 0)

    def test_unknown_level_rejected(self):
        model, train, _ = tiny_setup()
        with pytest.raises(ValueError, match="unknown retrieval level"):
            model.embed_image(train.pairs[0].regions, "raw")

    def test_embed_dataset_layout(self):
        model, train, _ = tiny_setup(n_train=5)
        img, txt, image_ids, owner = model.embed_dataset(train)
        assert img.shape == (5, model.config.embed_dim)
        assert txt.shape == (5, model.config.embed_dim)
        assert image_ids == sorted(train.images)
        # synthetic ids are one caption per image in order
        assert owner.tolist() == list(range(5))

    def test_embed_dataset_level_defaults_to_the_config(self):
        model, train, _ = tiny_setup(retrieval_level="instance")
        img_default, _, _, _ = model.embed_dataset(train)
        img_inst, _, _, _ = model.embed_dataset(train, "instance")
        assert np.array_equal(img_default, img_inst)


class TestLoadState:
    def test_missing_tensor_rejected(self):
        model, _, _ = tiny_setup()
        arrays = {n: t.data.copy() for n, t in model.state_tensors().items()}
        del arrays["consensus.gcn.w0"]
        with pytest.raises(ValueError, match="missing tensors"):
            model.load_state(arrays)

    def test_unknown_tensor_rejected(self):
        model, _, _ = tiny_setup()
        arrays = {n: t.data.copy() for n, t in model.state_tensors().items()}
        arrays["mystery"] = np.zeros(3)
        with pytest.raises(ValueError, match="unknown tensors"):
            model.load_state(arrays)

    def test_shape_mismatch_rejected(self):
        model, _, _ = tiny_setup()
        arrays = {n: t.data.copy() for n, t in model.state_tensors().items()}
        arrays["consensus.gcn.w0"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            model.load_state(arrays)

    def test_round_trip_restores_values(self):
        model, _, _ = tiny_setup()
        arrays = {n: t.data.copy() for n, t in model.state_tensors().items()}
        for t in model.named_parameters().values():
            t.data += 1.0
        model.load_state(arrays)
        assert states_equal(snapshot(model),
                            {n: arrays[n] for n in model.named_parameters()})

    def test_a_refused_state_changes_nothing(self):
        model, _, _ = tiny_setup()
        before = snapshot(model)
        arrays = {n: t.data + 1.0 for n, t in model.state_tensors().items()}
        arrays["consensus.head_text.predictor"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            model.load_state(arrays)
        assert states_equal(snapshot(model), before)

    def test_keeps_owned_float64_arrays_and_copies_any_other(self):
        model, _, _ = tiny_setup()
        arrays = {n: t.data.copy() for n, t in model.state_tensors().items()}
        kept = arrays["consensus.gcn.w0"]
        arrays["consensus.gcn.w1"] = np.asfortranarray(arrays["consensus.gcn.w1"])
        arrays["encoder.image_bias"] = arrays["encoder.image_bias"].astype(np.float32)
        model.load_state(arrays)
        assert model.gcn_w0.data is kept
        for tensor, given in ((model.gcn_w1, arrays["consensus.gcn.w1"]),
                              (model.image_bias, arrays["encoder.image_bias"])):
            assert tensor.data.dtype == np.float64
            assert tensor.data.flags.c_contiguous and tensor.data.flags.owndata
            assert not np.may_share_memory(tensor.data, given)
            assert np.array_equal(tensor.data, given)


class TestSaveLoadModel:
    def test_saved_model_reproduces_embeddings_bit_for_bit(self, tmp_path):
        model, train, _ = tiny_setup()
        path = tmp_path / "model.mhcv"
        save_model(path, model)
        assert (tmp_path / "model.mhcv.meta.json").exists()
        loaded = load_model(path)

        pair = train.pairs[0]
        for level in ("fused", "instance", "consensus"):
            assert np.array_equal(model.embed_image(pair.regions, level),
                                  loaded.embed_image(pair.regions, level))
            assert np.array_equal(model.embed_caption(pair.token_ids, level),
                                  loaded.embed_caption(pair.token_ids, level))

    def test_sidecar_preserves_vocab_config_and_concepts(self, tmp_path):
        model, _, _ = tiny_setup()
        path = tmp_path / "model.mhcv"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.vocab.tokens == model.vocab.tokens
        assert loaded.graph.concepts == model.graph.concepts
        assert loaded.graph.frequencies == model.graph.frequencies
        assert np.array_equal(loaded.graph.adjacency, model.graph.adjacency)

    def test_loaded_state_equals_the_checkpoint_bit_for_bit(self, tmp_path):
        model, _, _ = tiny_setup()
        path = tmp_path / "model.mhcv"
        save_model(path, model)
        arrays = load_checkpoint(path)
        state = load_model(path).state_tensors()
        assert state.keys() == arrays.keys()
        for name, arr in arrays.items():
            got = state[name].data
            assert (got.dtype, got.shape) == (arr.dtype, arr.shape), name
            assert got.tobytes() == arr.tobytes(), name

    @staticmethod
    def _with_every_fusion_record(model):
        """The model's records as checkpoints once stored them, with all
        three strategies' fusion tensors in their old place and order."""
        d = model.config.embed_dim
        every = {"fusion.alpha_raw": np.array(0.25),
                 "fusion.weight_net": np.full((2 * d, 2), 0.125),
                 "fusion.global_logits": np.array([0.5, -0.5])}
        every.update({n: t.data for n, t in model.fusion.named_parameters().items()})
        out = {}
        for name, tensor in model.state_tensors().items():
            if name == "consensus.concept_embeddings":
                out.update(every)
            if not name.startswith("fusion."):
                out[name] = tensor.data
        return out

    @pytest.mark.parametrize("fuse_type", FUSE_TYPES)
    def test_a_checkpoint_with_every_fusion_record_loads(self, tmp_path, fuse_type):
        model, train, _ = tiny_setup(fuse_type=fuse_type)
        path = tmp_path / "model.mhcv"
        save_model(path, model)
        save_checkpoint(path, self._with_every_fusion_record(model))
        loaded = load_model(path)
        assert list(loaded.named_parameters()) == list(model.named_parameters())
        for level in ("fused", "instance", "consensus"):
            want = model.embed_dataset(train, level)
            got = loaded.embed_dataset(train, level)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("fuse_type", FUSE_TYPES)
    def test_only_fusion_records_are_skipped(self, tmp_path, fuse_type):
        model, _, _ = tiny_setup(fuse_type=fuse_type)
        path = tmp_path / "model.mhcv"
        save_model(path, model)
        save_checkpoint(path, {**self._with_every_fusion_record(model),
                               "consensus.mystery": np.zeros(3)})
        with pytest.raises(ValueError, match=r"unknown tensors: \['consensus.mystery'\]"):
            load_model(path)

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        # the checkpoint overwrites every parameter, so an init drawn
        # from the config seed would be thrown away
        model, _, _ = tiny_setup()
        path = tmp_path / "model.mhcv"
        save_model(path, model)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_model made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = load_model(path)
        assert states_equal(snapshot(loaded), snapshot(model))

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_a_non_finite_parameter_is_refused_before_anything_is_written(
            self, tmp_path, value):
        # load_checkpoint refuses such a file, so save_model must not write
        # one, nor truncate the checkpoint already there
        model, _, _ = tiny_setup()
        path = tmp_path / "model.mhcv"
        save_model(path, model)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        model.image_bias.data[1] = value
        with pytest.raises(ValueError, match="'encoder.image_bias' has non-finite") as err:
            save_model(path, model)
        assert str(path) in str(err.value)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_missing_sidecar_rejected(self, tmp_path):
        model, _, _ = tiny_setup()
        path = tmp_path / "model.mhcv"
        save_model(path, model)
        (tmp_path / "model.mhcv.meta.json").unlink()
        with pytest.raises(ValueError, match="sidecar"):
            load_model(path)


class TestOneCopyLoad:
    """``load_model`` reads each tensor once, into the array the loaded
    model keeps."""

    @pytest.fixture
    def saved(self, tmp_path):
        # default widths (d = 128, 8 heads), so values, not Python objects,
        # make up nearly all that a load allocates: about 2 MB
        cfg = TrainConfig(feature_dim=6, concepts=5)
        model = Model(cfg, Vocabulary([f"w{i}" for i in range(40)]),
                      small_graph(dim=cfg.embed_dim, k=5), np.random.default_rng(4))
        path = tmp_path / "model.mhcv"
        save_model(path, model)
        return model, path

    def test_the_peak_of_a_load_is_one_copy_of_the_values(self, saved):
        # a load that reads the file into a buffer and then copies each
        # record out of it peaks at twice the values
        _, path = saved
        value_bytes = sum(a.nbytes for a in load_checkpoint(path).values())
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * value_bytes

    def test_every_loaded_array_is_its_own_writable_block(self, saved):
        loaded = load_model(saved[1])
        arrays = [t.data for t in loaded.named_parameters().values()]
        arrays.append(loaded.graph.adjacency)
        for arr in arrays:
            assert arr.dtype == np.float64
            assert arr.flags.c_contiguous and arr.flags.aligned
            assert arr.flags.writeable and arr.flags.owndata
        for i, arr in enumerate(arrays):
            assert not any(np.may_share_memory(arr, other) for other in arrays[:i])

    def test_an_adam_step_moves_the_loaded_model_as_it_moves_the_saved_one(self, saved):
        model, path = saved
        loaded = load_model(path)
        rng = np.random.default_rng(9)
        grads = {n: rng.normal(size=t.shape) for n, t in model.named_parameters().items()}
        for m in (model, loaded):
            params = m.named_parameters()
            adam_step(params, {params[n]: g for n, g in grads.items()}, AdamState(), 0.01)
        after = {n: t.data.tobytes() for n, t in model.named_parameters().items()}
        assert {n: t.data.tobytes() for n, t in loaded.named_parameters().items()} == after
