import dataclasses
import math

import numpy as np
import pytest

from shotgenre import fusion, metrics, nn
from shotgenre.featurestore import EmbeddingTable, GenreTaxonomy, Shot, Token, VideoRecord

TAX4 = GenreTaxonomy(("A", "B", "C", "D"))
DIMS = {"visual": 5, "audio": 4, "language": 6}


def toy_model(strategy, modalities=("visual", "audio", "language"), seed=0, d_h=7):
    return fusion.make_genre_model(strategy, modalities, TAX4, DIMS, d_h=d_h, seed=seed)


def toy_inputs(rng, batch=None):
    shape = lambda d: (batch, d) if batch else (d,)
    return {m: rng.normal(size=shape(d)) for m, d in DIMS.items()}


class TestAssembleInputs:
    def test_single_shot_single_frame_identity(self):
        x = np.array([1.5, -2.0, 0.25], np.float32)
        rec = VideoRecord("r", "train", set(), [Shot(x.reshape(1, 3))],
                          np.array([9.0], np.float32), [])
        out = fusion.assemble_inputs(rec, modalities=("visual", "audio"))
        np.testing.assert_array_equal(out["visual"], x)
        np.testing.assert_array_equal(out["audio"], rec.audio_embedding)

    def test_language_disabled_absent(self):
        rec = VideoRecord("r", "train", set(), [Shot(np.zeros((1, 2), np.float32))],
                          np.zeros(1, np.float32), [])
        out = fusion.assemble_inputs(rec, modalities=("visual",))
        assert set(out) == {"visual"}

    def test_language_requires_table(self):
        rec = VideoRecord("r", "train", set(), [Shot(np.zeros((1, 2), np.float32))],
                          np.zeros(1, np.float32), [Token("sea", "NOUN")])
        with pytest.raises(ValueError, match="embedding table"):
            fusion.assemble_inputs(rec, modalities=("language",))

    def test_train_mode_seed_repeatable(self):
        rng = np.random.default_rng(0)
        shots = [Shot(rng.normal(size=(4, 3)).astype(np.float32)) for _ in range(12)]
        rec = VideoRecord("r", "train", set(), shots, np.zeros(2, np.float32), [])
        a = fusion.assemble_inputs(rec, train_mode=True, seed=5, modalities=("visual",))
        b = fusion.assemble_inputs(rec, train_mode=True, seed=5, modalities=("visual",))
        np.testing.assert_array_equal(a["visual"], b["visual"])

    def test_language_feature_from_table(self):
        table = EmbeddingTable(dim=2, vectors={"sea": np.array([2.0, 4.0], np.float32)})
        rec = VideoRecord("r", "train", set(), [Shot(np.zeros((1, 2), np.float32))],
                          np.zeros(1, np.float32), [Token("sea", "NOUN")])
        out = fusion.assemble_inputs(rec, table, modalities=("language",))
        np.testing.assert_array_equal(out["language"], np.array([2.0, 4.0], np.float32))


class TestPredict:
    def test_late_is_mean_of_branch_outputs(self):
        model = toy_model("late", seed=3)
        rng = np.random.default_rng(1)
        inputs = toy_inputs(rng, batch=5)
        rho = fusion.predict(model, inputs)
        branches = fusion.branch_predictions(model, inputs)
        mean = np.mean([branches[m].astype(np.float64) for m in model.modalities],
                       axis=0).astype(np.float32)
        diff = np.abs(rho.astype(np.float64) - mean.astype(np.float64))
        assert np.all(diff <= np.spacing(np.abs(mean).astype(np.float64)))

    def test_intermediate_zero_weights_half(self):
        model = toy_model("intermediate", seed=0)
        for net in [model.joint] + [b.head for b in model.branches.values()]:
            for layer in net.layers:
                layer.weights = np.zeros_like(layer.weights)
                layer.bias = np.zeros_like(layer.bias)
        rho = fusion.predict(model, toy_inputs(np.random.default_rng(2)))
        np.testing.assert_array_equal(rho, np.full(4, 0.5, np.float32))

    def test_early_matches_hand_arithmetic(self):
        model = fusion.make_genre_model("early", ("visual",), GenreTaxonomy(("A", "B")),
                                        {"visual": 2}, d_h=2, seed=0)
        w1 = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
        w2 = np.array([[1.0, -1.0], [2.0, 0.5]], np.float32)
        model.branches["trunk"].hidden.layers[0].weights = w1
        model.branches["trunk"].hidden.layers[0].bias = np.zeros(2, np.float32)
        model.branches["trunk"].head.layers[0].weights = w2
        model.branches["trunk"].head.layers[0].bias = np.zeros(2, np.float32)
        x = np.array([0.5, -1.0])
        z = np.maximum(x, 0)  # identity weights + relu
        logits = w2.astype(np.float64) @ z
        expect = 1 / (1 + np.exp(-logits))
        got = fusion.predict(model, {"visual": x})
        np.testing.assert_allclose(got, expect.astype(np.float32), rtol=1e-6)

    def test_monotone_in_branch_output(self):
        # pushing one branch's probabilities up never lowers the late-fusion score
        model = toy_model("late", seed=4)
        inputs = toy_inputs(np.random.default_rng(3))
        before = fusion.predict(model, inputs).astype(np.float64)
        model.branches["audio"].head.layers[0].bias += np.float32(1.0)
        after = fusion.predict(model, inputs).astype(np.float64)
        assert np.all(after >= before)

    def test_early_has_no_branch_predictions(self):
        model = toy_model("early")
        assert fusion.branch_predictions(model, toy_inputs(np.random.default_rng(7))) == {}

    def test_missing_modality_rejected(self):
        model = toy_model("intermediate")
        inputs = toy_inputs(np.random.default_rng(4))
        del inputs["audio"]
        with pytest.raises(ValueError, match="missing modality"):
            fusion.predict(model, inputs)

    def test_wrong_dim_rejected(self):
        model = toy_model("early")
        inputs = toy_inputs(np.random.default_rng(5))
        inputs["visual"] = np.zeros(9)
        with pytest.raises(ValueError, match="dim"):
            fusion.predict(model, inputs)


class TestModelParams:
    @pytest.mark.parametrize("strategy, modalities, shapes", [
        # early: one branch over the concatenated visual (5) + audio (4) input
        ("early", ("visual", "audio"), [(7, 9), (7,), (4, 7), (4,)]),
        ("intermediate", ("visual", "audio", "language"),
         [(7, 5), (7,), (4, 7), (4,), (7, 4), (7,), (4, 7), (4,),
          (7, 6), (7,), (4, 7), (4,), (4, 21), (4,)]),
        ("late", ("audio", "visual"), [(7, 5), (7,), (4, 7), (4,), (7, 4), (7,), (4, 7), (4,)]),
    ])
    def test_shapes_and_order(self, strategy, modalities, shapes):
        model = toy_model(strategy, modalities=modalities)
        assert [p.shape for p in fusion.model_params(model)] == shapes


class TestTrainingLoss:
    def _half_output_model(self, strategy):
        model = toy_model(strategy, modalities=("visual",), seed=0)
        nets = [b.head for b in model.branches.values()]
        if model.joint is not None:
            nets.append(model.joint)
        for net in nets:
            for layer in net.layers:
                layer.weights = np.zeros_like(layer.weights)
                layer.bias = np.zeros_like(layer.bias)
        return model

    def test_intermediate_joint_plus_aux(self):
        model = self._half_output_model("intermediate")
        loss = fusion.training_loss(model, {"visual": np.ones(5)},
                                    np.array([1.0, 1.0, 1.0, 1.0]))
        assert loss == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_late_sum_of_branches(self):
        model = self._half_output_model("late")
        model3 = toy_model("late", seed=0)
        for b in model3.branches.values():
            for layer in b.head.layers:
                layer.weights = np.zeros_like(layer.weights)
                layer.bias = np.zeros_like(layer.bias)
        loss = fusion.training_loss(model3, toy_inputs(np.random.default_rng(0)),
                                    np.ones(4))
        assert loss == pytest.approx(3 * math.log(2), abs=1e-9)

    def test_perfect_predictions_tiny_loss(self):
        model = self._half_output_model("early")
        model.branches["trunk"].head.layers[0].bias = np.full(4, 50.0, np.float32)
        loss = fusion.training_loss(model, {"visual": np.zeros(5)}, np.ones(4))
        assert loss < 1e-6

    def test_gradients_all_strategies(self):
        rng = np.random.default_rng(30)
        for strategy in fusion.STRATEGIES:
            worst = 0.0
            for i in range(10):
                model = toy_model(strategy, seed=100 + i, d_h=6)
                inputs = toy_inputs(rng, batch=3)
                labels = rng.integers(0, 2, size=(3, 4)).astype(float)
                fn, x0, g0 = fusion.grad_check_closure(model, inputs, labels)
                worst = max(worst, nn.grad_check(fn, x0, g0).max_rel_error)
            assert worst < 1e-4, f"{strategy}: {worst}"

    @pytest.mark.parametrize("strategy", fusion.STRATEGIES)
    def test_single_vector_equals_one_row_batch(self, strategy):
        model = toy_model(strategy, seed=8)
        rng = np.random.default_rng(31)
        inputs = {m: x.astype(np.float32) for m, x in toy_inputs(rng).items()}
        labels = rng.integers(0, 2, size=4).astype(float)
        batch = {m: x[None] for m, x in inputs.items()}
        loss, grads = fusion.loss_and_grads(model, inputs, labels)
        batch_loss, batch_grads = fusion.loss_and_grads(model, batch, labels[None])
        assert loss == batch_loss
        assert len(grads) == len(batch_grads) == len(fusion.model_params(model))
        for g, bg, p in zip(grads, batch_grads, fusion.model_params(model)):
            assert g.shape == bg.shape == p.shape
            np.testing.assert_array_equal(g, bg)
        rho = fusion.predict(model, inputs)
        assert rho.shape == (4,)
        np.testing.assert_array_equal(rho, fusion.predict(model, batch)[0])

    def test_mixed_single_and_batch_rejected(self):
        model = toy_model("late")
        inputs = toy_inputs(np.random.default_rng(6))
        inputs["audio"] = inputs["audio"][None]
        with pytest.raises(ValueError, match="mixed single/batch"):
            fusion.predict(model, inputs)


class TestTrain:
    def test_zero_epochs_returns_initialized(self, planted):
        _, dataset, table, _ = planted
        cfg = fusion.TrainConfig(epochs=0, seed=5)
        model, history = fusion.train(dataset, cfg, table)
        assert history == []
        fresh = fusion.make_genre_model(cfg.strategy, cfg.modalities, dataset.taxonomy,
                                        {"visual": 8, "audio": 8, "language": 8},
                                        cfg.d_h, seed=cfg.seed)
        for a, b in zip(fusion.model_params(model), fusion.model_params(fresh)):
            np.testing.assert_array_equal(a, b)

    def test_seed_repeat_bit_identical_checkpoints(self, planted, tmp_path):
        _, dataset, table, _ = planted
        cfg = fusion.TrainConfig(epochs=4, seed=9, d_h=16)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        fusion.save_model(fusion.train(dataset, cfg, table)[0], p1)
        fusion.save_model(fusion.train(dataset, cfg, table)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loss_decreases_all_strategies(self, planted):
        _, dataset, table, _ = planted
        for strategy in fusion.STRATEGIES:
            cfg = fusion.TrainConfig(strategy=strategy, epochs=6, seed=2, d_h=16)
            _, history = fusion.train(dataset, cfg, table)
            assert history[5]["train_loss"] < history[1]["train_loss"], strategy

    def test_missing_split_rejected(self, planted):
        _, dataset, table, _ = planted
        import copy

        broken = copy.copy(dataset)
        broken.records = [r for r in dataset.records if r.split != "val"]
        with pytest.raises(ValueError, match="val"):
            fusion.train(broken, fusion.TrainConfig(epochs=1), table)

    def test_language_requires_matching_table(self, planted):
        _, dataset, _, _ = planted
        bad_table = EmbeddingTable(dim=3, vectors={})
        with pytest.raises(ValueError, match="d_l"):
            fusion.train(dataset, fusion.TrainConfig(epochs=1), bad_table)

    def test_history_fields(self, planted):
        _, dataset, table, _ = planted
        _, history = fusion.train(dataset, fusion.TrainConfig(epochs=3, seed=1, d_h=8), table)
        assert [h["epoch"] for h in history] == [0, 1, 2]
        assert all(np.isfinite(h["train_loss"]) and 0 <= h["val_macro_map"] <= 1
                   for h in history)

    @pytest.mark.parametrize("strategy", fusion.STRATEGIES)
    def test_dropout_path_trains(self, planted, strategy):
        _, dataset, table, _ = planted
        cfg = fusion.TrainConfig(strategy=strategy, epochs=2, seed=3, d_h=8, dropout=0.3)
        model, history = fusion.train(dataset, cfg, table)
        assert len(history) == 2
        assert np.isfinite(history[-1]["train_loss"])

    def test_sgd_optimizer_path(self, planted):
        _, dataset, table, _ = planted
        cfg = fusion.TrainConfig(epochs=2, seed=3, d_h=8, optimizer="sgd", max_lr=0.1)
        _, history = fusion.train(dataset, cfg, table)
        assert history[-1]["train_loss"] < history[0]["train_loss"] * 1.5


class TestInference:
    def test_order_and_determinism(self, planted):
        _, dataset, table, _ = planted
        model, _ = fusion.train(dataset, fusion.TrainConfig(epochs=2, seed=0, d_h=8), table)
        recs = dataset.split("test")[:3]
        a = fusion.infer_dataset(model, recs, table)
        b = fusion.infer_dataset(model, recs, table)
        assert a.ids == [r.id for r in recs]
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_zero_weight_model_all_half(self, planted):
        _, dataset, table, _ = planted
        model = fusion.make_genre_model("early", ("visual", "audio"), dataset.taxonomy,
                                        {"visual": 8, "audio": 8}, d_h=4, seed=0)
        trunk = model.branches["trunk"]
        for layer in trunk.hidden.layers + trunk.head.layers:
            layer.weights = np.zeros_like(layer.weights)
            layer.bias = np.zeros_like(layer.bias)
        preds = fusion.infer_dataset(model, dataset.split("test")[:2], table)
        np.testing.assert_array_equal(preds.scores, np.full((2, 5), 0.5, np.float32))

    def test_dim_mismatch_names_dims(self, planted):
        _, dataset, table, _ = planted
        model = fusion.make_genre_model("early", ("visual",), dataset.taxonomy,
                                        {"visual": 12}, d_h=4, seed=0)
        with pytest.raises(ValueError, match="12"):
            fusion.infer_dataset(model, dataset.split("test")[:1], table)

    @pytest.mark.parametrize("strategy", fusion.STRATEGIES)
    def test_batched_rows_equal_per_record_predict(self, planted, strategy):
        _, dataset, table, _ = planted
        cfg = fusion.TrainConfig(strategy=strategy, epochs=2, seed=4, d_h=8,
                                 shots_per_video=4, frames_per_shot=2, keywords_k=5)
        model, _ = fusion.train(dataset, cfg, table)
        recs = dataset.split("test")
        preds = fusion.infer_dataset(model, recs, table, num_shots=4, frames_per_shot=2,
                                     keywords_k=5)
        expect = np.stack([
            fusion.predict(model, fusion.assemble_inputs(
                rec, table, modalities=model.modalities, num_shots=4, frames_per_shot=2,
                keywords_k=5))
            for rec in recs
        ])
        assert preds.scores.dtype == np.float32
        np.testing.assert_array_equal(preds.scores, expect)

    def test_zero_shot_record_named(self, planted):
        _, dataset, table, _ = planted
        model = fusion.make_genre_model("early", ("visual", "audio"), dataset.taxonomy,
                                        {"visual": 8, "audio": 8}, d_h=4, seed=0)
        good = dataset.split("test")[0]
        empty = VideoRecord("no-shots", "test", set(), [], good.audio_embedding, [])
        with pytest.raises(ValueError, match="record no-shots"):
            fusion.infer_dataset(model, [good, empty], table)

    def test_empty_split_rejected(self, planted):
        _, dataset, table, _ = planted
        model, _ = fusion.train(dataset, fusion.TrainConfig(epochs=1, seed=0, d_h=8), table)
        with pytest.raises(ValueError):
            fusion.infer_dataset(model, [], table)


class TestCheckpointRoundtrip:
    def test_save_load_predicts_identically(self, planted, tmp_path):
        _, dataset, table, _ = planted
        model, _ = fusion.train(dataset, fusion.TrainConfig(epochs=2, seed=8, d_h=8), table)
        path = tmp_path / "m.ckpt"
        fusion.save_model(model, path)
        loaded = fusion.load_model(path)
        assert loaded.strategy == model.strategy
        assert loaded.modalities == model.modalities
        recs = dataset.split("val")[:4]
        np.testing.assert_array_equal(fusion.infer_dataset(loaded, recs, table).scores,
                                      fusion.infer_dataset(model, recs, table).scores)

    @pytest.mark.parametrize("strategy", fusion.STRATEGIES)
    def test_load_draws_no_random_weights(self, planted, tmp_path, monkeypatch, strategy):
        _, dataset, table, _ = planted
        cfg = fusion.TrainConfig(strategy=strategy, epochs=1, seed=8, d_h=8)
        model, _ = fusion.train(dataset, cfg, table)
        path = tmp_path / "m.ckpt"
        fusion.save_model(model, path)

        def no_draw(*args):
            raise AssertionError("load_model drew glorot weights")

        monkeypatch.setattr(nn, "glorot_uniform", no_draw)
        loaded = fusion.load_model(path)
        recs = dataset.split("test")
        np.testing.assert_array_equal(fusion.infer_dataset(loaded, recs, table).scores,
                                      fusion.infer_dataset(model, recs, table).scores)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        nn.save_checkpoint(path, {"kind": "other"}, [np.zeros(1, np.float32)])
        with pytest.raises(ValueError, match="kind"):
            fusion.load_model(path)


class TestCompare:
    def test_comparison_table_lists_all_strategies(self, planted):
        _, dataset, table, _ = planted
        rows = fusion.compare_strategies(dataset, fusion.TrainConfig(epochs=2, seed=1, d_h=8),
                                         table)
        assert [r["strategy"] for r in rows] == list(fusion.STRATEGIES)
        text = fusion.format_comparison(rows)
        for name in fusion.STRATEGIES:
            assert name in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fusion.TrainConfig(strategy="mid").validate()
        with pytest.raises(ValueError):
            fusion.TrainConfig(dropout=1.5).validate()
        with pytest.raises(ValueError):
            fusion.TrainConfig(modalities=("vision",)).validate()
        cfg = dataclasses.replace(fusion.TrainConfig(), epochs=-1)
        with pytest.raises(ValueError):
            cfg.validate()
