import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import oracle_boundary_samples
from shotgenre import metrics, nn, sceneboundary as sb
from shotgenre.featurestore import Shot, VideoRecord


def random_samples(rng, n, d, label=None):
    """``n`` random samples as ``(x, y)``: per sample, four (d,) shots from
    ``rng.normal`` and then, unless ``label`` fixes them all, a label from
    ``rng.integers``."""
    rows, labels = [], []
    for _ in range(n):
        rows.append(rng.normal(size=sb.WINDOW * d))
        labels.append(int(rng.integers(0, 2)) if label is None else label)
    return np.array(rows, dtype=np.float32), np.array(labels, dtype=np.int64)


def sequence_samples(sequences):
    """The ``(x, y)`` samples of annotated ``(features, flags)`` sequences,
    in sequence order."""
    xs, ys = zip(*(sb.build_samples(feats, flags) for feats, flags in sequences))
    return np.concatenate(xs), np.concatenate(ys)


class TestBuildSamples:
    def test_four_shots_one_sample(self):
        feats = np.arange(8, dtype=np.float32).reshape(4, 2)
        x, y = sb.build_samples(feats, [0, 1, 0])
        assert x.shape == (1, 8) and x.dtype == np.float32
        assert y.tolist() == [1] and y.dtype == np.int64
        np.testing.assert_array_equal(x[0], feats.reshape(-1))

    def test_six_shots_three_samples(self):
        feats = np.zeros((6, 2), np.float32)
        x, y = sb.build_samples(feats, [0] * 5)
        assert len(x) == 3
        assert y.tolist() == [0, 0, 0]

    def test_five_shots_label_mapping(self):
        feats = np.zeros((5, 2), np.float32)
        _, y = sb.build_samples(feats, [0, 0, 1, 0])
        assert y.tolist() == [0, 1]

    def test_sample_count_formula(self):
        rng = np.random.default_rng(0)
        for n in range(4, 20):
            feats = rng.normal(size=(n, 3)).astype(np.float32)
            flags = rng.integers(0, 2, size=n - 1).tolist()
            x, y = sb.build_samples(feats, flags)
            assert x.shape == (n - 3, 12) and y.shape == (n - 3,)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, 40).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float32, st.tuples(st.just(n), st.integers(1, 5)),
                   elements=st.floats(width=32)),
        st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))))
    def test_matches_oracle_bit_for_bit(self, case):
        feats, flags = case
        x, y = sb.build_samples(feats, flags)
        want_x, want_y = oracle_boundary_samples(feats, flags)
        assert x.dtype == want_x.dtype and x.shape == want_x.shape
        assert x.tobytes() == want_x.tobytes()
        assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes()

    @pytest.mark.parametrize("flags", [[0, 0.7, 1.9, 0], [0, True, 0, 0], [0, 2, 0, 0],
                                       [0, -1, 0, 0], [0, "1", 0, 0], [0, 1.0, 0, 0]])
    def test_flags_must_be_integers_0_or_1(self, flags):
        with pytest.raises(ValueError, match="integers 0 or 1"):
            sb.build_samples(np.zeros((5, 2), np.float32), flags)

    def test_too_few_shots_rejected(self):
        with pytest.raises(ValueError):
            sb.build_samples(np.zeros((3, 2), np.float32), [0, 0])

    def test_flag_length_checked(self):
        with pytest.raises(ValueError):
            sb.build_samples(np.zeros((5, 2), np.float32), [0, 0])

    def test_from_record_uses_shot_means(self):
        shots = [Shot(np.full((2, 3), float(i), np.float32)) for i in range(4)]
        rec = VideoRecord("r", "train", set(), shots, np.zeros(2, np.float32), [],
                          boundary_flags=[0, 1, 0])
        x, y = sb.samples_from_record(rec)
        assert x.shape == (1, 12) and y.tolist() == [1]
        np.testing.assert_array_equal(x[0, 6:9], np.full(3, 2.0, np.float32))

    def test_record_without_flags_rejected(self):
        rec = VideoRecord("r", "train", set(),
                          [Shot(np.zeros((1, 2), np.float32))] * 4,
                          np.zeros(2, np.float32), [])
        with pytest.raises(ValueError, match="boundary_flags"):
            sb.samples_from_record(rec)


class TestModel:
    def test_softmax_head_sums_to_one(self):
        model = sb.make_boundary_model(3, hidden_dims=(8, 4), seed=1)
        rng = np.random.default_rng(2)
        x, _ = random_samples(rng, 5, 3, label=0)
        logits, _ = nn.mlp_forward(model.mlp, x)
        probs = nn.softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert sb.predict_boundary(model, x).tobytes() == probs[:, 1].astype(np.float32).tobytes()

    def test_architecture_dims(self):
        model = sb.make_boundary_model(16)
        dims = [layer.weights.shape for layer in model.mlp.layers]
        assert dims == [(4096, 64), (1024, 4096), (2, 1024)]

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for i in range(10):
            model = sb.make_boundary_model(2, hidden_dims=(5, 3), seed=i)
            x, y = random_samples(rng, 3, 2)
            fn, x0, g0 = sb.grad_check_closure(model, x, y)
            worst = max(worst, nn.grad_check(fn, x0, g0).max_rel_error)
        assert worst < 1e-4

    def test_checkpoint_roundtrip(self, tmp_path):
        model = sb.make_boundary_model(3, hidden_dims=(6, 4), seed=5)
        path = tmp_path / "b.ckpt"
        sb.save_boundary_model(model, path)
        loaded = sb.load_boundary_model(path)
        rng = np.random.default_rng(1)
        x, _ = random_samples(rng, 1, 3, label=1)
        np.testing.assert_array_equal(sb.predict_boundary(model, x),
                                      sb.predict_boundary(loaded, x))


    def _save_raw(self, path, hidden_dims, params):
        nn.save_checkpoint(path, {"kind": "scene-boundary", "feature_dim": 3,
                                  "hidden_dims": list(hidden_dims)}, params)

    def test_checkpoint_with_too_few_arrays_rejected(self, tmp_path):
        model = sb.make_boundary_model(3, hidden_dims=(6, 4), seed=5)
        path = tmp_path / "short.ckpt"
        params = [p for layer in model.mlp.layers for p in (layer.weights, layer.bias)]
        self._save_raw(path, (6, 4), params[:-2])
        with pytest.raises(ValueError, match="expected 6 parameter arrays, got 4"):
            sb.load_boundary_model(path)

    def test_checkpoint_arrays_must_match_header_dims(self, tmp_path):
        model = sb.make_boundary_model(3, hidden_dims=(8, 4), seed=5)
        path = tmp_path / "wide.ckpt"
        params = [p for layer in model.mlp.layers for p in (layer.weights, layer.bias)]
        self._save_raw(path, (6, 4), params)
        with pytest.raises(ValueError, match=r"layer 0: parameter shapes \(8, 12\)"):
            sb.load_boundary_model(path)


class TestSynthSequences:
    def test_deterministic(self):
        a, truth_a = sb.synth_boundary_sequences(num_sequences=3, seed=4)
        b, truth_b = sb.synth_boundary_sequences(num_sequences=3, seed=4)
        for (fa, ga), (fb, gb) in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
            assert ga == gb
        np.testing.assert_array_equal(truth_a["shift_vector"], truth_b["shift_vector"])

    def test_positive_ratio_near_target(self):
        seqs, _ = sb.synth_boundary_sequences(num_sequences=50, shots_per_sequence=43,
                                              boundary_prob=1 / 11, seed=6)
        flags = [f for _, flag in seqs for f in flag]
        rate = sum(flags) / len(flags)
        assert 0.05 < rate < 0.14

    def test_boundary_shifts_along_planted_vector(self):
        seqs, truth = sb.synth_boundary_sequences(num_sequences=5, shots_per_sequence=20,
                                                  noise_sigma=0.01, shift_scale=5.0, seed=7)
        v = truth["shift_vector"].astype(np.float64)
        for feats, flags in seqs:
            for i, flag in enumerate(flags):
                gap = float((feats[i + 1].astype(np.float64) - feats[i]) @ v)
                if flag:
                    assert gap > 2.5
                else:
                    assert abs(gap) < 2.5


class TestTraining:
    def test_weighted_equals_scaled_unweighted(self):
        rng = np.random.default_rng(8)
        model = sb.make_boundary_model(2, hidden_dims=(4,), seed=0)
        x, y = random_samples(rng, 6, 2)
        base, _ = sb._loss_and_grads(model, x, y, (1.0, 1.0))
        doubled, _ = sb._loss_and_grads(model, x, y, (2.0, 2.0))
        assert doubled == 2.0 * base

    def test_planted_data_reaches_high_ap(self):
        seqs, _ = sb.synth_boundary_sequences(num_sequences=12, shots_per_sequence=30,
                                              feature_dim=6, seed=9)
        x, y = sequence_samples(seqs)
        cfg = sb.BoundaryTrainConfig(epochs=60, max_lr=3e-3, seed=1,
                                     hidden_dims=(32, 16), batch_size=64)
        model, history = sb.train_boundary(x, y, cfg)
        assert max(h["val_ap"] for h in history) >= 0.9

    def test_seed_repeat_identical_checkpoints(self, tmp_path):
        seqs, _ = sb.synth_boundary_sequences(num_sequences=4, shots_per_sequence=20,
                                              feature_dim=4, seed=10)
        x, y = sequence_samples(seqs)
        cfg = sb.BoundaryTrainConfig(epochs=2, seed=3, hidden_dims=(8, 4), batch_size=32)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        sb.save_boundary_model(sb.train_boundary(x, y, cfg)[0], p1)
        sb.save_boundary_model(sb.train_boundary(x, y, cfg)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_degenerate_split_rejected(self):
        rng = np.random.default_rng(11)
        x, y = random_samples(rng, 20, 2, label=0)
        with pytest.raises(ValueError, match="degenerate"):
            sb.train_boundary(x, y, sb.BoundaryTrainConfig(epochs=1, hidden_dims=(4,)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sb.BoundaryTrainConfig(val_frac=0.0).validate()
        with pytest.raises(ValueError):
            sb.BoundaryTrainConfig(class_weights=(0.0, 1.0)).validate()

    @pytest.mark.parametrize("field, value", [
        ("max_lr", float("nan")), ("max_lr", float("inf")), ("max_lr", -1e-3),
        ("class_weights", (float("nan"), 1.0)), ("class_weights", (float("inf"), 1.0)),
        ("class_weights", (10.0, float("nan"))), ("class_weights", (10.0, -1.0)),
    ])
    def test_nonfinite_or_nonpositive_rate_and_weights_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            sb.BoundaryTrainConfig(**{field: value}).validate()


class TestEval:
    def test_toy_ap_matches_hand_ranking(self):
        # scores (0.9, 0.6, 0.4, 0.2), labels (1, 0, 1, 0):
        # positives at ranks 1 and 3 -> AP = (1/1 + 2/3) / 2
        report = metrics.boundary_report([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0])
        assert report["ap"] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_constant_output_recall_is_side_of_threshold(self):
        high = metrics.boundary_report([0.7, 0.7], [1, 1])
        low = metrics.boundary_report([0.3, 0.3], [1, 1])
        assert high["recall_at_05"] == 1.0 and low["recall_at_05"] == 0.0

    def test_eval_boundary_on_separating_model(self):
        seqs, _ = sb.synth_boundary_sequences(num_sequences=10, shots_per_sequence=25,
                                              feature_dim=5, seed=13)
        x, y = sequence_samples(seqs)
        cfg = sb.BoundaryTrainConfig(epochs=60, max_lr=3e-3, seed=0,
                                     hidden_dims=(24, 8), batch_size=64)
        model, _ = sb.train_boundary(x, y, cfg)
        result = sb.eval_boundary(model, x, y)
        assert result["ap"] >= 0.9

    def test_empty_samples_rejected(self):
        model = sb.make_boundary_model(2, hidden_dims=(4,), seed=0)
        with pytest.raises(ValueError):
            sb.eval_boundary(model, np.zeros((0, 8), np.float32), np.zeros(0, np.int64))
