import math
import tracemalloc

import numpy as np
import pytest

from shotgenre import nn
from shotgenre._rng import spawn_rng

from oracles import oracle_adam_step, oracle_sgd_step


# fit's tracemalloc peak over a 64-1024-512-2 net, in float64 parameter
# bytes: master, two moments, the gradient list and its flat copy (5) plus a
# float32 best snapshot (0.5) and block-sized scratch read 5.53; full-size
# scratch would add 2.5 more.
PEAK_PARAM_MULTIPLE = 6.5


def make_net(dims, acts, seed=0):
    return nn.make_mlp(dims, acts, spawn_rng(seed, "test-net"))


class TestForward:
    def test_sigmoid_of_zero_weights(self):
        net = nn.Mlp([nn.DenseLayer(np.zeros((3, 2), np.float32), np.zeros(3, np.float32))],
                     ["sigmoid"])
        out, _ = nn.mlp_forward(net, np.array([1.0, -2.0]))
        np.testing.assert_array_equal(out, [0.5, 0.5, 0.5])

    def test_relu_clips_negative(self):
        net = nn.Mlp([nn.DenseLayer(np.array([[1.0]], np.float32), np.zeros(1, np.float32))],
                     ["relu"])
        out, _ = nn.mlp_forward(net, np.array([-3.0]))
        assert out[0] == 0.0

    def test_two_layer_matches_hand_matrix_arithmetic(self):
        # constants exactly representable in float32 so the hand arithmetic
        # is comparable at full precision
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]], np.float32)
        b1 = np.array([0.125, -0.25], np.float32)
        w2 = np.array([[2.0, 1.0]], np.float32)
        b2 = np.array([0.375], np.float32)
        net = nn.Mlp([nn.DenseLayer(w1, b1), nn.DenseLayer(w2, b2)], ["relu", "linear"])
        x = np.array([0.75, -0.5])
        # independent hand computation
        z1 = np.array([1.0 * 0.75 + -1.0 * -0.5 + 0.125, 0.5 * 0.75 + 2.0 * -0.5 + -0.25])
        a1 = np.maximum(z1, 0.0)
        expect = 2.0 * a1[0] + 1.0 * a1[1] + 0.375
        out, _ = nn.mlp_forward(net, x)
        np.testing.assert_allclose(out, [expect], rtol=1e-12)

    def test_batch_and_single_agree(self):
        # batched and row-at-a-time matmuls may use different BLAS kernels,
        # so agreement is to rounding, not bitwise
        net = make_net((4, 3, 2), ["relu", "sigmoid"], seed=5)
        x = np.random.default_rng(0).normal(size=(6, 4))
        batch, _ = nn.mlp_forward(net, x)
        singles = np.stack([nn.mlp_forward(net, row)[0] for row in x])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        net = make_net((3, 4), ["linear"], seed=1)
        logits, _ = nn.mlp_forward(net, np.random.default_rng(2).normal(size=(5, 3)))
        out = nn.softmax(logits)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        # the row max is subtracted first, so huge logits do not overflow
        np.testing.assert_allclose(nn.softmax(logits + 1000.0), out, rtol=1e-9)

    def test_softmax_is_not_an_activation(self):
        with pytest.raises(ValueError, match="unknown activation 'softmax'"):
            make_net((3, 4), ["softmax"])

    def test_shape_mismatch_rejected(self):
        net = make_net((3, 2), ["linear"])
        with pytest.raises(ValueError):
            nn.mlp_forward(net, np.zeros(4))

    def test_deterministic(self):
        net = make_net((5, 4, 3), ["relu", "sigmoid"], seed=3)
        x = np.random.default_rng(4).normal(size=(2, 5))
        a, _ = nn.mlp_forward(net, x)
        b, _ = nn.mlp_forward(net, x)
        np.testing.assert_array_equal(a, b)


class TestBceLoss:
    def test_half_probability(self):
        loss, _ = nn.bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction_tiny(self):
        loss, _ = nn.bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert 0.0 <= loss <= 2 * math.log(1 / (1 - nn.PROB_EPS)) + 1e-12

    def test_two_genres(self):
        loss, _ = nn.bce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, size=4)
        y = rng.integers(0, 2, size=4).astype(float)

        def fn(x):
            return nn.bce_loss(x, y)[0]

        res = nn.grad_check(fn, p, nn.bce_loss(p, y)[1], h=1e-6)
        assert res.max_rel_error < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nn.bce_loss(np.zeros(3), np.zeros(2))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.uniform(0, 1, size=5)
            y = rng.integers(0, 2, size=5).astype(float)
            assert nn.bce_loss(p, y)[0] >= 0.0


class TestWeightedCeLoss:
    def test_boundary_class_weighted(self):
        loss, _ = nn.weighted_ce_loss(np.array([0.0, 0.0]), 1, (10.0, 1.0))
        assert loss == pytest.approx(10 * math.log(2), abs=1e-9)

    def test_nonboundary_class(self):
        loss, _ = nn.weighted_ce_loss(np.array([0.0, 0.0]), 0, (10.0, 1.0))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_neutral_weights_reduce_to_unweighted(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        a, ga = nn.weighted_ce_loss(logits, labels, (1.0, 1.0))
        # independent unweighted computation
        shifted = logits - logits.max(axis=1, keepdims=True)
        sm = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        expect = -np.log(sm[np.arange(6), labels]).mean()
        assert a == pytest.approx(expect, rel=1e-12)

    def test_scaled_weights_scale_loss_exactly(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(5, 2))
        labels = rng.integers(0, 2, size=5)
        base, _ = nn.weighted_ce_loss(logits, labels, (1.0, 1.0))
        scaled, _ = nn.weighted_ce_loss(logits, labels, (2.0, 2.0))
        assert scaled == 2.0 * base

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=2)

        def fn(x):
            return nn.weighted_ce_loss(x, 1, (10.0, 1.0))[0]

        grad = nn.weighted_ce_loss(logits, 1, (10.0, 1.0))[1]
        assert nn.grad_check(fn, logits, grad, h=1e-6).max_rel_error < 1e-6

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            nn.weighted_ce_loss(np.array([np.inf, 0.0]), 1)

    def test_one_label_per_row_whatever_the_shapes(self):
        logits = np.random.default_rng(11).normal(size=(3, 2))
        labels = np.array([1, 0, 1])
        loss, grad = nn.weighted_ce_loss(logits, labels)
        for z, y in ((logits, labels[:, None]), (logits[None], labels[None])):
            got, g = nn.weighted_ce_loss(z, y)
            assert got == loss and g.shape == z.shape
            np.testing.assert_array_equal(g.reshape(3, 2), grad)
        with pytest.raises(ValueError, match="expected"):
            nn.weighted_ce_loss(logits, labels[:2])
        for bad in (-1, 2):
            with pytest.raises(ValueError, match="0 or 1"):
                nn.weighted_ce_loss(np.array([0.0, 1.0]), bad)


class TestBackward:
    def _loss_closure(self, net, x, y):
        shapes = [a.shape for layer in net.layers for a in (layer.weights, layer.bias)]

        def fn(vec):
            arrays = nn.unflatten_vector(vec, shapes)
            i = 0
            for layer in net.layers:
                layer.weights = arrays[i]
                layer.bias = arrays[i + 1]
                i += 2
            out, cache = nn.mlp_forward(net, x)
            loss, d_out = nn.bce_loss(out, y)
            return loss, cache, d_out

        x0 = np.concatenate([a.astype(np.float64).ravel()
                             for layer in net.layers for a in (layer.weights, layer.bias)])
        _, cache, d_out = fn(x0)
        grads, _ = nn.backward(net, cache, d_out)
        g0 = np.concatenate([g.ravel() for pair in grads for g in pair])
        return lambda vec: fn(vec)[0], x0, g0

    def test_random_nets_match_finite_differences(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for i in range(100):
            dims = (int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            net = make_net(dims, ["relu", "sigmoid"], seed=i)
            x = rng.normal(size=(2, dims[0]))
            y = rng.integers(0, 2, size=(2, dims[-1])).astype(float)
            fn, x0, g0 = self._loss_closure(net, x, y)
            res = nn.grad_check(fn, x0, g0)
            worst = max(worst, res.max_rel_error)
        assert worst < 1e-4

    def test_zero_upstream_zero_grads(self):
        net = make_net((3, 2), ["sigmoid"], seed=2)
        out, cache = nn.mlp_forward(net, np.ones(3))
        grads, dx = nn.backward(net, cache, np.zeros_like(out))
        for dw, db in grads:
            assert not dw.any() and not db.any()
        assert not np.asarray(dx).any()

    def test_linear_layer_grad_is_outer_product(self):
        net = nn.Mlp([nn.DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32),
                                    np.zeros(2, np.float32))], ["linear"])
        x = np.array([0.5, -1.5])
        up = np.array([2.0, -3.0])
        _, cache = nn.mlp_forward(net, x)
        grads, _ = nn.backward(net, cache, up)
        np.testing.assert_allclose(grads[0][0], np.outer(up, x), rtol=1e-15)
        np.testing.assert_allclose(grads[0][1], up, rtol=1e-15)

    def test_relu_at_exactly_zero_passes_no_gradient(self):
        w = np.array([[1.0, 0.0], [2.0, 1.0]], np.float32)
        b = np.array([-0.5, 0.0], np.float32)
        net = nn.Mlp([nn.DenseLayer(w, b)], ["relu"])
        x = np.array([0.5, 0.5])
        _, cache = nn.mlp_forward(net, x)
        # unit 0's pre-activation is exactly 0.0, unit 1's is 1.5
        np.testing.assert_array_equal(x @ w.T.astype(np.float64) + b, [0.0, 1.5])
        caches = {"0.0": cache}
        # matmul yields +0.0 for a zero sum, so the -0.0 cases use the caches
        # a forward pass over a -0.0 pre-activation may leave
        caches["-0.0 clamped"] = [x, np.maximum(np.array([-0.0, 1.5]), 0.0)]
        caches["-0.0 kept"] = [x, np.array([-0.0, 1.5])]
        for name, c in caches.items():
            [(dw, db)], dx = nn.backward(net, c, np.array([3.0, 2.0]))
            assert not dw[0].any() and db[0] == 0.0, name
            np.testing.assert_array_equal(dw[1], 2.0 * x, err_msg=name)
            assert db[1] == 2.0, name
            # dx holds unit 1's contribution only
            np.testing.assert_array_equal(dx, 2.0 * w[1].astype(np.float64), err_msg=name)

    def test_leading_axes_sum_into_grads(self):
        # a (2, 3, d) stack against the same rows as one (6, d) batch; the
        # matmuls may take different BLAS kernels, so agreement is to rounding
        net = make_net((3, 4, 2), ["relu", "sigmoid"], seed=7)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 3))
        up = rng.normal(size=(2, 3, 2))
        out, cache = nn.mlp_forward(net, x)
        grads, dx = nn.backward(net, cache, up)
        flat_out, flat_cache = nn.mlp_forward(net, x.reshape(6, 3))
        flat_grads, flat_dx = nn.backward(net, flat_cache, up.reshape(6, 2))
        assert out.shape == (2, 3, 2) and dx.shape == x.shape
        np.testing.assert_allclose(out.reshape(6, 2), flat_out, rtol=1e-12)
        np.testing.assert_allclose(dx.reshape(6, 3), flat_dx, rtol=1e-12)
        for (dw, db), (fw, fb) in zip(grads, flat_grads):
            assert dw.shape == fw.shape and db.shape == fb.shape
            np.testing.assert_allclose(dw, fw, rtol=1e-12)
            np.testing.assert_allclose(db, fb, rtol=1e-12)


class TestAdam:
    def test_zero_gradient_noop(self):
        params = np.array([1.0, 2.0])
        before = params.copy()
        state = nn.init_adam(params)
        nn.adam_step(params, np.zeros(2), state)
        np.testing.assert_array_equal(params, before)
        assert state.step == 1

    def test_first_step_magnitude(self):
        # bias-corrected first step moves by ~lr regardless of gradient scale
        params = np.array([1.0])
        state = nn.init_adam(params, lr=1e-3)
        nn.adam_step(params, np.array([1.0]), state)
        # hand evaluation: m_hat = v_hat = 1 -> step = lr / (1 + eps), and the
        # stored value is rounded to float32
        assert params[0] == np.float32(1.0 - 1e-3 / (1.0 + 1e-8))

    def test_deterministic(self):
        start = np.array([0.5, -0.5])
        grads = np.array([0.2, 0.1])
        a, b = start.copy(), start.copy()
        state_a, state_b = nn.init_adam(a), nn.init_adam(b)
        nn.adam_step(a, grads.copy(), state_a)
        nn.adam_step(b, grads.copy(), state_b)
        assert not np.array_equal(a, start)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state_a.m, state_b.m)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_matches_out_of_place_reference(self, monkeypatch, optimizer):
        # three arrays (12, 5 and 6 values) in one flat vector; 5-element
        # blocks straddle both array boundaries and leave a 3-element tail
        monkeypatch.setattr(nn, "_STEP_BLOCK", 5)
        rng = np.random.default_rng(8)
        params = [rng.normal(size=s).astype(np.float32) for s in [(3, 4), (5,), (2, 3)]]
        m = [np.zeros(p.shape) for p in params]
        v = [np.zeros(p.shape) for p in params]
        flat = np.concatenate([p.ravel() for p in params]).astype(np.float64)
        state = nn.init_adam(flat, lr=0.01)
        for step in range(1, 5):
            grads = [rng.normal(size=p.shape) * 10.0 ** -step for p in params]
            lr = 0.01 * step
            if optimizer == "adam":
                nn.adam_step(flat, np.concatenate([g.ravel() for g in grads]), state, lr=lr)
                params, m, v = oracle_adam_step(params, grads, m, v, step, lr)
                assert state.step == step
                np.testing.assert_array_equal(state.m, np.concatenate([a.ravel() for a in m]))
                np.testing.assert_array_equal(state.v, np.concatenate([a.ravel() for a in v]))
            else:
                nn.sgd_step(flat, np.concatenate([g.ravel() for g in grads]), lr)
                params = oracle_sgd_step(params, grads, lr)
            np.testing.assert_array_equal(flat, np.concatenate([p.ravel() for p in params]))

    def test_shape_mismatch_rejected(self):
        params = np.zeros(4)
        with pytest.raises(ValueError):
            nn.adam_step(params, np.zeros(3), nn.init_adam(params))

    def test_sgd_step(self):
        params = np.array([1.0])
        nn.sgd_step(params, np.array([2.0]), lr=0.1)
        assert params[0] == pytest.approx(0.8)


class TestLrSchedule:
    def test_warmup_then_cosine(self):
        total, peak = 100, 1e-3
        lrs = [nn.lr_schedule(s, total, peak) for s in range(total)]
        warmup = 5
        assert lrs[warmup - 1] == pytest.approx(peak)
        assert max(lrs) == pytest.approx(peak)
        assert lrs[-1] < 0.01 * peak
        assert all(b <= a + 1e-15 for a, b in zip(lrs[warmup:], lrs[warmup + 1:]))



class TestMlpParams:
    def test_installs_arrays_as_given(self):
        nets = [make_net((3, 2), ["relu"]), make_net((2, 1), ["sigmoid"], seed=1)]
        arrays = [a.astype(np.float64) + 1.0 for a in nn.mlp_params(nets)]
        nn.set_mlp_params(nets, arrays)
        got = nn.mlp_params(nets)
        assert len(got) == 4
        assert all(a is b for a, b in zip(got, arrays))

    def test_wrong_count_rejected(self):
        nets = [make_net((3, 2), ["relu"]), make_net((2, 1), ["sigmoid"])]
        with pytest.raises(ValueError, match="expected 4 parameter arrays, got 3"):
            nn.set_mlp_params(nets, nn.mlp_params(nets)[:3])

    def test_wrong_shape_rejected(self):
        nets = [make_net((3, 2), ["relu"]), make_net((2, 1), ["sigmoid"])]
        arrays = nn.mlp_params(nets)
        arrays[2] = np.zeros((1, 3), np.float32)
        with pytest.raises(ValueError, match=r"layer 1: parameter shapes \(1, 3\)"):
            nn.set_mlp_params(nets, arrays)


class TestFit:
    def _fit(self, net, batch_loss, evaluate, **kwargs):
        return nn.fit([net], 3, batch_loss, evaluate, epochs=4, batch_size=2, max_lr=0.1,
                      rng=np.random.default_rng(0), score_name="val", **kwargs)

    def test_nonfinite_loss_names_epoch_and_step(self):
        from shotgenre import fusion

        net = make_net((2, 1), ["linear"])
        losses = iter([1.0, 1.0, np.nan])

        def batch_loss(idx):
            return next(losses), [np.zeros(p.shape) for p in nn.mlp_params([net])]

        with pytest.raises(nn.TrainingDivergedError, match="epoch 1, step 2"):
            self._fit(net, batch_loss, lambda: 0.0)
        assert all(p.dtype == np.float32 for p in nn.mlp_params([net]))
        assert fusion.TrainingDivergedError is nn.TrainingDivergedError

    def test_best_epoch_parameters_restored(self):
        net = make_net((2, 1), ["linear"])
        scores = iter([0.2, 0.9, 0.5, 0.1])
        snapshots, begun, batches = [], [], []

        def batch_loss(idx):
            batches.append(sorted(idx))
            return 1.0, [np.ones(p.shape) for p in nn.mlp_params([net])]

        def evaluate():
            snapshots.append([p.copy() for p in nn.mlp_params([net])])
            return next(scores)

        history = self._fit(net, batch_loss, evaluate, begin_epoch=begun.append)
        assert history == [{"epoch": e, "train_loss": 1.0, "val": v}
                           for e, v in enumerate([0.2, 0.9, 0.5, 0.1])]
        assert begun == [0, 1, 2, 3]
        assert [sorted(a + b) for a, b in zip(batches[::2], batches[1::2])] == [[0, 1, 2]] * 4
        assert not np.array_equal(snapshots[1][0], snapshots[3][0])
        for got, best in zip(nn.mlp_params([net]), snapshots[1]):
            np.testing.assert_array_equal(got, best)


    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_matches_out_of_place_reference(self, monkeypatch, optimizer):
        # 39 parameters in 4 arrays: 7-element blocks straddle every array
        # boundary and leave a 4-element tail block
        monkeypatch.setattr(nn, "_STEP_BLOCK", 7)
        net = make_net((5, 4, 3), ["relu", "sigmoid"], seed=3)
        start = [p.copy() for p in nn.mlp_params([net])]
        rng = np.random.default_rng(4)
        seen, sent = [], []

        def batch_loss(idx):
            params = nn.mlp_params([net])
            seen.append([p.copy() for p in params])
            grads = [p * 0.5 + rng.normal(size=p.shape) for p in params]
            sent.append([g.copy() for g in grads])
            return 1.0, grads

        scores = iter([0.2, 0.9, 0.5, 0.1])
        history = nn.fit([net], 5, batch_loss, lambda: next(scores), epochs=4, batch_size=2,
                         max_lr=0.1, rng=np.random.default_rng(0), score_name="val",
                         optimizer=optimizer)
        assert [row["val"] for row in history] == [0.2, 0.9, 0.5, 0.1]
        assert len(sent) == 12  # 3 steps per epoch
        params = start
        m = [np.zeros(p.shape) for p in start]
        v = [np.zeros(p.shape) for p in start]
        after = []
        for step, grads in enumerate(sent):
            for got, want in zip(seen[step], params):
                np.testing.assert_array_equal(got, want.astype(np.float64))
            lr = nn.lr_schedule(step, 12, 0.1)
            if optimizer == "adam":
                params, m, v = oracle_adam_step(params, grads, m, v, step + 1, lr)
            else:
                params = oracle_sgd_step(params, grads, lr)
            after.append(params)
        final = nn.mlp_params([net])
        assert all(p.dtype == np.float32 for p in final)
        # epoch 1 scored best; its last step is step 5
        assert not np.array_equal(after[5][0], after[-1][0])
        for got, want in zip(final, after[5]):
            np.testing.assert_array_equal(got, want)

    def test_peak_allocation_bounded(self):
        # a mid-sized net's training steps allocate a bounded multiple of its
        # float64 parameter bytes: master, moments, gradient list and flat
        # gradient, a float32 best snapshot, and block-sized scratch
        net = make_net((64, 1024, 512, 2), ["relu", "relu", "sigmoid"], seed=5)
        x = np.random.default_rng(6).normal(size=(8, 64))
        param_bytes = 8 * sum(p.size for p in nn.mlp_params([net]))

        def batch_loss(idx):
            out, cache = nn.mlp_forward(net, x[idx])
            grads, _ = nn.backward(net, cache, np.ones_like(out))
            return float(out.sum()), [g for pair in grads for g in pair]

        tracemalloc.start()
        try:
            nn.fit([net], 8, batch_loss, lambda: 0.0, epochs=1, batch_size=4, max_lr=1e-3,
                   rng=np.random.default_rng(0), score_name="val")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_PARAM_MULTIPLE * param_bytes, peak / param_bytes


class TestGradCheck:
    def test_quadratic(self):
        def fn(x):
            return 0.5 * float(x @ x)

        x0 = np.array([1.0, 2.0])
        res = nn.grad_check(fn, x0, x0.copy())
        assert res.max_rel_error < 1e-8
        assert res.skipped == []

    def test_relu_kink_skipped(self):
        def fn(x):
            return float(np.maximum(x, 0.0).sum())

        x0 = np.array([0.0, 1.0])
        res = nn.grad_check(fn, x0, (x0 > 0).astype(float))
        assert res.skipped == [0]
        assert res.max_rel_error < 1e-8

    def test_wrong_gradient_detected(self):
        def fn(x):
            return 0.5 * float(x @ x)

        x0 = np.array([1.0, -2.0])
        res = nn.grad_check(fn, x0, 2.0 * x0)  # analytic gradient off by 2x
        assert res.max_rel_error > 0.3


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=(3, 2)).astype(np.float32), rng.normal(size=3).astype(np.float32)]
        path = tmp_path / "m.ckpt"
        nn.save_checkpoint(path, {"kind": "test", "note": 1}, params)
        header, loaded = nn.load_checkpoint(path)
        assert header["kind"] == "test"
        for a, b in zip(params, loaded):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_bytes(self, tmp_path):
        params = [np.ones((2, 2), np.float32)]
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(p1, {"kind": "t"}, params)
        nn.save_checkpoint(p2, {"kind": "t"}, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b'{"foo": 1}\n')
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)
