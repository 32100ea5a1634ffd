import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from l1bn import cli, trainer
from l1bn.batchnorm import BLOCK_ELEMS, BnMode, bn_backward, bn_forward_infer
from l1bn.gradcheck import finite_diff, relative_errors
from l1bn.tensor import Rng
from l1bn.trainer import (
    BnLayer,
    DenseLayer,
    DivergenceError,
    MOMENTUM,
    Mlp,
    MlpSpec,
    ReluLayer,
    SgdConfig,
    SyntheticTask,
    TrainingRecord,
    accuracy,
    forward_backward_step,
    inference_logits,
    inference_stages,
    parity_gap,
    run_experiment,
    sgd_update,
    softmax_cross_entropy,
    train,
)

SANITY_TASK, SANITY_HIDDEN, SANITY_CFG = cli._PRESETS["sanity"]


def each(g):
    """Stacked loss for ``finite_diff`` from a scalar loss ``g``."""
    return lambda vs: np.array([g(v) for v in vs])


def sanity_spec(mode, seed=0):
    return MlpSpec(in_dim=SANITY_TASK.dim, hidden=SANITY_HIDDEN, classes=SANITY_TASK.classes,
                   bn_mode=mode, seed=seed)


def fresh(*shape):
    """``take`` for a layer built outside an Mlp: new zero arrays."""
    return np.zeros(shape), np.zeros(shape)


def layer_arrays(layer):
    """A layer's parameter arrays and gradient arrays, in the order it took them."""
    if isinstance(layer, DenseLayer):
        if layer.b is None:
            return [layer.w], [layer.dw]
        return [layer.w, layer.b], [layer.dw, layer.db]
    if isinstance(layer, BnLayer):
        return [layer.params.gamma, layer.params.beta], [layer.d_gamma, layer.d_beta]
    return [], []


def per_layer_logits(model, x):
    """The inference forward layer by layer, unfolded: ``x @ w`` (``+ b``),
    ``bn_forward_infer`` with the running statistics, ``np.fmax``."""
    out = x
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            out = out @ layer.w
            if layer.b is not None:
                out = out + layer.b
        elif isinstance(layer, BnLayer):
            out = bn_forward_infer(out, layer.params, layer.state)
        else:
            out = np.fmax(out, 0.0)
    return out


class TestLoss:
    def test_uniform_logits_maximum_entropy(self):
        logits = np.zeros((8, 10))
        labels = np.arange(8) % 10
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(10), rel=1e-12)

    def test_gradient_sums_to_zero_per_row(self):
        rng = Rng(0)
        logits = rng.normal((6, 4))
        _, d = softmax_cross_entropy(logits, np.array([0, 1, 2, 3, 0, 1]))
        assert np.allclose(d.sum(axis=1), 0.0, atol=1e-15)


class TestLayerExpressions:
    """The training loop's per-call expressions against their textbook forms, bit for bit."""

    @staticmethod
    def bits(a):
        return a.view(np.int64)

    def test_relu_matches_where(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                            tiny, -tiny, 1e-310, -1e-310, 1.0, -1.0])
        x = Rng(3).normal((3000, 64))
        x.flat[::37] = np.resize(special, x.flat[::37].shape)
        got = ReluLayer().forward(x)
        assert np.array_equal(self.bits(got), self.bits(np.where(x > 0, x, 0.0)))

    @pytest.mark.parametrize("rows,fan_in", [(128, 20), (128, 64), (3000, 64)])
    def test_dense_matches_matmul_plus_bias(self, rows, fan_in):
        rng = Rng(4)
        layer = DenseLayer(fresh, rng, fan_in, 64)
        layer.b[:] = rng.normal((64,))
        x = rng.normal((rows, fan_in))
        got = layer.forward(x)
        assert np.array_equal(self.bits(got), self.bits(x @ layer.w + layer.b))

    def test_softmax_matches_copy_then_divide(self):
        rng = Rng(6)
        # 100 rows: dividing by a power of two would equal multiplying by its inverse
        logits = rng.normal((100, 10), 0.0, 4.0)
        labels = rng.permutation(100) % 10
        loss, d = softmax_cross_entropy(logits, labels)
        z = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(z)
        probs = exp / exp.sum(axis=1, keepdims=True)
        n = logits.shape[0]
        ref_loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), labels], 1e-300))))
        ref_d = probs.copy()
        ref_d[np.arange(n), labels] -= 1.0
        assert loss == ref_loss
        assert np.array_equal(self.bits(d), self.bits(ref_d / n))

    @pytest.mark.parametrize("mode", [BnMode.L2, BnMode.L1, None])
    def test_accuracy_between_forward_and_backward_leaves_grad(self, mode):
        # the evaluation runs no layer object, so it cannot replace a cache
        # that the pending backward reads
        spec = MlpSpec(in_dim=5, hidden=(8, 6), classes=3, bn_mode=mode, seed=4)
        plain, interrupted = Mlp(spec), Mlp(spec)
        rng = Rng(8)
        x, d_logits = rng.normal((16, 5)), rng.normal((16, 3))
        for model in (plain, interrupted):
            model.forward(x)
        accuracy(interrupted, rng.normal((40, 5)), np.arange(40) % 3)
        for model in (plain, interrupted):
            model.backward(d_logits)
        assert np.array_equal(self.bits(interrupted.grad), self.bits(plain.grad))


def reference_train(model, task, config):
    """``train`` on separate arrays: every layer gets its own copy of each
    parameter and gradient array, dense gradients are fresh ``x.T @ d`` arrays,
    and SGD walks the arrays one by one.  Returns the record and the parameters."""
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            layer.w, layer.dw = layer.w.copy(), layer.dw.copy()
            if layer.b is not None:
                layer.b, layer.db = layer.b.copy(), layer.db.copy()
        elif isinstance(layer, BnLayer):
            layer.params.gamma, layer.params.beta = (layer.params.gamma.copy(),
                                                     layer.params.beta.copy())
            layer.d_gamma, layer.d_beta = layer.d_gamma.copy(), layer.d_beta.copy()
    params = [p for layer in model.layers for p in layer_arrays(layer)[0]]
    assert not any(np.shares_memory(p, model.theta) for p in params)
    velocities = [np.zeros_like(p) for p in params]
    x_train, y_train, x_test, y_test = task.make()
    record = TrainingRecord(mode=model.spec.bn_mode.value, seed=model.spec.seed)
    shuffle_rng = Rng(model.spec.seed + 1)
    n = x_train.shape[0]
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = shuffle_rng.permutation(n)
        losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            logits = model.forward(x_train[idx])
            loss, d = softmax_cross_entropy(logits, y_train[idx])
            grads = []
            for layer in reversed(model.layers):
                if isinstance(layer, DenseLayer):
                    grads[:0] = [layer._x.T @ d] + ([d.sum(axis=0)] if layer.b is not None else [])
                    d = d @ layer.w.T
                elif isinstance(layer, BnLayer):
                    bundle = bn_backward(d, layer._cache, layer.params)
                    grads[:0] = [bundle.d_gamma, bundle.d_beta]
                    d = bundle.d_input
                else:
                    d = layer.backward(d)
            for p, g, v in zip(params, grads, velocities):
                v *= MOMENTUM
                v += g
                p -= lr * v
            losses.append(loss * idx.size)
        record.train_loss.append(float(np.sum(losses) / n))
        record.train_acc.append(accuracy(model, x_train, y_train))
        record.test_acc.append(accuracy(model, x_test, y_test))
    return record, params


class TestFlatParameters:
    """One ``theta`` and one ``grad`` vector per Mlp, with layer views into both."""

    @staticmethod
    def bits(a):
        return np.asarray(a, dtype=np.float64).view(np.int64)

    @pytest.mark.parametrize("mode", [BnMode.L2, BnMode.L1])
    def test_same_bits_as_separate_arrays(self, mode):
        task, hidden, config = cli._PRESETS["parity"]
        config = dataclasses.replace(config, epochs=2)
        spec = MlpSpec(in_dim=task.dim, hidden=hidden, classes=task.classes,
                       bn_mode=mode, seed=3)
        assert task.classes * task.train_per_class % config.batch_size != 1  # no skipped batch
        model = Mlp(spec)
        record = train(model, task, config)
        ref_record, ref_params = reference_train(Mlp(spec), task, config)
        assert np.array_equal(self.bits(record.rows()), self.bits(ref_record.rows()))
        assert np.array_equal(self.bits(model.theta),
                              self.bits(np.concatenate([p.ravel() for p in ref_params])))

    @pytest.mark.parametrize("mode", [BnMode.L1, None])
    def test_views_tile_theta_and_grad(self, mode):
        # the layers' views cover theta and grad exactly once, in layer order:
        # numbering every element shows any gap, overlap, copy or size error
        model = Mlp(MlpSpec(in_dim=5, hidden=(8, 6, 7), classes=3, bn_mode=mode, seed=2))
        for flat, side in ((model.theta, 0), (model.grad, 1)):
            views = [a for layer in model.layers for a in layer_arrays(layer)[side]]
            # BN: 3 hidden w, 3 (γ, β) pairs, head w and b; none: 4 (w, b) pairs
            assert len(views) == (11 if mode is not None else 8)
            flat[:] = np.arange(flat.size)
            assert np.array_equal(np.concatenate([a.ravel() for a in views]), flat)

    @pytest.mark.parametrize("mode", [*BnMode, None])
    def test_hidden_dense_bias_only_without_bn(self, mode):
        # BN's mean subtraction cancels a bias on its input, so a dense layer
        # feeding BN has none; the head, and every layer of a net without BN, has one
        spec = MlpSpec(in_dim=5, hidden=(8, 6, 7), classes=3, bn_mode=mode, seed=2)
        model = Mlp(spec)
        widths = (spec.in_dim, *spec.hidden, spec.classes)
        weights = sum(fan_in * fan_out for fan_in, fan_out in zip(widths, widths[1:]))
        per_hidden = 2 if mode is not None else 1
        assert model.theta.size == model.grad.size == (weights + spec.classes
                                                       + per_hidden * sum(spec.hidden))
        *hidden, head = [layer for layer in model.layers if isinstance(layer, DenseLayer)]
        for layer in hidden:
            assert (layer.b is None) == (layer.db is None) == (mode is not None)
        assert head.b.shape == head.db.shape == (spec.classes,)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("preset", ["parity", "sanity"])
    def test_initial_parameters_do_not_depend_on_bn_mode(self, preset, seed):
        # the modes differ only in the normalization: the same weights, and
        # γ = 1, β = 0 in every BN layer
        task, hidden, _ = cli._PRESETS[preset]
        models = [Mlp(MlpSpec(in_dim=task.dim, hidden=hidden, classes=task.classes,
                              bn_mode=mode, seed=seed)) for mode in BnMode]
        for model in models[1:]:
            assert np.array_equal(self.bits(model.theta), self.bits(models[0].theta))
        bn_layers = [layer for layer in models[0].layers if isinstance(layer, BnLayer)]
        assert len(bn_layers) == len(hidden)
        for layer in bn_layers:
            assert np.all(layer.params.gamma == 1.0) and np.all(layer.params.beta == 0.0)

    def test_sgd_on_theta_moves_layer_weights(self):
        model = Mlp(sanity_spec(BnMode.L2))
        w0 = model.layers[0].w.copy()
        model.grad[:] = 1.0
        sgd_update(model.theta, model.grad, np.zeros_like(model.theta), 0.1)
        assert np.array_equal(model.layers[0].w, w0 - 0.1)

    def test_backward_writes_into_grad(self):
        model = Mlp(sanity_spec(BnMode.L1))
        _, grad = forward_backward_step(model, Rng(4).normal((16, 5)), np.arange(16) % 2)
        assert grad is model.grad and np.any(grad != 0)

    @pytest.mark.parametrize("mode", [BnMode.L2, None])
    def test_gradients_are_zeros_before_backward(self, mode):
        model = Mlp(sanity_spec(mode))
        for layer in model.layers:
            params, grads = layer_arrays(layer)
            assert [g.shape for g in grads] == [p.shape for p in params]
        assert np.all(model.grad == 0)


class TestSgd:
    def test_first_step_from_rest_is_plain_step(self):
        # zero velocity: v1 = g, so the first step is θ - lr·g whatever the momentum
        p = np.array([1.0, 2.0])
        sgd_update(p, np.array([0.5, -0.5]), np.zeros(2), 0.1)
        assert np.allclose(p, [0.95, 2.05])

    def test_two_step_displacement_closed_form(self):
        # constant gradient, momentum 0.9: v1=g, v2=1.9g -> total lr*g*(1+1.9)
        assert MOMENTUM == 0.9
        lr, g_val = 0.1, 2.0
        p = np.array([0.0])
        v = np.zeros(1)
        sgd_update(p, np.array([g_val]), v, lr)
        sgd_update(p, np.array([g_val]), v, lr)
        assert p[0] == pytest.approx(-lr * g_val * (1 + 1.9), rel=1e-12)

    def test_zero_gradient_momentum_decay_then_freeze(self):
        p = np.array([0.0])
        v = np.array([1.0])  # stale momentum
        moved = []
        for _ in range(200):
            before = p[0]
            sgd_update(p, np.zeros(1), v, 1.0)
            moved.append(abs(p[0] - before))
        # geometric decay of the step size, eventually frozen
        assert moved[0] == pytest.approx(MOMENTUM)
        assert moved[5] == pytest.approx(MOMENTUM ** 6, rel=1e-9)
        assert moved[-1] < 1e-8

    def test_shape_mismatch(self):
        for g, v in ((np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(1))):
            with pytest.raises(ValueError):
                sgd_update(np.zeros(2), g, v, 0.1)

    def test_lr_schedule(self):
        cfg = SgdConfig(learning_rate=1.0, lr_decay_epochs=(5, 10))
        assert cfg.lr_at(0) == 1.0
        assert cfg.lr_at(5) == pytest.approx(0.1)
        assert cfg.lr_at(12) == pytest.approx(0.01)


class TestForwardBackward:
    def test_dense_gradients_match_finite_differences(self):
        # 2-layer net smoke test; BN layers are certified separately
        rng = Rng(0)
        spec = MlpSpec(in_dim=4, hidden=(6,), classes=3, bn_mode=BnMode.L1, seed=0)
        model = Mlp(spec)
        x = rng.normal((8, 4))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        _, grad = forward_backward_step(model, x, labels)

        def loss_at(theta):
            backup = model.theta.copy()
            model.theta[:] = theta
            out, _ = softmax_cross_entropy(model.forward(x), labels)
            model.theta[:] = backup
            return out

        numeric = finite_diff(each(loss_at), model.theta, step=1e-6)
        # no entry is a dead parameter (the dense layer feeding BN has no
        # bias), so every entry passes the relative test alone
        assert np.all(relative_errors(grad, numeric) <= 1e-4)

    def test_l1_l2_gradients_same_shapes(self):
        rng = Rng(1)
        x = rng.normal((16, 5))
        labels = rng.permutation(16) % 3
        shapes = {}
        for mode in (BnMode.L1, BnMode.L2):
            spec = MlpSpec(in_dim=5, hidden=(8, 8), classes=3, bn_mode=mode, seed=3)
            model = Mlp(spec)
            _, grad = forward_backward_step(model, x, labels)
            shapes[mode] = grad.shape
        assert shapes[BnMode.L1] == shapes[BnMode.L2]
        # same seed, different norm: gradients differ numerically
        m1 = Mlp(MlpSpec(in_dim=5, hidden=(8, 8), classes=3, bn_mode=BnMode.L1, seed=3))
        m2 = Mlp(MlpSpec(in_dim=5, hidden=(8, 8), classes=3, bn_mode=BnMode.L2, seed=3))
        _, g1 = forward_backward_step(m1, x, labels)
        _, g2 = forward_backward_step(m2, x, labels)
        assert not np.allclose(g1, g2)

    @pytest.mark.parametrize("mode", [BnMode.L1, None])
    def test_first_layer_produces_no_input_gradient(self, mode):
        # nothing reads the gradient with respect to the network input
        model = Mlp(MlpSpec(in_dim=5, hidden=(8, 8), classes=3, bn_mode=mode, seed=1))
        rng = Rng(2)
        model.forward(rng.normal((16, 5)))
        d, returned = rng.normal((16, 3)), []
        for layer in reversed(model.layers):
            d = layer.backward(d)
            returned.append(d)
        assert returned[-1] is None
        assert all(isinstance(r, np.ndarray) for r in returned[:-1])
        dense = [layer for layer in model.layers if isinstance(layer, DenseLayer)]
        assert [layer.input_grad for layer in dense] == [False, True, True]

    def test_divergence_error_on_nonfinite(self):
        spec = sanity_spec(None)
        model = Mlp(spec)
        model.layers[0].w[:] = 1e308  # force overflow
        x = Rng(0).normal((8, 5))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                forward_backward_step(model, x, np.zeros(8, dtype=np.int64))


class TestSyntheticTask:
    def test_balanced_and_deterministic(self):
        task = SyntheticTask(classes=4, dim=3, train_per_class=10, test_per_class=5, seed=9)
        x1, y1, xt1, yt1 = task.make()
        x2, y2, _, _ = task.make()
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        assert x1.shape == (40, 3) and xt1.shape == (20, 3)
        assert all(np.sum(y1 == k) == 10 for k in range(4))
        assert all(np.sum(yt1 == k) == 5 for k in range(4))

    @pytest.mark.parametrize("name", ["classes", "dim", "train_per_class", "test_per_class"])
    def test_rejects_a_count_below_one(self, name):
        # test_per_class=0 would make every epoch's accuracy a NaN mean of no rows
        with pytest.raises(ValueError, match=name):
            SyntheticTask(**{name: 0})

    def test_rejects_a_training_set_of_one_row(self):
        # no batch could reach the 2 rows BN needs, so no step would run and
        # the first eval would find BN's running statistics never updated
        with pytest.raises(ValueError, match="at least 2 rows"):
            SyntheticTask(classes=1, train_per_class=1)


class TestRunExperiment:
    @pytest.mark.parametrize("mode", [BnMode.L2, BnMode.L1])
    def test_sanity_task_reaches_99(self, mode):
        rec = run_experiment(SANITY_TASK, sanity_spec(mode), SANITY_CFG)
        assert rec.final_test_acc >= 0.99
        assert len(rec.train_loss) <= 20
        assert not rec.diverged

    def test_record_names_its_mode_and_seed(self):
        cfg = dataclasses.replace(SANITY_CFG, epochs=1)
        for mode, name in ((BnMode.L2, "l2"), (BnMode.L1, "l1"), (None, "none")):
            rec = run_experiment(SANITY_TASK, sanity_spec(mode, seed=7), cfg)
            assert (rec.mode, rec.seed) == (name, 7)

    def test_loss_averages_only_the_trained_rows(self):
        # 10 rows in batches of 3: the last batch holds 1 row and is skipped
        task = SyntheticTask(classes=2, dim=5, train_per_class=5, test_per_class=5, seed=3)
        config = SgdConfig(learning_rate=0.05, epochs=1, batch_size=3)
        model = Mlp(sanity_spec(BnMode.L2))
        x_train, y_train, _, _ = task.make()
        order = Rng(model.spec.seed + 1).permutation(len(x_train))  # train's shuffle
        probe = Mlp(sanity_spec(BnMode.L2))
        velocity, losses = np.zeros_like(probe.theta), []
        for lo in range(0, 9, 3):  # the three full batches, as train runs them
            idx = order[lo:lo + 3]
            loss, grad = forward_backward_step(probe, x_train[idx], y_train[idx])
            sgd_update(probe.theta, grad, velocity, config.lr_at(0))
            losses.append(loss * 3)
        record = train(model, task, config)
        assert not record.diverged
        assert record.train_loss == [float(np.sum(losses) / 9)]

    def test_deterministic_record(self):
        cfg = SgdConfig(learning_rate=0.1, epochs=4, batch_size=64)
        r1 = run_experiment(SANITY_TASK, sanity_spec(BnMode.L1, seed=5), cfg)
        r2 = run_experiment(SANITY_TASK, sanity_spec(BnMode.L1, seed=5), cfg)
        assert r1.train_loss == r2.train_loss
        assert r1.train_acc == r2.train_acc
        assert r1.test_acc == r2.test_acc
        assert r1.final_test_acc == r2.final_test_acc

    def test_soft_monotone_loss_after_epoch_three(self):
        # guard against broken gradients: the epoch loss may wiggle at the
        # floor but must not climb
        passing = 0
        for seed in range(5):
            task = dataclasses.replace(SANITY_TASK, seed=seed)
            rec = run_experiment(task, sanity_spec(BnMode.L2, seed=seed), SANITY_CFG)
            l = rec.train_loss
            ok = all(l[e + 1] <= max(1.15 * l[e], l[e] + 1e-3)
                     for e in range(3, len(l) - 1))
            passing += ok
        assert passing >= 4

    def test_train_and_infer_accuracy_agree_after_convergence(self):
        task = dataclasses.replace(SANITY_TASK, seed=0)
        model = Mlp(sanity_spec(BnMode.L1))
        rec = train(model, task, SANITY_CFG)
        assert rec.final_test_acc >= 0.99
        _, _, xte, yte = task.make()
        a_train = float(np.mean(np.argmax(model.forward(xte), axis=1) == yte))
        a_infer = accuracy(model, xte, yte)
        assert abs(a_train - a_infer) <= 0.01

    def test_no_bn_at_high_lr_diverges_or_trails(self):
        task = SyntheticTask(classes=10, dim=20, train_per_class=300,
                             test_per_class=100, center_scale=1.0, spread=1.3, seed=0)
        cfg = SgdConfig(learning_rate=0.5, epochs=3, batch_size=128)
        accs = {}
        recs = {}
        for mode in (BnMode.L2, BnMode.L1, None):
            spec = MlpSpec(in_dim=20, hidden=(64,) * 5, classes=10, bn_mode=mode, seed=0)
            rec = run_experiment(task, spec, cfg)
            name = mode.value if mode else "none"
            accs[name] = rec.final_test_acc
            recs[name] = rec
        assert not recs["l2"].diverged and not recs["l1"].diverged
        bn_floor = min(accs["l2"], accs["l1"])
        assert recs["none"].diverged or accs["none"] < bn_floor - 0.05


class TestBlockedAccuracy:
    """``accuracy`` feeds the folded net row blocks and sums their hits; its result
    is the whole-set ``np.mean(argmax == y)`` of the per-layer inference forward."""

    @pytest.fixture(scope="class")
    def trained(self):
        task, hidden, config = cli._PRESETS["parity"]
        model = Mlp(MlpSpec(in_dim=task.dim, hidden=hidden, classes=task.classes,
                            bn_mode=BnMode.L1))
        train(model, task, dataclasses.replace(config, epochs=2))
        x_train, y_train, _, _ = task.make()
        return model, x_train, y_train

    @pytest.mark.parametrize("block_elems, rows, blocks", [
        (BLOCK_ELEMS, 3000, 6),  # 512-row steps: six blocks of 500
        (64 * 7, 3000, 429),  # 7-row steps: blocks of 7 and of 6 rows
        (1, 2999, 1499),  # 1-row steps: capped at 2-row blocks, one of 3
    ], ids=["real", "small", "one-row-steps"])
    def test_equals_whole_set_accuracy(self, trained, monkeypatch, block_elems, rows, blocks):
        model, x, y = trained
        x, y = x[:rows], y[:rows]
        whole = float(np.mean(np.argmax(per_layer_logits(model, x), axis=1) == y))
        monkeypatch.setattr(trainer, "BLOCK_ELEMS", block_elems)
        sizes, logits_of = [], trainer.inference_logits

        def spy(stages, x_block):
            sizes.append(len(x_block))
            return logits_of(stages, x_block)

        monkeypatch.setattr(trainer, "inference_logits", spy)
        result = accuracy(model, x, y)
        assert type(result) is float and result == whole  # a float64 would print otherwise
        assert len(sizes) == blocks and sum(sizes) == rows
        assert 2 <= min(sizes) and max(sizes) - min(sizes) <= 1

    def test_peak_memory_is_a_few_blocks(self, trained):
        # a whole-set forward peaks at 3 MB here: 3000 x 64 float64s per layer
        model, x, y = trained
        accuracy(model, x, y)  # first call outside the trace
        tracemalloc.start()
        try:
            accuracy(model, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * BLOCK_ELEMS * 8


class TestFoldedInference:
    """``inference_stages`` folds each BN layer into the dense layer before it;
    ``inference_logits`` runs the folded net against the per-layer forward."""

    def test_no_bn_logits_bit_identical_to_per_layer(self):
        # without BN every stage is the layer's own (w, b): the same calls, the same bits
        model = Mlp(MlpSpec(in_dim=20, hidden=(64, 32, 64), classes=10, bn_mode=None, seed=1))
        rng = Rng(5)
        for layer in model.layers:
            if isinstance(layer, DenseLayer):
                layer.b[:] = rng.normal(layer.b.shape)
        stages = inference_stages(model)
        dense = [layer for layer in model.layers if isinstance(layer, DenseLayer)]
        assert len(stages) == len(dense) and all(
            w is layer.w and b is layer.b for (w, b), layer in zip(stages, dense))
        x = rng.normal((500, 20))
        got, ref = inference_logits(stages, x), per_layer_logits(model, x)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("mode", list(BnMode))
    def test_bn_logits_close_to_per_layer_and_same_accuracy(self, mode):
        # x @ (w·scale) rounds otherwise than (x @ w)·scale, so the bits may move;
        # on the parity preset after 2 epochs the logits agree normwise to about
        # 6e-16 and no accuracy moves
        task, hidden, config = cli._PRESETS["parity"]
        model = Mlp(MlpSpec(in_dim=task.dim, hidden=hidden, classes=task.classes, bn_mode=mode))
        train(model, task, dataclasses.replace(config, epochs=2))
        x, y, _, _ = task.make()
        stages = inference_stages(model)
        assert len(stages) == len(hidden) + 1
        assert all(b.shape == (w.shape[1],) for w, b in stages)
        ref = per_layer_logits(model, x)
        got = inference_logits(stages, x)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert accuracy(model, x, y) == float(np.mean(np.argmax(ref, axis=1) == y))

    @pytest.mark.parametrize("mode", list(BnMode))
    def test_untrained_bn_net_rejected(self, mode):
        model = Mlp(MlpSpec(in_dim=5, hidden=(8,), classes=3, bn_mode=mode))
        with pytest.raises(ValueError, match="^running statistics were never updated$"):
            accuracy(model, Rng(0).normal((10, 5)), np.zeros(10, dtype=np.int64))

    def test_stages_are_fresh_each_call(self):
        # SGD updates θ and the running statistics in place: a later call must
        # see them, so nothing folded is kept between calls
        model = Mlp(MlpSpec(in_dim=5, hidden=(8,), classes=3, bn_mode=BnMode.L2))
        model.forward(Rng(1).normal((16, 5)))
        (w, shift), _ = inference_stages(model)
        model.theta += 0.5
        model.layers[1].state.running_mu += 1.0
        (w2, shift2), _ = inference_stages(model)
        assert not np.array_equal(w, w2) and not np.array_equal(shift, shift2)
        assert not np.shares_memory(w2, model.theta)


class TestParity:
    def test_means_are_sequential_sums(self, monkeypatch):
        # np.mean sums eight or more values pairwise and rounds differently:
        # for eight runs at 0.9 it gives 0.9, the sequential sum 0.9000000000000001
        def fake_run(task, spec, config):
            return TrainingRecord(mode=spec.bn_mode.value, seed=spec.seed,
                                  final_test_acc=0.9)

        monkeypatch.setattr(trainer, "run_experiment", fake_run)
        summary = parity_gap(SANITY_TASK, sanity_spec(BnMode.L2), SANITY_CFG,
                             seeds=tuple(range(8)))
        assert summary["mean_acc_l2"] == summary["mean_acc_l1"] == 0.9000000000000001
        assert summary["gap_pp"] == 0.0

    def test_modes_keyed_by_name_and_gap_only_for_l2_and_l1(self, monkeypatch):
        def fake_run(task, spec, config):
            return TrainingRecord(mode="?", seed=spec.seed, final_test_acc=0.5,
                                  diverged=spec.bn_mode is None)

        monkeypatch.setattr(trainer, "run_experiment", fake_run)
        summary = parity_gap(SANITY_TASK, sanity_spec(BnMode.L2), SANITY_CFG,
                             seeds=(3, 4), modes=(None, BnMode.L1_COMPENSATED))
        assert set(summary.pop("records")) == {"none", "l1c"}
        assert summary == {"seeds": [3, 4],
                           "acc_none": [0.5, 0.5], "mean_acc_none": 0.5,
                           "diverged_none": [True, True],
                           "acc_l1c": [0.5, 0.5], "mean_acc_l1c": 0.5,
                           "diverged_l1c": [False, False]}

    def test_no_seeds_rejected_before_any_run(self, monkeypatch):
        def fake_run(task, spec, config):
            raise AssertionError("a run started")

        monkeypatch.setattr(trainer, "run_experiment", fake_run)
        with pytest.raises(ValueError, match="^seeds must not be empty$"):
            parity_gap(SANITY_TASK, sanity_spec(BnMode.L2), SANITY_CFG, seeds=())


class TestSpecValidation:
    def test_needs_hidden_layer(self):
        with pytest.raises(ValueError):
            MlpSpec(in_dim=4, hidden=(), classes=2)

    def test_positive_widths(self):
        with pytest.raises(ValueError):
            MlpSpec(in_dim=4, hidden=(0,), classes=2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            SgdConfig(batch_size=1)  # every batch would be skipped: no row trains

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_at_least_one(self, epochs):
        # no epoch trains nothing: both accuracies would read 0.0 and pass the gap gate
        with pytest.raises(ValueError, match=f"^epochs must be at least 1, got {epochs}$"):
            SgdConfig(epochs=epochs)
