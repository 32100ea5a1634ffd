import copy
import dataclasses
import json

import numpy as np
import pytest

from l1bn import gradcheck
from l1bn.batchnorm import BnMode, BnParams, LayoutError, bn_forward_train
from l1bn.gradcheck import (
    DegenerateInputError,
    EvaluationError,
    GradReport,
    ParamCheck,
    check_layer,
    draw_inputs,
    finite_diff,
    relative_errors,
)
from l1bn.tensor import Rng


def each(g):
    """Stacked loss for ``finite_diff`` from a scalar loss ``g``."""
    return lambda vs: np.array([g(v) for v in vs])


def finite_diff_loop(f, x, step=1e-6):
    """The coordinate-at-a-time oracle ``finite_diff`` replaced, for scalar ``f``."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        hi = x.copy()
        hi[idx] += step
        lo = x.copy()
        lo[idx] -= step
        f_hi, f_lo = f(hi), f(lo)
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise EvaluationError(f"non-finite probe value near coordinate {idx}")
        grad[idx] = (f_hi - f_lo) / (2.0 * step)
    return grad


class TestFiniteDiff:
    def test_linear_function_exact(self):
        x = Rng(0).normal((3, 4))
        grad = finite_diff(each(lambda v: float(np.sum(v))), x, step=1e-6)
        assert np.allclose(grad, 1.0, atol=1e-9)

    def test_quadratic_example(self):
        grad = finite_diff(each(lambda v: float(np.sum(v ** 2))), np.array([1.0, 2.0]),
                           step=1e-6)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    @pytest.mark.parametrize("step", [1e-2, 1e-3, 1e-4])
    def test_self_test_within_truncation_bound(self, step):
        # closed-form oracle vs central differences on analytic toys:
        # linear is exact, quadratic has zero h^2 truncation term, so both
        # sit within 10*h^2 at steps where rounding is negligible
        x = Rng(1).normal((10,))
        lin = finite_diff(each(lambda v: float(np.sum(3.0 * v))), x, step=step)
        assert np.abs(lin - 3.0).max() <= 10 * step ** 2
        quad = finite_diff(each(lambda v: float(np.sum(v ** 2))), x, step=step)
        assert np.abs(quad - 2.0 * x).max() <= 10 * step ** 2

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff(each(lambda v: 0.0), np.zeros(2), step=0.0)

    def test_non_finite_probe_rejected(self):
        with pytest.raises(EvaluationError):
            finite_diff(each(lambda v: float("nan")), np.zeros(2))


class TestRelativeErrors:
    def test_floor_prevents_blowup(self):
        rel = relative_errors(np.array([0.0]), np.array([1e-12]))
        assert rel[0] == pytest.approx(1e-12 / 1e-8)

    def test_nonnegative(self):
        rng = Rng(3)
        rel = relative_errors(rng.normal((20,)), rng.normal((20,)))
        assert np.all(rel >= 0)


class TestCheckLayer:
    @pytest.mark.parametrize("mode,shape,seed", [
        (BnMode.L2, (7, 3), 1),
        (BnMode.L1, (7, 3), 1),
        (BnMode.L1_COMPENSATED, (4, 3, 3, 2), 1),
    ])
    def test_analytic_matches_oracle(self, mode, shape, seed):
        report = check_layer(mode, shape, seed=seed)
        assert report.max_rel_err <= 1e-5
        for slot in (report.input, report.gamma, report.beta):
            assert slot.max_rel_err >= 0 and slot.max_abs_err >= 0

    def test_l1_reports_backward_agreement(self):
        report = check_layer(BnMode.L1, (8, 4), seed=5)
        assert report.backward_agreement is not None
        assert report.backward_agreement <= 1e-10
        assert check_layer(BnMode.L2, (8, 4), seed=5).backward_agreement is None

    def test_step_halving_not_truncation_dominated(self):
        # a truncation-dominated discrepancy would shrink ~4x when the step
        # halves; the reported noise-floor discrepancy must not do that
        for mode in (BnMode.L2, BnMode.L1):
            e_full = check_layer(mode, (7, 3), seed=0, step=1e-5).max_rel_err
            e_half = check_layer(mode, (7, 3), seed=0, step=5e-6).max_rel_err
            assert e_half >= 0.5 * e_full
            assert max(e_full, e_half) <= 1e-5

    def test_tie_avoidance_resampling(self):
        x = draw_inputs(BnMode.L1, (8, 3), Rng(0), tie_margin=1e-3)
        mu = x.mean(axis=0)
        assert np.abs(x - mu).min() > 1e-3

    def test_degenerate_input_error(self):
        # an impossible margin exhausts the retry cap
        with pytest.raises(DegenerateInputError):
            draw_inputs(BnMode.L1, (8, 3), Rng(0), tie_margin=10.0, max_resamples=5)

    def test_pooled_count_too_small(self):
        with pytest.raises(ValueError):
            check_layer(BnMode.L2, (2, 3))

    # (2, 1, 3) would also fail the pooled-count check: the layout check comes first
    @pytest.mark.parametrize("shape", [(4, 3, 2), (2, 1, 3)])
    @pytest.mark.parametrize("mode", [BnMode.L2, BnMode.L1])
    def test_unsupported_rank(self, mode, shape):
        with pytest.raises(LayoutError):
            check_layer(mode, shape)

    def test_report_serializes(self):
        report = check_layer(BnMode.L1, (6, 2), seed=7)
        payload = json.dumps(report.to_dict())
        assert "max_rel_err" in payload

    def test_affine_gradients_certified(self):
        # gamma/beta enter linearly, so the oracle check on them is sharp
        report = check_layer(BnMode.L1_COMPENSATED, (10, 4), seed=2)
        assert report.gamma.max_rel_err <= 1e-7
        assert report.beta.max_rel_err <= 1e-7


def asdict_report(report):
    """The ``dataclasses.asdict`` form that ``GradReport.to_dict`` replaced."""
    d = dataclasses.asdict(report)
    d["shape"] = list(report.shape)
    for slot in ("input", "gamma", "beta"):
        d[slot]["worst_index"] = list(d[slot]["worst_index"])
    return d


class TestReportDict:
    @pytest.mark.parametrize("shape", [(7, 3), (7, 3, 3, 2), (8, 1)])
    @pytest.mark.parametrize("mode", [BnMode.L2, BnMode.L1])
    def test_equals_asdict_form(self, mode, shape):
        report = check_layer(mode, shape, seed=3)
        d, reference = report.to_dict(), asdict_report(report)
        assert (d["backward_agreement"] is None) == (mode is BnMode.L2)
        assert d == reference
        assert json.dumps(d, sort_keys=True) == json.dumps(reference, sort_keys=True)

    @pytest.mark.parametrize("shape", [(7, 3), (4, 3, 3, 2), (8, 1), (4, 2, 2, 1)])
    @pytest.mark.parametrize("mode", list(BnMode))
    def test_equals_per_slot_form(self, monkeypatch, mode, shape):
        grads, _ = record_passes(monkeypatch)
        bundles = record_bundles(monkeypatch)
        report = check_layer(mode, shape, seed=3)
        assert report.to_dict() == per_slot_dict(mode, shape, 3, bundles, grads[0])

    @pytest.mark.parametrize("mode", [BnMode.L1, BnMode.L1_COMPENSATED])
    def test_tie_keeps_naive_form(self, monkeypatch, mode):
        # both forms get a relative error of exactly 2 in every slot, the naive form
        # at the slot's last index and the fused form at its first: the naive form,
        # the first bundle, must be the one reported
        shape, seed, n, c = (7, 3), 3, 21, 3
        numeric = loop_theta(mode, shape, seed)
        nums = {"input": numeric[:n].reshape(shape), "gamma": numeric[n:n + c],
                "beta": numeric[n + c:]}

        def forge(name, pick):
            real = getattr(gradcheck, name)

            def backward(*args):
                bundle = real(*args)
                for slot, num in nums.items():
                    d = getattr(bundle, f"d_{slot}").copy()
                    d.flat[pick(d.size)] = -num.flat[pick(d.size)]  # |a - n| / |n| = 2
                    setattr(bundle, f"d_{slot}", d)
                return bundle

            monkeypatch.setattr(gradcheck, name, backward)

        forge("bn_backward_l1_naive", lambda size: size - 1)
        forge("bn_backward", lambda size: 0)
        grads, _ = record_passes(monkeypatch)
        bundles = record_bundles(monkeypatch)
        report = check_layer(mode, shape, seed=seed)
        for slot, num in nums.items():
            check = getattr(report, slot)
            assert check.max_rel_err == 2.0
            assert check.worst_index == np.unravel_index(num.size - 1, num.shape)
            assert check.max_abs_err == 2.0 * abs(num.flat[-1])
        assert report.worst_param == "input"
        assert report.to_dict() == per_slot_dict(mode, shape, seed, bundles, grads[0])

    def test_returned_lists_are_copies(self):
        report = check_layer(BnMode.L1, (7, 3, 3, 2), seed=3)
        before = copy.deepcopy(report)
        d = report.to_dict()
        d["shape"].append(99)
        for slot in ("input", "gamma", "beta"):
            d[slot]["worst_index"][0] = 99
            d[slot]["max_rel_err"] = -1.0
        assert report == before and report.to_dict() == asdict_report(before)


class TestOracleAgainstForward:
    def test_l2_full_layer_probe(self):
        # the oracle itself: probe-loss composed with the training forward
        rng = Rng(4)
        shape = (7, 3)
        x = rng.normal(shape)
        params = BnParams(gamma=rng.uniform((3,), 0.5, 1.5),
                          beta=rng.uniform((3,), -0.5, 0.5),
                          epsilon=1e-5, mode=BnMode.L2)
        p = rng.normal(shape)

        def f(v):
            y, _ = bn_forward_train(v, params)
            return float(np.sum(p * y))

        from l1bn.batchnorm import bn_backward

        _, cache = bn_forward_train(x, params)
        analytic = bn_backward(p, cache, params).d_input
        numeric = finite_diff(each(f), x, step=1e-6)
        assert relative_errors(analytic, numeric).max() <= 1e-5


def record_passes(monkeypatch):
    """Patch ``gradcheck.finite_diff`` to keep the numeric gradient of each call and
    the stack size of every call it makes to the loss."""
    grads, stacks = [], []
    real = gradcheck.finite_diff

    def recording(f, x, step=1e-6):
        sizes = []
        stacks.append(sizes)

        def counted(xs):
            sizes.append(len(xs))
            return f(xs)

        grads.append(real(counted, x, step))
        return grads[-1]

    monkeypatch.setattr(gradcheck, "finite_diff", recording)
    return grads, stacks


def record_bundles(monkeypatch):
    """Patch both backward passes in ``gradcheck`` to keep the bundle each returns."""
    bundles = {}
    for name in ("bn_backward", "bn_backward_l1_naive"):
        def keep(*args, _real=getattr(gradcheck, name), _name=name):
            bundles[_name] = _real(*args)
            return bundles[_name]
        monkeypatch.setattr(gradcheck, name, keep)
    return bundles


def loop_theta(mode, shape, seed, step=1e-6, epsilon=1e-5):
    """The numeric gradient over θ = (x.ravel(), γ, β) as ``check_layer`` drew and
    probed it one forward per probe, one slot at a time, before its probes were
    stacked."""
    rng = Rng(seed)
    x = draw_inputs(mode, shape, rng)
    c = shape[-1]
    gamma = rng.uniform((c,), 0.5, 1.5)
    beta = rng.uniform((c,), -0.5, 0.5)
    p = rng.normal(shape)

    def loss(xv, gv, bv):
        y, _ = bn_forward_train(xv, BnParams(gamma=gv, beta=bv, epsilon=epsilon, mode=mode))
        return float(np.sum(p * y))

    return np.concatenate([finite_diff_loop(lambda v: loss(v, gamma, beta), x, step).ravel(),
                           finite_diff_loop(lambda v: loss(x, v, beta), gamma, step),
                           finite_diff_loop(lambda v: loss(x, gamma, v), beta, step)])


def param_check(analytic, numeric):
    """One slot's comparison as ``check_layer`` made it before its slots shared a pass."""
    rel = relative_errors(analytic, numeric)
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return ParamCheck(max_rel_err=float(rel.max()),
                      max_abs_err=float(np.abs(analytic - numeric).max()),
                      worst_index=tuple(int(i) for i in worst))


def per_slot_dict(mode, shape, seed, bundles, numeric, step=1e-6):
    """The report dict built slot by slot, bundle by bundle, naive form first."""
    n, c = int(np.prod(shape)), shape[-1]
    nums = {"input": numeric[:n].reshape(shape), "gamma": numeric[n:n + c],
            "beta": numeric[n + c:]}
    order = [bundles[k] for k in ("bn_backward_l1_naive", "bn_backward") if k in bundles]
    checks = {slot: max((param_check(getattr(b, f"d_{slot}"), num) for b in order),
                        key=lambda ch: ch.max_rel_err)
              for slot, num in nums.items()}
    worst_param = max(checks, key=lambda k: checks[k].max_rel_err)
    agreement = None
    if len(order) == 2:
        agreement = float(relative_errors(order[0].d_input, order[1].d_input).max())
    return GradReport(
        mode=mode.value, shape=tuple(shape), seed=seed, step=step, **checks,
        max_rel_err=checks[worst_param].max_rel_err,
        max_abs_err=max(ch.max_abs_err for ch in checks.values()),
        worst_param=worst_param, backward_agreement=agreement,
    ).to_dict()


class TestStackedOracle:
    # One finite_diff call over θ replaced one call per slot (x, γ, β): the θ
    # gradient must carry the bits each slot's own pass gave.
    @pytest.mark.parametrize("mode", list(BnMode))
    @pytest.mark.parametrize("shape", [(7, 3), (4, 3, 3, 2), (9, 1)])
    def test_bit_identical_to_coordinate_loop(self, monkeypatch, mode, shape):
        grads, stacks = record_passes(monkeypatch)
        check_layer(mode, shape, seed=3)
        assert [len(s) for s in stacks] == [1]  # one finite_diff call, one stacked forward
        assert np.array_equal(grads[0], loop_theta(mode, shape, seed=3))

    # (4, 3, 3, 2): θ has 76 coordinates, x in [0, 72), γ in [72, 74), β in [74, 76).
    # For each chunk size, the slot edges each chunk straddles, chunks straddling none
    # left out.
    STRADDLED = {
        1: [],            # 76 chunks of one coordinate
        5: [[72, 74]],    # [70, 75): all three slots in one chunk
        3: [[74]],        # [72, 75): the γ|β edge, with x|γ on a chunk edge
        73: [[72], [74]],  # [0, 73) straddles x|γ and [73, 76) γ|β
    }

    @pytest.mark.parametrize("mode", list(BnMode))
    @pytest.mark.parametrize("per_chunk", list(STRADDLED))
    def test_bit_identical_across_chunks(self, monkeypatch, mode, per_chunk):
        shape, size = (4, 3, 3, 2), 76
        monkeypatch.setattr(gradcheck, "_CHUNK_VALUES", 2 * size * per_chunk)
        grads, stacks = record_passes(monkeypatch)
        check_layer(mode, shape, seed=3)
        assert len(stacks) == 1
        assert max(stacks[0]) == 2 * per_chunk and sum(stacks[0]) == 2 * size
        edges = np.cumsum([0] + stacks[0]) // 2  # each chunk's first coordinate, then the end
        per_chunk_edges = [[e for e in (72, 74) if lo < e < hi]
                           for lo, hi in zip(edges, edges[1:])]
        assert [found for found in per_chunk_edges if found] == self.STRADDLED[per_chunk]
        assert np.array_equal(grads[0], loop_theta(mode, shape, seed=3))

    def test_chunks_bounded(self):
        x = np.zeros((16, 4, 4, 8))
        sizes = []

        def f(xs):
            sizes.append(len(xs))
            return np.zeros(len(xs))

        finite_diff(f, x)
        assert sum(sizes) == 2 * x.size
        assert max(sizes) * x.size <= gradcheck._CHUNK_VALUES

    def test_error_names_coordinate_in_later_chunk(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "_CHUNK_VALUES", 2 * 12 * 4)  # 4 coordinates a chunk
        x = np.zeros((3, 4))
        flat_index = np.ravel_multi_index((1, 2), x.shape)  # 6: third of the second chunk

        def f(xs):
            return np.where(xs.reshape(len(xs), -1)[:, flat_index] != 0.0, np.nan, 0.0)

        with pytest.raises(EvaluationError, match=r"coordinate \(1, 2\)$"):
            finite_diff(f, x)


class TestPassCounts:
    """What one check costs: one ``finite_diff`` call over the n + 2c coordinates of
    θ, and one training forward for the analytic gradients plus one per chunk."""

    @pytest.mark.parametrize("per_chunk", [None, 5])  # None: the default chunk
    @pytest.mark.parametrize("shape", [(5, 2), (16, 8), (4, 3, 3, 2), (6, 2, 2, 4), (9, 1)])
    @pytest.mark.parametrize("mode", list(BnMode))
    def test_one_pass_over_theta(self, monkeypatch, mode, shape, per_chunk):
        size = int(np.prod(shape)) + 2 * shape[-1]
        if per_chunk:
            monkeypatch.setattr(gradcheck, "_CHUNK_VALUES", 2 * size * per_chunk)
        sizes, forwards = [], []
        real_diff, real_forward = gradcheck.finite_diff, gradcheck.bn_forward_train

        def counted_diff(f, x, step=1e-6):
            sizes.append(x.size)
            return real_diff(f, x, step)

        def counted_forward(*args):
            forwards.append(args[0].shape)
            return real_forward(*args)

        monkeypatch.setattr(gradcheck, "finite_diff", counted_diff)
        monkeypatch.setattr(gradcheck, "bn_forward_train", counted_forward)
        check_layer(mode, shape, seed=3)
        chunks = -(-size // per_chunk) if per_chunk else 1
        assert sizes == [size]
        assert len(forwards) == 1 + chunks and forwards[0] == shape


class TestNonFiniteProbe:
    # (4, 3, 3, 2): θ holds x's 72 coordinates, then γ's 2, then β's 2
    @pytest.mark.parametrize("flat,slot,index", [
        (0, "input", (0, 0, 0, 0)),
        (71, "input", (3, 2, 2, 1)),
        (72, "gamma", (0,)),
        (73, "gamma", (1,)),
        (75, "beta", (1,)),
    ])
    def test_error_names_slot_and_index_in_its_shape(self, monkeypatch, flat, slot, index):
        real = gradcheck.finite_diff

        def poisoned(f, theta, step=1e-6):
            def g(thetas):
                losses = f(thetas)
                losses[thetas[:, flat] != theta[flat]] = np.nan
                return losses
            return real(g, theta, step)

        monkeypatch.setattr(gradcheck, "finite_diff", poisoned)
        with pytest.raises(EvaluationError) as exc:
            check_layer(BnMode.L1, (4, 3, 3, 2), seed=3)
        assert str(exc.value) == f"non-finite probe value near {slot} {index}"
        assert exc.value.index == index
        assert exc.value.__cause__.index == (flat,)
