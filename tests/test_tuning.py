import math
import warnings

import numpy as np
import pytest

from brightside.errors import NonfiniteGradient, ObserverOutsideBall, TuningFailed
from brightside.geometry import (
    INTERIOR_MARGIN,
    ProjectionParams,
    cap_forward,
    make_params,
    sample_uniform_cap,
)
from brightside.kernels import _pullback
from brightside.targets import TargetModel, mv_student_t, skew_t
from brightside import tuning
from brightside.tuning import (
    STOP_WINDOW,
    STOP_Z,
    TuneOptions,
    alignment_metrics,
    project_params,
    tune,
    _objective_and_gradient,
    _objective_flat,
)
from oracles import fd_tuner_gradient


def flat_grad(g):
    g_ho, g_mu, g_R = g
    return np.concatenate([np.atleast_1d(g_ho), np.atleast_1d(g_mu), [g_R]])


class GradFreeWrapper(TargetModel):
    """Hides the gradient of a target."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def log_density(self, y):
        return self.inner.log_density(y)


class FlakyGradient(TargetModel):
    """Cauchy whose gradient is NaN on its first three calls."""

    dim = 3
    calls = 0
    inner = mv_student_t(3, nu=1.0)

    def log_density(self, y):
        return self.inner.log_density(y)

    def grad_log_density(self, y):
        self.calls += 1
        g = self.inner.grad_log_density(y)
        return np.full_like(g, np.nan) if self.calls <= 3 else g


class TestKlObjective:
    def test_matched_cauchy_integrand_is_zero(self):
        rng = np.random.default_rng(0)
        d = 5
        target = mv_student_t(d, nu=1.0)
        cap = sample_uniform_cap(d, 1.0, rng, size=4000)
        # the per-sample integrand is minus the pullback density
        vals = -_pullback(cap, make_params(d, ell_o=1.0), target)[1]
        assert np.std(vals) <= 1e-8
        assert abs(_objective_and_gradient((np.zeros(d), np.zeros(d), 1.0), 1.0,
                                           target, cap)[0]) <= 1e-8

    def test_mismatched_scale_increases_objective(self):
        rng = np.random.default_rng(1)
        d = 4
        target = mv_student_t(d, nu=1.0)
        cap = sample_uniform_cap(d, 1.0, rng, size=3000)
        base = _objective_and_gradient((np.zeros(d), np.zeros(d), 1.0), 1.0, target, cap)[0]
        off = _objective_and_gradient((np.zeros(d), np.zeros(d), 2.0), 1.0, target, cap)[0]
        assert off > base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        d = 3
        target = mv_student_t(d, nu=2.0)
        cap = sample_uniform_cap(d, 1.2, rng, size=500)
        theta = (np.full(d, 0.1), np.ones(d), 1.5)
        a = _objective_and_gradient(theta, 1.2, target, cap)[0]
        b = _objective_and_gradient(theta, 1.2, target, cap[::-1])[0]
        assert abs(a - b) < 1e-12


class TestKlGradient:
    def test_matches_fd_random_configs(self):
        rng = np.random.default_rng(3)
        for trial in range(12):
            d = int(rng.integers(1, 11))
            kind = trial % 3
            if kind == 0:
                target = mv_student_t(d, nu=1.0, loc=rng.standard_normal(d))
            elif kind == 1:
                target = mv_student_t(d, nu=3.0, scale=1.7)
            else:
                target = skew_t(xi=rng.standard_normal(d),
                                alpha_skew=rng.standard_normal(d) * 3.0,
                                nu=2.0)
            ell_o = rng.uniform(1.0, 1.5)
            r_max = math.sqrt(1.0 - (ell_o - 1.0) ** 2) * 0.5
            h_o = rng.standard_normal(d)
            h_o *= rng.uniform(0.0, r_max) / np.linalg.norm(h_o)
            theta = (h_o, rng.standard_normal(d), rng.uniform(0.5, 2.5))
            cap = sample_uniform_cap(d, ell_o, rng, size=256)
            ga = flat_grad(_objective_and_gradient(theta, ell_o, target, cap)[1])
            gf = flat_grad(fd_tuner_gradient(theta, ell_o, target, cap))
            assert np.linalg.norm(ga - gf) <= 1e-5 * max(1.0, np.linalg.norm(gf))

    def test_infinite_gradient_raises_typed(self):
        class InfiniteGradient(TargetModel):
            dim = 2

            def log_density(self, y):
                return mv_student_t(2, nu=1.0).log_density(y)

            def grad_log_density(self, y):
                return np.full(np.shape(y), np.inf)

        cap = sample_uniform_cap(2, 1.1, np.random.default_rng(0), size=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonfiniteGradient):
                _objective_and_gradient((np.zeros(2), np.zeros(2), 1.0), 1.1,
                                        InfiniteGradient(), cap)

    def test_mu_gradient_structure(self):
        # the Jacobian does not depend on mu, so the mu gradient is just
        # the negative batch mean of the target score at the pushforward
        rng = np.random.default_rng(4)
        d = 4
        target = skew_t(xi=np.zeros(d), alpha_skew=np.ones(d), nu=2.0)
        cap = sample_uniform_cap(d, 1.1, rng, size=300)
        theta = (np.full(d, 0.05), np.full(d, 0.3), 1.2)
        g_mu = _objective_and_gradient(theta, 1.1, target, cap)[1][1]
        p = make_params(d, h_o=theta[0], ell_o=1.1, mu=theta[1], R=theta[2])
        y = cap_forward(cap, p)[0]
        assert np.allclose(g_mu, -np.mean(target.grad_log_density(y), axis=0),
                           atol=1e-12)

    def test_gradient_small_at_matched_optimum(self):
        # per-sample scores do not vanish at the optimum, so the batch
        # gradient is only zero in expectation: check the statistical scale
        rng = np.random.default_rng(5)
        d = 5
        n = 2000
        target = mv_student_t(d, nu=1.0)
        cap = sample_uniform_cap(d, 1.0, rng, size=n)
        g = flat_grad(_objective_and_gradient((np.zeros(d), np.zeros(d), 1.0), 1.0,
                                              target, cap)[1])
        assert np.linalg.norm(g) <= 5.0 * (d + 1) / math.sqrt(n)


def textbook_gradient(theta_bar, ell_o, target, cap_samples):
    """The closed-form gradient as per-sample terms averaged by np.mean."""
    h_o, mu, R = theta_bar
    p = make_params(cap_samples.shape[-1] - 1, h_o=h_o, ell_o=ell_o, mu=mu, R=R)
    y, log_jac, tt, bracket = cap_forward(cap_samples, p)
    hx, lx = cap_samples[:, :-1], cap_samples[:, -1] + 1.0
    logp, glp = target.log_density_and_grad(y)
    if not np.all(np.isfinite(glp)):
        raise NonfiniteGradient("target gradient is not finite on the batch")
    yhat = (y - p.mu) / p.R
    g_mu = -np.mean(glp, axis=0)
    g_R = -p.d / p.R - float(np.mean(np.sum(glp * yhat, axis=1)))
    g_ho = (np.mean(hx / bracket[:, None], axis=0)
            + p.R * np.mean((lx / tt)[:, None] * glp, axis=0))
    return float(np.mean(-log_jac - logp)), (g_ho, g_mu, g_R)


class TestAnalyticGradientSums:
    """The gradient's sums and products equal the np.mean forms to round-off."""

    # each target sits near mu, so at |mu| = 1e6 the terms <g, y> and
    # <g, mu> of an expanded sum cancel to ~1e-6 of their size
    TARGETS = {
        "cauchy": lambda mu, rng: mv_student_t(mu.size, nu=1.0, loc=mu),
        "skewt": lambda mu, rng: skew_t(xi=mu + rng.standard_normal(mu.size),
                                        alpha_skew=rng.standard_normal(mu.size) * 5.0,
                                        nu=1.0),
    }

    @pytest.mark.parametrize("kind", TARGETS)
    @pytest.mark.parametrize("mu_size, R", [(1.0, 1.3), (1e6, 0.5)])
    def test_matches_np_mean_forms(self, kind, mu_size, R):
        rng = np.random.default_rng(7)
        for d in (1, 10, 100):
            h_o = rng.standard_normal(d)
            h_o *= 0.3 / np.linalg.norm(h_o)
            mu = rng.standard_normal(d)
            mu *= mu_size / np.linalg.norm(mu)
            target = self.TARGETS[kind](mu, rng)
            cap = sample_uniform_cap(d, 1.1, rng, size=1000)
            obj, grad = tuning._objective_and_gradient((h_o, mu, R), 1.1, target, cap)
            want_obj, want = textbook_gradient((h_o, mu, R), 1.1, target, cap)
            assert abs(obj - want_obj) <= 1e-12 * abs(want_obj)
            for got, ref in zip(grad, want):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_tune_stops_where_the_np_mean_forms_stop(self, monkeypatch):
        d = 10
        alpha = np.zeros(d)
        alpha[0], alpha[1] = 100.0, -100.0
        target = skew_t(xi=np.zeros(d), alpha_skew=alpha, nu=1.0)
        opts = TuneOptions(mc_batch=200, steps=400, seed=8)
        rep = tune(target, 1.1, opts)
        monkeypatch.setattr(tuning, "_objective_and_gradient", textbook_gradient)
        ref = tune(target, 1.1, opts)
        assert rep.converged and ref.converged
        assert rep.objective_trace.size == ref.objective_trace.size
        for got, want in zip(rep.theta_bar, ref.theta_bar):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


class TestProjectParams:
    def test_interior_point_unchanged(self):
        h_o, mu, R = project_params((np.array([0.1, 0.0]), np.zeros(2), 1.0), 1.5)
        assert np.array_equal(h_o, [0.1, 0.0])

    def test_boundary_rescaled(self):
        h_o, _, _ = project_params((np.array([1.0, 0.0]), np.zeros(2), 1.0), 1.5)
        expected = math.sqrt(1.0 - 0.25 - 2.0 * INTERIOR_MARGIN)
        assert abs(np.linalg.norm(h_o) - expected) < 1e-12
        assert abs(np.linalg.norm(h_o) - math.sqrt(0.75)) < 1e-8
        assert h_o[1] == 0.0

    def test_projected_point_validates(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            ell_o = rng.uniform(1.0, 1.9)
            raw = rng.standard_normal(d) * 3.0
            h_o, mu, R = project_params((raw, np.zeros(d), 1.0), ell_o)
            ProjectionParams(h_o=h_o, ell_o=ell_o, mu=mu, R=R, d=d)


    def test_stereographic_latitude_pins_h_o_at_zero(self):
        h_o, _, _ = project_params((np.array([0.3, -0.1]), np.zeros(2), 1.0), 2.0)
        assert np.array_equal(h_o, [0.0, 0.0])
        rep = tune(mv_student_t(3, nu=1), 2.0, TuneOptions(mc_batch=50, steps=2))
        assert np.array_equal(rep.theta_bar[0], np.zeros(3))

    def test_no_admissible_longitude_raises(self):
        for ell_o in (0.5, 2.0 - 1e-12, 2.5):
            with pytest.raises(ObserverOutsideBall):
                project_params((np.zeros(2), np.zeros(2), 1.0), ell_o)


class TestAlignmentMetrics:
    def test_antiparallel(self):
        alpha = np.array([2.0, -1.0])
        cos, _ = alignment_metrics((-alpha, np.zeros(2), 1.0), alpha,
                                   np.ones(2))
        assert abs(cos + 1.0) < 1e-12

    def test_matched_location(self):
        xi = np.array([1.0, 2.0])
        _, rel = alignment_metrics((np.ones(2), xi, 1.0), np.ones(2), xi)
        assert rel == 0.0

    def test_orthogonal_and_zero(self):
        cos, _ = alignment_metrics((np.array([1.0, 0.0]), np.zeros(2), 1.0),
                                   np.array([0.0, 3.0]), np.ones(2))
        assert cos == 0.0
        cos, _ = alignment_metrics((np.zeros(2), np.zeros(2), 1.0),
                                   np.array([1.0, 0.0]), np.ones(2))
        assert cos == 0.0


    def test_zero_location_reference(self):
        mu = np.array([3.0, -4.0, 0.0, 0.0])
        _, rel = alignment_metrics((np.ones(4), mu, 1.0), np.ones(4), np.zeros(4))
        assert abs(rel - 2.5) < 1e-15
        with pytest.raises(ValueError):
            alignment_metrics((np.ones(4), mu, 1.0), np.zeros(4), np.ones(4))


class TestTune:
    def test_cauchy_recovery(self):
        d = 5
        target = mv_student_t(d, nu=1.0)
        opts = TuneOptions(mc_batch=2000, steps=2000, learning_rate=0.01,
                           seed=1, init=(np.full(d, 0.3), np.ones(d), 2.0))
        rep = tune(target, 1.0, opts)
        h_o, mu, R = rep.theta_bar
        assert np.linalg.norm(h_o) <= 0.05
        assert np.linalg.norm(mu) <= 0.05
        assert abs(R - 1.0) <= 0.1

    def test_objective_trace_descends(self):
        # what tune guarantees: each window pair checked before the stop
        # dropped by more than STOP_Z standard errors of the difference,
        # the pair that stopped the run did not, and the run descended
        d = 4
        target = mv_student_t(d, nu=1.0)
        opts = TuneOptions(mc_batch=500, steps=600, learning_rate=0.01,
                           seed=2, init=(np.zeros(d), np.full(d, 2.0), 3.0))
        rep = tune(target, 1.1, opts)
        assert rep.converged
        # a run stopped by the rule has a whole number of windows
        windows = rep.objective_trace.reshape(-1, STOP_WINDOW)
        assert windows.shape[0] >= 4
        for k, (prev, last) in enumerate(zip(windows[:-1], windows[1:])):
            drop = float(prev.mean() - last.mean())
            se = math.sqrt((prev.var(ddof=1) + last.var(ddof=1)) / STOP_WINDOW)
            assert (drop > STOP_Z * se) == (k < len(windows) - 2)
        assert windows[-1].mean() < windows[0].mean()

    def test_every_iterate_feasible(self):
        d = 3
        target = skew_t(xi=np.zeros(d), alpha_skew=np.full(d, 5.0), nu=1.0)
        opts = TuneOptions(mc_batch=200, steps=300, learning_rate=0.05, seed=3)
        rep = tune(target, 1.4, opts)
        h_o, mu, R = rep.theta_bar
        ProjectionParams(h_o=h_o, ell_o=1.4, mu=mu, R=R, d=d)
        assert R > 0

    def test_seed_determinism(self):
        d = 2
        target = mv_student_t(d, nu=1.0)
        opts = TuneOptions(mc_batch=100, steps=50, seed=11)
        a = tune(target, 1.1, opts)
        b = tune(target, 1.1, opts)
        assert np.array_equal(a.objective_trace, b.objective_trace)
        assert np.array_equal(a.theta_bar[0], b.theta_bar[0])
        assert np.array_equal(a.theta_bar[1], b.theta_bar[1])
        assert a.theta_bar[2] == b.theta_bar[2]

    def test_batches_are_consecutive_bright_rows(self, monkeypatch):
        # step k's batch is bright rows k n to k n + n - 1 of the tuner's
        # stream, the rows one step draws past its batch opening the next:
        # the first is sample_uniform_cap's batch at the seed, and all of
        # them together are one draw of steps * n points
        d, n, steps = 3, 100, 6
        seen = []
        real = tuning._objective_and_gradient

        def recording(theta_bar, ell_o, target, cap):
            seen.append(cap.copy())
            return real(theta_bar, ell_o, target, cap)

        monkeypatch.setattr(tuning, "_objective_and_gradient", recording)
        tune(mv_student_t(d, nu=1.0), 1.1, TuneOptions(mc_batch=n, steps=steps, seed=7))
        assert len(seen) == steps
        first = sample_uniform_cap(d, 1.1, np.random.default_rng(7), size=n)
        assert seen[0].tobytes() == first.tobytes()
        whole = sample_uniform_cap(d, 1.1, np.random.default_rng(7), size=steps * n)
        assert np.concatenate(seen).tobytes() == whole.tobytes()

    def test_alignment_traces_present(self):
        d = 3
        alpha = np.array([4.0, -4.0, 0.0])
        xi = np.array([1.0, 2.0, -1.0])
        target = skew_t(xi=xi, alpha_skew=alpha, nu=2.0)
        opts = TuneOptions(mc_batch=100, steps=40, seed=4)
        rep = tune(target, 1.1, opts, alignment_ref=(alpha, xi))
        assert rep.alignment is not None
        assert rep.alignment["cosine_trace"].shape == (40,)
        assert rep.alignment["final_cosine"] == rep.alignment["cosine_trace"][-1]

    def test_reports_rescales_and_final_margin(self):
        d = 3
        target = skew_t(xi=np.zeros(d), alpha_skew=np.full(d, 5.0), nu=1.0)
        opts = TuneOptions(mc_batch=200, steps=300, learning_rate=0.05, seed=3)
        rep = tune(target, 1.4, opts)
        h_o = rep.theta_bar[0]
        assert 0 < rep.h_o_rescaled <= 300
        assert rep.final_margin == 1.0 - float(h_o @ h_o) - (1.4 - 1.0) ** 2
        assert rep.final_margin >= INTERIOR_MARGIN
        interior = tune(mv_student_t(4, nu=1.0), 1.1,
                        TuneOptions(mc_batch=100, steps=50, seed=3))
        assert interior.h_o_rescaled == 0

    def test_gradient_free_target_raises_before_drawing(self, monkeypatch):
        real, drawn = tuning._bright_rows, []

        def recording(*args):
            drawn.append(args)
            return real(*args)

        monkeypatch.setattr(tuning, "_bright_rows", recording)
        target = GradFreeWrapper(mv_student_t(3, nu=1.0))
        with pytest.raises(ValueError, match="gradient"):
            tune(target, 1.1, TuneOptions(mc_batch=50, steps=2))
        assert drawn == []

    def test_nan_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            TuneOptions(learning_rate=math.nan)

    @pytest.mark.parametrize("field, value", [
        ("mc_batch", 2.5), ("mc_batch", True), ("mc_batch", 0), ("mc_batch", "100"),
        ("steps", 2.5), ("steps", True), ("steps", 0),
        ("learning_rate", math.inf), ("learning_rate", 0.0), ("learning_rate", -0.1),
        ("seed", 2.5), ("seed", True), ("seed", -1),
    ])
    def test_bad_sizes_and_rates_rejected_when_built(self, field, value):
        # fractional and bool sizes once built fine and then failed in
        # numpy (mc_batch=True tuned with batches of 1), and an infinite
        # rate warned before raising NonfiniteInput from the tuner
        with pytest.raises(ValueError, match=field):
            TuneOptions(**{field: value})

    def test_numpy_integer_sizes_accepted(self):
        # numpy integer sizes and seed tune as their ints
        target = mv_student_t(2, nu=1.0)
        opts = TuneOptions(mc_batch=np.int64(50), steps=np.int32(3), seed=np.int64(5))
        got = tune(target, 1.1, opts)
        want = tune(target, 1.1, TuneOptions(mc_batch=50, steps=3, seed=5))
        assert got.objective_trace.size == 3
        assert np.array_equal(got.objective_trace, want.objective_trace)
        for a, b in zip(got.theta_bar, want.theta_bar):
            assert np.array_equal(a, b)

    def test_nonfinite_gradient_steps_hold_parameters(self):
        alpha, xi = np.array([1.0, -1.0, 0.5]), np.zeros(3)
        init = (np.full(3, 0.1), np.ones(3), 2.0)
        ref = (alpha, xi)
        held = tune(FlakyGradient(), 1.1,
                    TuneOptions(mc_batch=50, steps=3, seed=7, init=init), ref)
        assert np.all(np.isnan(held.grad_norm_trace))
        assert np.all(np.isnan(held.objective_trace))
        for got, want in zip(held.theta_bar, init):
            assert np.array_equal(got, want)
            assert not np.shares_memory(got, want)
        rep = tune(FlakyGradient(), 1.1,
                   TuneOptions(mc_batch=50, steps=6, seed=7, init=init), ref)
        assert np.all(np.isnan(rep.grad_norm_trace[:3]))
        assert np.all(np.isfinite(rep.grad_norm_trace[3:]))
        cos0, rel0 = alignment_metrics(init, alpha, xi)
        assert np.all(rep.alignment["cosine_trace"][:3] == cos0)
        assert np.all(rep.alignment["mu_rel_trace"][:3] == rel0)
        assert rep.alignment["mu_rel_trace"][3] != rel0

    def test_first_applied_update_is_not_underscaled(self):
        # Adam's first applied update moves each coordinate by about the
        # learning rate, however many non-finite steps were skipped first
        init = (np.full(3, 0.1), np.ones(3), 2.0)
        lr = 0.01
        for target, steps in ((mv_student_t(3, nu=1.0), 1), (FlakyGradient(), 4)):
            rep = tune(target, 1.1, TuneOptions(mc_batch=50, steps=steps, seed=7,
                                                learning_rate=lr, init=init))
            assert np.all(np.isfinite(rep.grad_norm_trace[-1:]))
            moved = np.abs(rep.theta_bar[1] - init[1])
            np.testing.assert_allclose(moved, lr, rtol=1e-6)

    def test_nonfinite_objective_aborts(self):
        class Broken(TargetModel):
            dim = 2

            def log_density(self, y):
                y = np.asarray(y)
                return np.full(y.shape[:-1], np.nan)

            def grad_log_density(self, y):
                y = np.asarray(y)
                return np.full_like(y, np.nan)

        opts = TuneOptions(mc_batch=20, steps=50, seed=5)
        with pytest.raises(TuningFailed):
            tune(Broken(), 1.1, opts)


class TestStoppingRule:
    def test_rule_on_given_traces(self):
        w = STOP_WINDOW
        falling = -np.arange(2.0 * w)
        assert _objective_flat(np.full(2 * w, 3.0))
        assert _objective_flat(-falling)
        assert not _objective_flat(falling)
        for i in (0, w - 1, w, 2 * w - 1):  # a non-finite value in either window
            flat = np.full(2 * w, 3.0)
            flat[i] = math.nan
            assert not _objective_flat(flat)
        # only the last two windows are read
        earlier_nan = np.concatenate([[math.nan], np.full(2 * w, 3.0)])
        assert _objective_flat(earlier_nan)

    def test_flat_objective_stops_early(self):
        rep = tune(mv_student_t(3, nu=1.0), 1.1,
                   TuneOptions(mc_batch=100, steps=600, seed=5))
        n = rep.objective_trace.size
        assert rep.converged
        assert 2 * STOP_WINDOW <= n < 600 and n % STOP_WINDOW == 0
        assert rep.grad_norm_trace.size == n

    def test_short_or_falling_run_uses_every_step(self):
        d = 4
        short = tune(mv_student_t(3, nu=1.0), 1.1,
                     TuneOptions(mc_batch=100, steps=2 * STOP_WINDOW - 1, seed=5))
        falling = tune(mv_student_t(d, nu=1.0), 1.1,
                       TuneOptions(mc_batch=500, steps=150, seed=2,
                                   init=(np.zeros(d), np.full(d, 2.0), 3.0)))
        for rep, steps in ((short, 2 * STOP_WINDOW - 1), (falling, 150)):
            assert not rep.converged
            assert rep.objective_trace.size == rep.grad_norm_trace.size == steps

    def test_nonfinite_window_does_not_stop(self):
        # the first three objective values are NaN, so the check at step
        # 2 * STOP_WINDOW cannot stop the run; the one after it may
        rep = tune(FlakyGradient(), 1.1,
                   TuneOptions(mc_batch=100, steps=300, seed=7,
                               init=(np.full(3, 0.1), np.ones(3), 2.0)))
        assert np.all(np.isnan(rep.objective_trace[:3]))
        assert rep.converged
        assert rep.objective_trace.size > 2 * STOP_WINDOW

    def test_stopped_run_is_prefix_of_full_run(self, monkeypatch):
        d = 3
        alpha, xi = np.array([4.0, -4.0, 0.0]), np.array([1.0, 2.0, -1.0])
        target = skew_t(xi=xi, alpha_skew=alpha, nu=2.0)
        opts = TuneOptions(mc_batch=100, steps=300, seed=4)
        stopped = tune(target, 1.1, opts, alignment_ref=(alpha, xi))
        k = stopped.objective_trace.size
        assert stopped.converged and k < opts.steps
        monkeypatch.setattr(tuning, "STOP_WINDOW", opts.steps + 1)  # never checks
        full = tune(target, 1.1, opts, alignment_ref=(alpha, xi))
        assert not full.converged and full.objective_trace.size == opts.steps
        for got, want in ((stopped.objective_trace, full.objective_trace),
                          (stopped.grad_norm_trace, full.grad_norm_trace),
                          (stopped.alignment["cosine_trace"],
                           full.alignment["cosine_trace"]),
                          (stopped.alignment["mu_rel_trace"],
                           full.alignment["mu_rel_trace"])):
            assert got.shape == (k,)
            assert np.array_equal(got, want[:k])
        assert stopped.alignment["final_cosine"] == full.alignment["cosine_trace"][k - 1]
        at_k = tune(target, 1.1, TuneOptions(mc_batch=100, steps=k, seed=4))
        for got, want in zip(stopped.theta_bar, at_k.theta_bar):
            assert np.array_equal(got, want)
        assert stopped.h_o_rescaled == at_k.h_o_rescaled
        assert stopped.final_margin == at_k.final_margin
