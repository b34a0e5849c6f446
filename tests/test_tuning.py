import math

import numpy as np
import pytest

from brightside.errors import ObserverOutsideBall, TuningFailed
from brightside.geometry import (
    INTERIOR_MARGIN,
    ProjectionParams,
    cap_forward,
    make_params,
    sample_uniform_cap,
    validate_params,
)
from brightside.targets import TargetModel, mv_student_t, skew_t
from brightside.tuning import (
    TuneOptions,
    alignment_metrics,
    kl_gradient,
    kl_integrand,
    kl_objective,
    project_params,
    tune,
    _fd_gradient,
)


def flat_grad(g):
    g_ho, g_mu, g_R = g
    return np.concatenate([np.atleast_1d(g_ho), np.atleast_1d(g_mu), [g_R]])


class GradFreeWrapper(TargetModel):
    """Hides the gradient of a target to force the FD fallback."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def log_density(self, y):
        return self.inner.log_density(y)


class TestKlObjective:
    def test_matched_cauchy_integrand_is_zero(self):
        rng = np.random.default_rng(0)
        d = 5
        target = mv_student_t(d, nu=1.0)
        cap = sample_uniform_cap(d, 1.0, rng, size=4000)
        vals = kl_integrand((np.zeros(d), np.zeros(d), 1.0), 1.0, target, cap)
        assert np.std(vals) <= 1e-8
        assert abs(kl_objective((np.zeros(d), np.zeros(d), 1.0), 1.0,
                                target, cap)) <= 1e-8

    def test_mismatched_scale_increases_objective(self):
        rng = np.random.default_rng(1)
        d = 4
        target = mv_student_t(d, nu=1.0)
        cap = sample_uniform_cap(d, 1.0, rng, size=3000)
        base = kl_objective((np.zeros(d), np.zeros(d), 1.0), 1.0, target, cap)
        off = kl_objective((np.zeros(d), np.zeros(d), 2.0), 1.0, target, cap)
        assert off > base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        d = 3
        target = mv_student_t(d, nu=2.0)
        cap = sample_uniform_cap(d, 1.2, rng, size=500)
        theta = (np.full(d, 0.1), np.ones(d), 1.5)
        a = kl_objective(theta, 1.2, target, cap)
        b = kl_objective(theta, 1.2, target, cap[::-1])
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
            ga = flat_grad(kl_gradient(theta, ell_o, target, cap))
            gf = flat_grad(_fd_gradient(theta, ell_o, target, cap)[1])
            assert np.linalg.norm(ga - gf) <= 1e-5 * max(1.0, np.linalg.norm(gf))

    def test_mu_gradient_structure(self):
        # the Jacobian does not depend on mu, so the mu gradient is just
        # the negative batch mean of the target score at the pushforward
        rng = np.random.default_rng(4)
        d = 4
        target = skew_t(xi=np.zeros(d), alpha_skew=np.ones(d), nu=2.0)
        cap = sample_uniform_cap(d, 1.1, rng, size=300)
        theta = (np.full(d, 0.05), np.full(d, 0.3), 1.2)
        g_mu = kl_gradient(theta, 1.1, target, cap)[1]
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
        g = flat_grad(kl_gradient((np.zeros(d), np.zeros(d), 1.0), 1.0,
                                  target, cap))
        assert np.linalg.norm(g) <= 5.0 * (d + 1) / math.sqrt(n)

    def test_fd_fallback_matches_analytic(self):
        rng = np.random.default_rng(6)
        d = 3
        inner = mv_student_t(d, nu=2.0, loc=np.array([1.0, -1.0, 0.5]))
        wrapped = GradFreeWrapper(inner)
        assert not wrapped.has_gradient
        cap = sample_uniform_cap(d, 1.1, rng, size=200)
        theta = (np.full(d, 0.1), np.zeros(d), 1.3)
        ga = flat_grad(kl_gradient(theta, 1.1, inner, cap))
        gf = flat_grad(kl_gradient(theta, 1.1, wrapped, cap))
        assert np.linalg.norm(ga - gf) <= 1e-5 * max(1.0, np.linalg.norm(ga))


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
            validate_params(ProjectionParams(h_o=h_o, ell_o=ell_o,
                                             mu=mu, R=R, d=d))


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
        d = 4
        target = mv_student_t(d, nu=1.0)
        opts = TuneOptions(mc_batch=500, steps=600, learning_rate=0.01,
                           seed=2, init=(np.zeros(d), np.full(d, 2.0), 3.0))
        rep = tune(target, 1.1, opts)
        window = 100
        means = rep.objective_trace.reshape(-1, window).mean(axis=1)
        stds = rep.objective_trace.reshape(-1, window).std(axis=1)
        ses = stds / math.sqrt(window)
        for k in range(len(means) - 1):
            assert means[k + 1] <= means[k] + ses[k]

    def test_every_iterate_feasible(self):
        d = 3
        target = skew_t(xi=np.zeros(d), alpha_skew=np.full(d, 5.0), nu=1.0)
        opts = TuneOptions(mc_batch=200, steps=300, learning_rate=0.05, seed=3)
        rep = tune(target, 1.4, opts)
        h_o, mu, R = rep.theta_bar
        validate_params(ProjectionParams(h_o=h_o, ell_o=1.4, mu=mu, R=R, d=d))
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
