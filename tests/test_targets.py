import math
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

from brightside.errors import DomainError
from brightside.geometry import make_params
from brightside.kernels import KernelConfig, hmc_step, run_chains
from brightside.targets import (
    MultivariateStudentT,
    RegressionData,
    SkewT,
    SkewTParams,
    TargetModel,
    binary_regression_posterior,
    generate_separable_data,
    load_regression_csv,
    mv_student_t,
    save_regression_csv,
    skew_t,
    skew_t_exact_sample,
    skew_t_log_density,
    standardize_columns,
    student_t_cdf,
    student_t_log_cdf,
    student_t_log_pdf,
    sub_cauchy_probe,
    uniform_cap_pullback,
)
from brightside.tuning import TuneOptions, tune


def fd_gradient(f, y, eps=1e-6):
    y = np.asarray(y, dtype=float)
    g = np.zeros_like(y)
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = eps * (1.0 + abs(y[j]))
        g[j] = (f(y + e) - f(y - e)) / (2.0 * e[j])
    return g


def assert_grad_matches_fd(target, ys, rtol=1e-5):
    for y in ys:
        got = target.grad_log_density(y)
        ref = fd_gradient(target.log_density, y)
        assert np.linalg.norm(got - ref) <= rtol * max(1.0, np.linalg.norm(ref))


class TestStudentTCdf:
    def test_symmetry_at_zero(self):
        for nu in (1.0, 2.0, 3.5, 10.0):
            assert student_t_cdf(0.0, nu) == 0.5

    def test_cauchy_closed_form(self):
        assert abs(student_t_cdf(1.0, 1.0) - 0.75) < 1e-15
        ts = np.linspace(-30, 30, 101)
        got = student_t_cdf(ts, 1.0)
        assert np.allclose(got, 0.5 + np.arctan(ts) / math.pi, atol=1e-15)

    def test_nu2_against_quadrature(self):
        def pdf(t):
            return float(np.exp(student_t_log_pdf(t, 2.0)))

        val, err = integrate.quad(pdf, -np.inf, math.sqrt(2.0))
        assert err < 1e-7
        assert abs(student_t_cdf(math.sqrt(2.0), 2.0) - val) < max(1e-10, 2 * err)
        # algebraic closed form
        assert abs(student_t_cdf(math.sqrt(2.0), 2.0)
                   - 0.5 * (1.0 + math.sqrt(2.0) / 2.0)) < 1e-15

    def test_reflection_and_monotone(self):
        rng = np.random.default_rng(0)
        for nu in (1.0, 2.0, 4.0, 6.0, 11.5):
            t = np.sort(rng.standard_cauchy(200))
            F = student_t_cdf(t, nu)
            assert np.all(np.diff(F) >= 0.0)
            assert np.allclose(F + student_t_cdf(-t, nu), 1.0, atol=1e-13)

    def test_against_mpmath(self):
        import mpmath

        for nu in (2.0, 3.0, 4.0, 7.5):
            for t in (-8.0, -1.3, 0.4, 2.0, 25.0):
                x = nu / (nu + t * t)
                ref = 0.5 * mpmath.betainc(nu / 2, 0.5, 0, x, regularized=True)
                ref = float(1 - ref if t > 0 else ref)
                assert abs(student_t_cdf(t, nu) - ref) < 1e-13

    def test_log_cdf_deep_tail(self):
        import mpmath

        for nu in (1.0, 2.0, 4.0):
            for t in (-1e8, -1e4, -50.0, -2.0, 0.5, 3.0):
                x = nu / (nu + t * t)
                ref = 0.5 * mpmath.betainc(nu / 2, 0.5, 0, x, regularized=True)
                ref = float(mpmath.log(1 - ref if t > 0 else ref))
                got = student_t_log_cdf(t, nu)
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_log_cdf_upper_tail(self):
        # log F(t) ~ -(1 - F(t)) for large t: 40-digit reference, on the
        # single-point and the array paths; log F(-inf) = -inf without
        # a warning
        import mpmath

        ts = (30.0, 1e5, 1e8)
        with mpmath.workdps(40):
            for nu in (1.0, 2.0, 3.0):
                refs = []
                for t in ts:
                    x = mpmath.mpf(nu) / (nu + mpmath.mpf(t) ** 2)
                    upper = mpmath.betainc(nu / 2, 0.5, 0, x, regularized=True) / 2
                    refs.append(float(mpmath.log1p(-upper)))
                batch = student_t_log_cdf(np.array(ts), nu)
                for t, ref, got in zip(ts, refs, batch):
                    assert abs(student_t_log_cdf(t, nu) - ref) <= 1e-12 * abs(ref)
                    assert abs(got - ref) <= 1e-12 * abs(ref)
                # t = -inf is exact and silent on both paths
                assert student_t_log_cdf(-math.inf, nu) == -math.inf
                assert student_t_log_cdf(np.array([-math.inf]), nu)[0] == -math.inf
                assert student_t_log_cdf(np.array(ts + (-math.inf,)), nu)[-1] == -math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_cdf(0.0, -1.0)
        # NaN degrees of freedom fail the same check
        for f in (student_t_cdf, student_t_log_cdf, student_t_log_pdf):
            for nu in (0.0, -1.0, math.nan):
                with pytest.raises(DomainError):
                    f(0.5, nu)
        for f in (student_t_cdf, student_t_log_cdf):
            with pytest.raises(DomainError):
                f(math.nan, 3.0)
            with pytest.raises(DomainError):
                f(np.array([0.5, math.nan]), 3.0)

    def test_scalar_matches_array(self):
        rng = np.random.default_rng(32)
        ts = np.concatenate([[1e8, -1e8, -50.0, 50.0, 0.0, -0.0],
                             rng.standard_cauchy(200) * 5.0])
        for nu in (3.0, 11.0, 101.0):
            for f in (student_t_cdf, student_t_log_cdf):
                batch = f(ts, nu)
                single = np.array([f(float(t), nu) for t in ts])
                assert isinstance(f(float(ts[0]), nu), float)
                scale = np.where(batch == 0.0, 1.0, np.abs(batch))
                assert np.all(np.abs(single - batch) <= 1e-14 * scale)


class TestMultivariateStudentT:
    def test_rejects_bad_parameters(self):
        for kwargs in ({"nu": 0.0}, {"nu": math.nan}, {"nu": 1.0, "scale": 0.0},
                       {"nu": 1.0, "scale": math.nan}):
            with pytest.raises(DomainError):
                mv_student_t(3, **kwargs)

    def test_peak_and_unit_values(self):
        t = mv_student_t(1, nu=1.0)
        assert float(t.log_density(np.zeros(1))) == 0.0
        assert abs(float(t.log_density(np.ones(1))) + math.log(2.0)) < 1e-15

    def test_gradient_zero_at_center(self):
        t = mv_student_t(4, nu=2.0, loc=1.5, scale=2.0)
        g = t.grad_log_density(np.full(4, 1.5))
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        for d, nu, scale in ((1, 1.0, 1.0), (3, 2.0, 0.7), (6, 5.0, 2.0)):
            t = mv_student_t(d, nu=nu, loc=rng.standard_normal(d), scale=scale)
            ys = rng.standard_normal((20, d)) * 10.0
            assert_grad_matches_fd(t, ys)

    def test_exact_sampler_marginal_ks(self):
        # marginals of the isotropic multivariate t are univariate t_nu
        rng = np.random.default_rng(2)
        t = mv_student_t(3, nu=1.0)
        draws = t.exact_sample(rng, size=50_000)
        x = np.sort(draws[:, 1])
        n = x.size
        F = student_t_cdf(x, 1.0)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - F), np.max(F - (grid - 1.0 / n)))
        assert ks < 1.63 / math.sqrt(n)

    def test_batch_matches_single(self):
        t = mv_student_t(3, nu=2.0, loc=0.5)
        ys = np.random.default_rng(3).standard_normal((7, 3))
        batch = t.log_density(ys)
        singles = [float(t.log_density(y)) for y in ys]
        assert np.allclose(batch, singles, atol=1e-14)


class TestSkewT:
    def test_rejects_bad_degrees_of_freedom(self):
        for nu in (0.0, -2.0, math.nan):
            with pytest.raises(DomainError):
                SkewTParams(xi=np.zeros(2), alpha_skew=np.ones(2), nu=nu)

    def test_zero_skew_is_constant_shift(self):
        rng = np.random.default_rng(4)
        d = 4
        xi = rng.standard_normal(d)
        st = skew_t(xi=xi, alpha_skew=np.zeros(d), nu=2.0)
        base = mv_student_t(d, nu=2.0, loc=xi)
        ys = rng.standard_normal((50, d)) * 5.0
        diff = st.log_density(ys) - base.log_density(ys)
        assert np.allclose(diff, math.log(0.5), atol=1e-10)

    def test_skew_direction_monotone(self):
        st = skew_t(xi=np.zeros(3), alpha_skew=np.array([2.0, 0.0, 0.0]), nu=1.0)
        for t in (0.5, 1.0, 4.0):
            plus = float(st.log_density(np.array([t, 0.0, 0.0])))
            minus = float(st.log_density(np.array([-t, 0.0, 0.0])))
            assert plus > minus

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        for d, nu in ((1, 1.0), (3, 2.0), (10, 2.0)):
            st = skew_t(
                xi=rng.standard_normal(d),
                alpha_skew=rng.standard_normal(d) * 3.0,
                nu=nu,
            )
            ys = rng.standard_normal((30, d)) * 4.0
            assert_grad_matches_fd(st, ys)

    def test_single_point_matches_batch_row(self):
        rng = np.random.default_rng(33)
        for d in (10, 100):
            alpha = np.zeros(d)
            alpha[0], alpha[1] = 100.0, -100.0
            st = skew_t(xi=np.zeros(d), alpha_skew=alpha, nu=1.0)
            # the first row is the kernels' ``ones`` start, where alpha'z = 0
            ys = np.vstack([np.ones(d), rng.standard_cauchy((40, d))])
            dens = st.log_density(ys)
            grads = st.grad_log_density(ys)
            for y, dens_row, grad_row in zip(ys, dens, grads):
                assert abs(st.log_density(y) - dens_row) <= 1e-13 * abs(dens_row)
                g = st.grad_log_density(y)
                assert np.linalg.norm(g - grad_row) <= 1e-13 * np.linalg.norm(grad_row)

    def test_gradient_matches_fd_strong_skew(self):
        rng = np.random.default_rng(6)
        d = 5
        alpha = np.zeros(d)
        alpha[0], alpha[1] = 100.0, -100.0
        st = skew_t(xi=np.zeros(d), alpha_skew=alpha, nu=2.0)
        ys = rng.standard_normal((20, d)) * 2.0
        assert_grad_matches_fd(st, ys, rtol=3e-5)

    def test_exact_sampler_zero_skew_marginals(self):
        rng = np.random.default_rng(7)
        params = SkewTParams(xi=np.zeros(2), alpha_skew=np.zeros(2), nu=3.0)
        draws = skew_t_exact_sample(params, rng, size=50_000)
        x = np.sort(draws[:, 0])
        n = x.size
        F = student_t_cdf(x, 3.0)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - F), np.max(F - (grid - 1.0 / n)))
        assert ks < 1.63 / math.sqrt(n)

    def test_strong_skew_sign_probability(self):
        rng = np.random.default_rng(8)
        params = SkewTParams(xi=np.full(3, 2.0),
                             alpha_skew=np.array([100.0, 0.0, 0.0]), nu=2.0)
        draws = skew_t_exact_sample(params, rng, size=100_000)
        assert np.mean(draws[:, 0] - 2.0 > 0.0) >= 0.95

    def test_large_nu_kurtosis_gaussian(self):
        rng = np.random.default_rng(9)
        params = SkewTParams(xi=np.zeros(2), alpha_skew=np.zeros(2), nu=1000.0)
        draws = skew_t_exact_sample(params, rng, size=100_000)
        x = draws[:, 0]
        kurt = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
        assert abs(kurt - 3.0) <= 3.0 * math.sqrt(24.0 / x.size) + 6.0 / (1000.0 - 4.0)

    def test_seed_determinism(self):
        params = SkewTParams(xi=np.zeros(3), alpha_skew=np.ones(3), nu=2.0)
        a = skew_t_exact_sample(params, np.random.default_rng(11), size=100)
        b = skew_t_exact_sample(params, np.random.default_rng(11), size=100)
        assert np.array_equal(a, b)

    def test_density_consistent_with_sampler_ks(self):
        # 1-d check of the density formula against the stochastic
        # representation: quadrature CDF of the density vs exact draws.
        params = SkewTParams(xi=np.array([0.5]), alpha_skew=np.array([3.0]),
                             nu=2.0)
        theta = np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 40_001)
        c = 5.0
        ygrid = c * np.tan(theta)
        dens = np.exp(skew_t_log_density(ygrid[:, None], params))
        w = dens * c / np.cos(theta) ** 2
        cdf = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) / 2.0
                                               * np.diff(theta))])
        cdf /= cdf[-1]
        rng = np.random.default_rng(12)
        draws = np.sort(skew_t_exact_sample(params, rng, size=20_000)[:, 0])
        F = np.interp(np.arctan(draws / c), theta, cdf)
        n = draws.size
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - F), np.max(F - (grid - 1.0 / n)))
        assert ks < 1.63 / math.sqrt(n)


class TestBinaryRegression:
    def make_data(self, link="logit", n=30, d=5, seed=13, **kw):
        rng = np.random.default_rng(seed)
        return generate_separable_data(n, d, rng, link=link, **kw)

    def test_zero_beta_likelihood(self):
        for link in ("logit", "robit"):
            data = self.make_data(link=link)
            post = binary_regression_posterior(data)
            # prior term vanishes at beta = 0, leaving -n log 2
            assert abs(float(post.log_density(np.zeros(5)))
                       + data.n * math.log(2.0)) < 1e-12

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(14)
        for link in ("logit", "robit"):
            post = binary_regression_posterior(self.make_data(link=link))
            betas = rng.standard_normal((30, 5)) * 3.0
            assert_grad_matches_fd(post, betas)

    def test_log_density_finite_far_out(self):
        for link in ("logit", "robit"):
            post = binary_regression_posterior(self.make_data(link=link))
            for scale in (1e2, 1e4, 1e6):
                v = post.log_density(np.full(5, scale))
                assert np.isfinite(v)

    def test_separation_persists_after_standardization(self):
        data = self.make_data()
        x1 = data.X[:, 0]
        assert np.max(x1[data.y == 0.0]) < np.min(x1[data.y == 1.0])

    def test_standardization_exact(self):
        data = self.make_data(n=50, d=4)
        assert np.all(np.abs(data.X.mean(axis=0)) <= 1e-12)
        assert np.all(np.abs(data.X.std(axis=0) - 0.5) <= 1e-12)

    def test_generator_determinism(self):
        a = generate_separable_data(20, 3, np.random.default_rng(15))
        b = generate_separable_data(20, 3, np.random.default_rng(15))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_csv_round_trip(self, tmp_path):
        data = self.make_data(link="robit", link_nu=4.0, prior_nu=6.0)
        path = tmp_path / "data.csv"
        save_regression_csv(data, path)
        back = load_regression_csv(path, link="robit", link_nu=4.0, prior_nu=6.0)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)
        assert back.link == "robit" and back.link_nu == 4.0

    def test_rejects_nonbinary_response(self):
        with pytest.raises(ValueError):
            RegressionData(X=np.ones((3, 2)), y=np.array([0.0, 2.0, 1.0]))

    def test_standardize_rejects_constant_column(self):
        with pytest.raises(ValueError):
            standardize_columns(np.ones((5, 2)))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class ComposedSkewT(SkewT):
    """Skew t whose fused call is the base class's two separate calls."""

    log_density_and_grad = TargetModel.log_density_and_grad


class CountingTarget(TargetModel):
    """Forwards every call to ``inner`` and counts it by method name."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = Counter()

    def log_density(self, y):
        self.calls["log_density"] += 1
        return self.inner.log_density(y)

    def grad_log_density(self, y):
        self.calls["grad_log_density"] += 1
        return self.inner.grad_log_density(y)

    def log_density_and_grad(self, y):
        self.calls["log_density_and_grad"] += 1
        return self.inner.log_density_and_grad(y)


def _paper_skew_t(d):
    alpha = np.zeros(d)
    alpha[0], alpha[1] = 100.0, -100.0
    return skew_t(xi=np.zeros(d), alpha_skew=alpha, nu=2.0)


class TestLogDensityAndGrad:
    @staticmethod
    def assert_fused_matches(target, y):
        value, grad = target.log_density_and_grad(y)
        assert _bits(value) == _bits(target.log_density(y))
        assert _bits(grad) == _bits(target.grad_log_density(y))
        assert np.shape(value) == np.shape(target.log_density(y))

    @pytest.mark.parametrize("d", [10, 100])
    def test_skew_t_bit_identical(self, d):
        xi = np.linspace(-1.0, 1.0, d)
        xi[1] = xi[0]
        target = skew_t(xi=xi, alpha_skew=_paper_skew_t(d).params.alpha_skew,
                        nu=2.0)
        rng = np.random.default_rng(40)
        ys = target.params.xi + 3.0 * rng.standard_cauchy((1000, d))
        # alpha . z = 0 on these rows: z = 0 and z orthogonal to alpha
        ys[0] = target.params.xi
        ys[1, :2] = target.params.xi[:2] + 7.0
        assert (ys[1] - target.params.xi) @ target.params.alpha_skew == 0.0
        # one point and 10 points loop the plain-float incomplete beta,
        # 1000 points take its array path
        for y in (ys[0], ys[1], ys[2], ys[:10], ys):
            self.assert_fused_matches(target, y)

    @pytest.mark.parametrize("link", ["logit", "robit"])
    def test_regression_bit_identical(self, link):
        rng = np.random.default_rng(41)
        target = binary_regression_posterior(
            generate_separable_data(30, 5, rng, link=link))
        betas = 2.0 * rng.standard_cauchy((1000, 5))
        betas[0] = 0.0
        for beta in (betas[0], betas[1], betas[:10], betas):
            self.assert_fused_matches(target, beta)

    def test_default_composes_the_two_calls(self):
        target = CountingTarget(mv_student_t(3, nu=2.0))
        value, grad = TargetModel.log_density_and_grad(target, np.ones(3))
        assert target.calls == Counter(log_density=1, grad_log_density=1)
        assert value == target.inner.log_density(np.ones(3))

    def test_tune_default_matches_override(self):
        opts = TuneOptions(mc_batch=1000, steps=20, seed=5)
        fused = tune(_paper_skew_t(10), 1.1, opts)
        composed = tune(ComposedSkewT(_paper_skew_t(10).params), 1.1, opts)
        for a, b in zip(fused.theta_bar, composed.theta_bar):
            assert _bits(a) == _bits(b)
        assert _bits(fused.objective_trace) == _bits(composed.objective_trace)
        assert _bits(fused.grad_norm_trace) == _bits(composed.grad_norm_trace)

    def test_hmc_ensemble_default_matches_override(self):
        cfg = KernelConfig("hmc", h=0.1, leapfrog_steps=10, target_accept=0.8)
        runs = [run_chains(cfg, None, target, np.zeros(10), 120, burnin=60,
                           seed=9, n_chains=10)
                for target in (_paper_skew_t(10),
                               ComposedSkewT(_paper_skew_t(10).params))]
        for fused, composed in zip(*runs):
            assert _bits(fused.samples) == _bits(composed.samples)
            assert (_bits(fused.step_size_trace)
                    == _bits(composed.step_size_trace))

    def test_tune_step_makes_one_fused_call(self):
        target = CountingTarget(_paper_skew_t(10))
        tune(target, 1.1, TuneOptions(mc_batch=50, steps=1, seed=0))
        assert target.calls == Counter(log_density_and_grad=1)
        tune(target, 1.1, TuneOptions(mc_batch=50, steps=3, seed=0))
        assert target.calls == Counter(log_density_and_grad=4)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_hmc_transition_call_counts(self, steps):
        target = CountingTarget(_paper_skew_t(10))
        for y, eps, rng in ((np.zeros(10), 0.1, np.random.default_rng(1)),
                            (np.zeros((3, 10)), np.full(3, 0.1),
                             [np.random.default_rng(s) for s in range(3)])):
            logp, g = target.inner.log_density_and_grad(y)
            target.calls.clear()
            hmc_step(y, logp, g, eps, steps, target, rng)
            expected = Counter(grad_log_density=steps - 1,
                               log_density_and_grad=1)
            assert target.calls == +expected


class TestSubCauchyProbe:
    def test_cauchy_passes(self):
        assert sub_cauchy_probe(mv_student_t(3, nu=1.0))

    def test_student_t_heavier_and_lighter(self):
        assert sub_cauchy_probe(mv_student_t(2, nu=2.0))
        assert sub_cauchy_probe(mv_student_t(2, nu=30.0))
        assert not sub_cauchy_probe(mv_student_t(2, nu=0.5))

    def test_skew_cauchy_passes(self):
        st = skew_t(xi=np.zeros(3), alpha_skew=np.array([5.0, -5.0, 0.0]), nu=1.0)
        assert sub_cauchy_probe(st)

    def test_regression_posterior_probe_runs(self):
        # the flag depends on whether the standardized data admits a
        # bounded-likelihood cone with a sparse direction, so only its
        # type and determinism are asserted here
        data = generate_separable_data(30, 5, np.random.default_rng(16))
        post = binary_regression_posterior(data)
        flag = sub_cauchy_probe(post)
        assert isinstance(flag, (bool, np.bool_))
        assert flag == sub_cauchy_probe(post, seed=0)

    def test_probe_deterministic(self):
        t = mv_student_t(2, nu=1.0)
        assert sub_cauchy_probe(t, seed=5) == sub_cauchy_probe(t, seed=5)


class TestUniformCapPullback:
    def test_density_is_negative_log_jacobian(self):
        from brightside.geometry import log_jacobian

        p = make_params(3, ell_o=1.3, mu=np.array([1.0, 0.0, -1.0]), R=2.0)
        target = uniform_cap_pullback(p)
        ys = np.random.default_rng(17).standard_normal((5, 3)) * 4
        assert np.allclose(target.log_density(ys), -log_jacobian(ys, p))
