import math
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

from brightside import special, targets
from brightside.errors import DomainError, EmptyInput
from brightside.geometry import make_params
from brightside.kernels import KernelConfig, hmc_step, run_chains
from brightside.special import student_t_log_cdf
from brightside.targets import (
    RegressionData,
    SkewT,
    TargetModel,
    binary_regression_posterior,
    generate_separable_data,
    load_regression_csv,
    mv_student_t,
    save_regression_csv,
    skew_t,
    standardize_columns,
)
from brightside.tuning import TuneOptions, tune
from oracles import log_jacobian, skew_t_grad_two_term, student_t_cdf, uniform_cap_pullback


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
            # the nu = 2 density in closed form
            return (2.0 + t * t) ** -1.5

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

    def test_large_dof_against_mpmath(self):
        # log B(500, 1/2) lies past Gamma's overflow at a + b = 171, where
        # an lgamma difference cost 1.6e-13 relative; what is left is the
        # continued fraction's own rounding (1.2e-14) and that of
        # x = nu / (nu + t^2), which the 40-digit reference does not share
        import mpmath

        nu, t = 1000.0, -3.0
        with mpmath.workdps(40):
            x = mpmath.mpf(nu) / (nu + mpmath.mpf(t) ** 2)
            ref = 0.5 * mpmath.betainc(nu / 2, 0.5, 0, x, regularized=True)
            assert abs(student_t_cdf(t, nu) - ref) <= 5e-14 * ref

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
        # NaN and infinite degrees of freedom fail the same check
        for f in (student_t_cdf, student_t_log_cdf):
            for nu in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match="degrees of freedom"):
                    f(0.5, nu)
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
                assert np.array_equal(single, batch)


class TestMultivariateStudentT:
    def test_rejects_bad_parameters(self):
        for kwargs in ({"nu": 0.0}, {"nu": math.nan}, {"nu": math.inf},
                       {"nu": 1.0, "scale": 0.0}, {"nu": 1.0, "scale": math.nan},
                       {"nu": 1.0, "scale": math.inf}, {"nu": 1.0, "loc": math.nan},
                       {"nu": 1.0, "loc": [0.0, math.inf, 0.0]}):
            with pytest.raises(DomainError):
                mv_student_t(3, **kwargs)
        for d in (0, -1):
            with pytest.raises(DomainError, match="dimension"):
                mv_student_t(d, nu=1.0)
        for d in (2.7, True, "3"):  # 2.7 once built a d = 2 target
            with pytest.raises(ValueError, match="d must be an integer"):
                mv_student_t(d, nu=1.0)
        assert type(mv_student_t(np.int64(3), nu=1.0).dim) is int
        with pytest.raises(DomainError, match="loc"):
            mv_student_t(3, 1.0, loc=np.zeros((1, 3)))

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

    @pytest.mark.parametrize("loc, scale", [
        pytest.param(0.0, 1.0, id="identity"),
        pytest.param(np.linspace(-1.0, 1.0, 10), 1.5, id="shifted-scaled")])
    def test_values_match_textbook_formula_bitwise(self, loc, scale):
        # the identity target skips (y - loc) / scale; every target still
        # returns the formula's bits
        d, nu = 10, 1.0
        t = mv_student_t(d, nu=nu, loc=loc, scale=scale)
        ys = 3.0 * np.random.default_rng(4).standard_cauchy((100, d))
        ys[0] = -0.0
        for y in (ys[0], ys[1], ys):
            z = (y - t.loc) / t.scale
            q = np.vecdot(z, z)
            value = -(nu + d) / 2.0 * np.log1p(q / nu)
            grad = (-(nu + d) / (scale * (nu + q)))[..., None] * z
            fused = t.log_density_and_grad(y)
            assert _bits(t.log_density(y)) == _bits(fused[0]) == _bits(value)
            assert _bits(t.grad_log_density(y)) == _bits(fused[1]) == _bits(grad)

    def test_loc_is_read_only(self):
        t = mv_student_t(3, nu=1.0)
        with pytest.raises(ValueError):
            t.loc[0] = 1.0

    def test_batch_matches_single(self):
        # a single point's squared radius and gradient coefficient are
        # plain floats, a batch's come from np.vecdot: the same bits
        rng = np.random.default_rng(3)
        for d in (3, 100):
            ys = 3.0 * rng.standard_cauchy((7, d))
            for t in (mv_student_t(d, nu=2.0),
                      mv_student_t(d, nu=2.0, loc=np.linspace(-1.0, 2.0, d), scale=1.5)):
                value, grad = t.log_density_and_grad(ys)
                assert np.array_equal(t.log_density(ys), value)
                assert np.array_equal(t.grad_log_density(ys), grad)
                for y, value_row, grad_row in zip(ys, value, grad):
                    assert _bits(t.log_density(y)) == _bits(value_row)
                    assert _bits(t.grad_log_density(y)) == _bits(grad_row)
                    fused = t.log_density_and_grad(y)
                    assert _bits(fused[0]) == _bits(value_row)
                    assert _bits(fused[1]) == _bits(grad_row)


class TestSkewT:
    def test_rejects_bad_degrees_of_freedom(self):
        for nu in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="degrees of freedom"):
                skew_t(xi=np.zeros(2), alpha_skew=np.ones(2), nu=nu)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError, match="dimension"):
            skew_t(xi=np.zeros(0), alpha_skew=np.zeros(0), nu=1.0)
        with pytest.raises(ValueError, match="share a shape"):
            skew_t(xi=np.zeros(3), alpha_skew=np.ones(2), nu=1.0)
        # a 2-d location is rejected, not read as a dim-1 target
        with pytest.raises(ValueError):
            skew_t(xi=np.zeros((1, 2)), alpha_skew=np.ones((1, 2)), nu=1.0)
        with pytest.raises(DomainError, match="loc"):
            skew_t(xi=np.zeros((2, 2)), alpha_skew=np.ones((2, 2)), nu=1.0)

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(DomainError, match="alpha_skew"):
            skew_t(xi=np.zeros(2), alpha_skew=[1.0, math.nan], nu=1.0)
        with pytest.raises(DomainError, match="loc"):
            skew_t(xi=[0.0, math.nan], alpha_skew=np.ones(2), nu=1.0)

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
        # every row of a batch has the bits of its point alone, whatever
        # the batch size: up to 32 rows loop the t log-CDF, more take its
        # array path, and a'z must not be a matrix-vector product, whose
        # rows can differ in the last bit from batch size to batch size
        rng = np.random.default_rng(33)
        for d in (10, 100):
            st = skew_t(xi=rng.standard_normal(d), alpha_skew=3.0 * rng.standard_normal(d),
                        nu=2.0)
            # the first row is the kernels' ``ones`` start
            ys = np.vstack([np.ones(d), st.loc + 3.0 * rng.standard_cauchy((198, d))])
            alone = [(_bits(st.log_density(y)), _bits(st.grad_log_density(y)),
                      *map(_bits, st.log_density_and_grad(y))) for y in ys]
            for n in (*range(1, 60), 100, 150, 199):
                batch = ys[:n]
                rows = zip(st.log_density(batch), st.grad_log_density(batch),
                           *st.log_density_and_grad(batch))
                assert [tuple(map(_bits, row)) for row in rows] == alone[:n]

    @pytest.mark.parametrize("d", [10, 100])
    def test_gradient_matches_two_term_sum(self, d):
        # points at skewing arguments s from -1e3, where r s is within
        # 1e-4 of -m and the z coefficient cancels, to +1e3; the one-pass
        # sum and the two-term sum round differently, so they agree to
        # 4 ulps of the largest of the three terms (1.9 seen)
        rng = np.random.default_rng(d)
        alpha = np.zeros(d)
        alpha[0], alpha[1] = 1000.0, -1000.0
        st = skew_t(xi=rng.standard_normal(d), alpha_skew=alpha, nu=1.0)
        u = alpha / np.linalg.norm(alpha)
        side = np.logspace(-3.0, 3.0, 20)
        s_wanted = np.concatenate([-side[::-1], [0.0], side])
        w = 3.0 * rng.standard_cauchy((s_wanted.size, d))
        w -= (w @ u)[:, None] * u
        # c u + w has s = c |a| g; solve for c
        a2m = alpha @ alpha * st._m
        c = s_wanted * np.sqrt((st.nu + np.vecdot(w, w)) / (a2m - s_wanted**2))
        ys = st.loc + c[:, None] * u + w
        s = st._skewing(ys)[4]
        assert s[0] < -999.0 and s[-1] > 999.0
        # 41 rows vectorize the t log-CDF; 10 rows and single points loop it
        for y in (ys, ys[:10], *ys):
            expected, largest = skew_t_grad_two_term(st, y)
            err = np.abs(st.grad_log_density(y) - expected)
            assert np.all(err <= 4.0 * np.finfo(float).eps * largest)

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
        target = skew_t(xi=np.zeros(2), alpha_skew=np.zeros(2), nu=3.0)
        draws = target.exact_sample(rng, size=50_000)
        x = np.sort(draws[:, 0])
        n = x.size
        F = student_t_cdf(x, 3.0)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - F), np.max(F - (grid - 1.0 / n)))
        assert ks < 1.63 / math.sqrt(n)

    def test_strong_skew_sign_probability(self):
        rng = np.random.default_rng(8)
        target = skew_t(xi=np.full(3, 2.0),
                        alpha_skew=np.array([100.0, 0.0, 0.0]), nu=2.0)
        draws = target.exact_sample(rng, size=100_000)
        assert np.mean(draws[:, 0] - 2.0 > 0.0) >= 0.95

    def test_large_nu_kurtosis_gaussian(self):
        rng = np.random.default_rng(9)
        target = skew_t(xi=np.zeros(2), alpha_skew=np.zeros(2), nu=1000.0)
        draws = target.exact_sample(rng, size=100_000)
        x = draws[:, 0]
        kurt = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
        assert abs(kurt - 3.0) <= 3.0 * math.sqrt(24.0 / x.size) + 6.0 / (1000.0 - 4.0)

    def test_seed_determinism(self):
        target = skew_t(xi=np.zeros(3), alpha_skew=np.ones(3), nu=2.0)
        a = target.exact_sample(np.random.default_rng(11), size=100)
        b = target.exact_sample(np.random.default_rng(11), size=100)
        assert np.array_equal(a, b)

    def test_density_consistent_with_sampler_ks(self):
        # 1-d check of the density formula against the stochastic
        # representation: quadrature CDF of the density vs exact draws.
        target = skew_t(xi=np.array([0.5]), alpha_skew=np.array([3.0]), nu=2.0)
        theta = np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 40_001)
        c = 5.0
        ygrid = c * np.tan(theta)
        dens = np.exp(target.log_density(ygrid[:, None]))
        w = dens * c / np.cos(theta) ** 2
        cdf = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) / 2.0
                                               * np.diff(theta))])
        cdf /= cdf[-1]
        rng = np.random.default_rng(12)
        draws = np.sort(target.exact_sample(rng, size=20_000)[:, 0])
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

    @pytest.mark.parametrize("link_nu", [1.0, 2.0, 3.0])
    def test_robit_gradient_matches_fd(self, link_nu):
        # the pdf/CDF ratio of the two closed forms and of the incomplete
        # beta, on single points and on a batch
        rng = np.random.default_rng(16)
        post = binary_regression_posterior(self.make_data(link="robit", link_nu=link_nu))
        betas = rng.standard_normal((20, 5)) * 3.0
        assert_grad_matches_fd(post, betas)
        for beta, grad in zip(betas, post.grad_log_density(betas)):
            assert np.array_equal(grad, post.grad_log_density(beta))

    def test_log_density_finite_far_out(self):
        for link in ("logit", "robit"):
            post = binary_regression_posterior(self.make_data(link=link))
            for scale in (1e2, 1e4, 1e6):
                v = post.log_density(np.full(5, scale))
                assert np.isfinite(v)

    @pytest.mark.parametrize("link", ["logit", "robit"])
    def test_single_point_matches_batch_row(self, link):
        # u and the gradient's sum over observations are np.vecdot rows,
        # where a matrix product's rows differ in the last bit from batch
        # size to batch size; robit at link_nu 3 runs the incomplete beta
        rng = np.random.default_rng(34)
        post = binary_regression_posterior(self.make_data(link=link, link_nu=3.0))
        betas = 2.0 * rng.standard_cauchy((33, 5))
        alone = [(_bits(post.log_density(b)), _bits(post.grad_log_density(b)),
                  *map(_bits, post.log_density_and_grad(b))) for b in betas]
        for n in (1, 2, 5, 16, 33):
            batch = betas[:n]
            rows = zip(post.log_density(batch), post.grad_log_density(batch),
                       *post.log_density_and_grad(batch))
            assert [tuple(map(_bits, row)) for row in rows] == alone[:n]

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

    def test_csv_without_data_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        for text, message in (("", "empty"), ("x_1,x_2,y\n", "no data rows")):
            path.write_text(text)
            with pytest.raises(EmptyInput, match=message):
                load_regression_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("x_1,x_2,y\n0.1,0.2,0.5,1\n", 2),            # a cell more than the header
        ("x_1,x_2,y\n0.1,0.2,1\n0.1,1\n", 3),        # a cell fewer
        ("x_1,x_2,y\n0.1,0.2,1\n0.1,x,1\n", 3),      # a cell that is no number
    ], ids=["long", "short", "text"])
    def test_csv_bad_row(self, tmp_path, text, line):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"regression CSV .* line {line}: "):
            load_regression_csv(path)

    def test_rejects_nonbinary_response(self):
        with pytest.raises(ValueError):
            RegressionData(X=np.ones((3, 2)), y=np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("bad", [
        {"prior_nu": 0.0}, {"prior_scale": 0.0}, {"prior_nu": math.nan},
        {"prior_scale": -1.0}, {"link": "robit", "link_nu": math.nan},
        {"X": np.array([[1.0], [math.nan]])},
    ])
    def test_rejects_bad_prior_or_link(self, bad):
        with pytest.raises(DomainError):
            RegressionData(**{"X": np.ones((2, 1)), "y": np.array([0.0, 1.0]), **bad})

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


def _paper_skew_t(d, cls=SkewT):
    alpha = np.zeros(d)
    alpha[0], alpha[1] = 100.0, -100.0
    return cls(xi=np.zeros(d), alpha_skew=alpha, nu=2.0)


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
        target = skew_t(xi=xi, alpha_skew=_paper_skew_t(d).alpha_skew,
                        nu=2.0)
        rng = np.random.default_rng(40)
        ys = target.loc + 3.0 * rng.standard_cauchy((1000, d))
        # alpha . z = 0 on these rows: z = 0 and z orthogonal to alpha
        ys[0] = target.loc
        ys[1, :2] = target.loc[:2] + 7.0
        assert (ys[1] - target.loc) @ target.alpha_skew == 0.0
        # one point and 10 points loop the plain-float incomplete beta,
        # 1000 points take its array path
        for y in (ys[0], ys[1], ys[2], ys[:10], ys):
            self.assert_fused_matches(target, y)

    @pytest.mark.parametrize("d", [10, 100])
    def test_student_t_bit_identical(self, d):
        target = mv_student_t(d, nu=1.0, loc=np.linspace(-1.0, 1.0, d), scale=1.5)
        ys = target.loc + 3.0 * np.random.default_rng(42).standard_cauchy((1000, d))
        ys[0] = target.loc
        for y in (ys[0], ys[1], ys[:10], ys):
            self.assert_fused_matches(target, y)

    # link_nu = 3 runs the incomplete beta; 1 and 2 are closed forms
    @pytest.mark.parametrize("link, link_nu", [
        pytest.param("logit", 2.0, id="logit"), pytest.param("robit", 2.0, id="robit"),
        pytest.param("robit", 3.0, id="robit-nu3")])
    def test_regression_bit_identical(self, link, link_nu):
        rng = np.random.default_rng(41)
        target = binary_regression_posterior(
            generate_separable_data(30, 5, rng, link=link, link_nu=link_nu))
        betas = 2.0 * rng.standard_cauchy((1000, 5))
        betas[0] = 0.0
        for beta in (betas[0], betas[1], betas[:10], betas):
            self.assert_fused_matches(target, beta)

    @pytest.mark.parametrize("link", ["logit", "robit"])
    def test_regression_fused_call_evaluates_the_link_once(self, link,
                                                           monkeypatch):
        target = binary_regression_posterior(generate_separable_data(
            30, 5, np.random.default_rng(43), link=link, link_nu=3.0))
        calls = Counter()
        link_terms = target._log_lik_terms
        # the robit link's value and pdf/CDF ratio come from one evaluation
        t_log_cdf = targets._t_log_cdf_ratio

        def counted_link_terms(u):
            calls["link"] += 1
            return link_terms(u)

        def counted_t_log_cdf(t, nu):
            calls["t_log_cdf"] += 1
            return t_log_cdf(t, nu)

        monkeypatch.setattr(target, "_log_lik_terms", counted_link_terms)
        monkeypatch.setattr(targets, "_t_log_cdf_ratio", counted_t_log_cdf)
        for beta in (np.ones(5), np.ones((10, 5))):
            calls.clear()
            target.log_density_and_grad(beta)
            assert calls == Counter(link=1, t_log_cdf=link == "robit")
            calls.clear()
            target.grad_log_density(beta)
            # the logit gradient needs no link value
            assert calls == Counter(link=link == "robit",
                                    t_log_cdf=link == "robit")

    def test_default_composes_the_two_calls(self):
        target = CountingTarget(mv_student_t(3, nu=2.0))
        value, grad = TargetModel.log_density_and_grad(target, np.ones(3))
        assert target.calls == Counter(log_density=1, grad_log_density=1)
        assert value == target.inner.log_density(np.ones(3))

    def test_tune_default_matches_override(self):
        opts = TuneOptions(mc_batch=1000, steps=20, seed=5)
        fused = tune(_paper_skew_t(10), 1.1, opts)
        composed = tune(_paper_skew_t(10, ComposedSkewT), 1.1, opts)
        for a, b in zip(fused.theta_bar, composed.theta_bar):
            assert _bits(a) == _bits(b)
        assert _bits(fused.objective_trace) == _bits(composed.objective_trace)
        assert _bits(fused.grad_norm_trace) == _bits(composed.grad_norm_trace)

    def test_hmc_ensemble_default_matches_override(self):
        cfg = KernelConfig("hmc", h=0.1, leapfrog_steps=10, target_accept=0.8)
        runs = [run_chains(cfg, None, target, np.zeros(10), 120, burnin=60,
                           seed=9, n_chains=10)
                for target in (_paper_skew_t(10),
                               _paper_skew_t(10, ComposedSkewT))]
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
        rng = np.random.default_rng(1)
        for y, eps, u in ((np.zeros(10), 0.1, rng.random()),
                          (np.zeros((3, 10)), np.full(3, 0.1), rng.random(3))):
            logp, g = target.inner.log_density_and_grad(y)
            target.calls.clear()
            hmc_step(y, logp, g, eps, steps, target, rng.standard_normal(y.shape), u)
            expected = Counter(grad_log_density=steps - 1,
                               log_density_and_grad=1)
            assert target.calls == +expected


class TestSmallBatchLogCdf:
    """Batches of up to ``_BETA_SMALL_BATCH`` t log-CDF arguments run the
    0-d path once per point, so every row has the bits of its point alone;
    one point more takes the vectorized series side."""

    SIZES = range(1, special._BETA_SMALL_BATCH + 2)
    # the skew t at d = 10 and 100, nu = 1 and 2, with the paper's skewness
    SKEW = [pytest.param(d, nu, id=f"d{d}-nu{nu:g}") for d in (10, 100)
            for nu in (1.0, 2.0)]

    @staticmethod
    def cycled(rows, n):
        # n rows, starting at a different row for each n
        return rows[(np.arange(n) + n) % len(rows)]

    @staticmethod
    def skew_rows(target):
        """Rows whose skewing arguments cover a'z = 0, both deep tails,
        both swap groups and both sides of each group's series edge."""
        d = target.dim
        rng = np.random.default_rng(60)
        # the coordinates along alpha are dyadic and the rest meet its
        # zeros, so a'z is exact and each argument lands where it is put
        coefs = 2.0 ** np.array([-14, -12, -10, -8, -6, -5, -4, -3, -1, 0, 4, 20])
        rows = []
        for c in np.concatenate([[0.0], coefs, -coefs]):
            z = rng.standard_normal(d)
            z[0], z[1] = c, -c
            rows.append(z)
        z = rng.standard_normal(d)
        z[0] = z[1] = 0.75  # a'z = 0 away from z = 0
        rows += [z, np.zeros(d)]
        return target.loc + np.array(rows)

    @staticmethod
    def assert_covers(args, m):
        # every branch of the per-point evaluation appears among args
        pair = special._beta_pair(m / 2.0, 0.5)
        x = m / (m + args * args)
        swap = x > pair.threshold
        xs = np.where(swap, 1.0 - x, x)
        series = xs <= np.where(swap, pair.reflected.edge, pair.terms.edge)
        for group in (swap & series, swap & ~series, ~swap & series, ~swap & ~series):
            assert group.any()
        assert (args == 0.0).any()
        lo = np.min(args)
        assert student_t_log_cdf(lo, m) < -40.0
        assert student_t_log_cdf(-lo, m) > -1e-17

    def assert_rows_match(self, args, m):
        for n in self.SIZES:
            batch = self.cycled(args, n)
            alone = [student_t_log_cdf(float(t), m) for t in batch]
            assert _bits(student_t_log_cdf(batch, m)) == _bits(alone)
            assert _bits(student_t_log_cdf(batch.reshape(n, 1), m)) == _bits(alone)
            # and the pdf/CDF ratio that comes with it
            alone = [special._t_log_cdf_ratio(np.float64(t), m) for t in batch]
            assert _bits(np.transpose(special._t_log_cdf_ratio(batch, m))) == _bits(alone)

    @pytest.mark.parametrize("d, nu", SKEW)
    def test_skew_t_rows_match_points_alone(self, d, nu):
        target = skew_t(xi=np.linspace(-1.0, 1.0, d),
                        alpha_skew=_paper_skew_t(d).alpha_skew, nu=nu)
        rows = self.skew_rows(target)
        self.assert_covers(target._skewing(rows)[4], target._m)
        # up to one row past the small-batch loop, and a 1 000-row batch
        for n in (*self.SIZES, 1000):
            ys = self.cycled(rows, n)
            value, grad = target.log_density_and_grad(ys)
            values, grads = target.log_density(ys), target.grad_log_density(ys)
            for i, y in enumerate(ys):
                v, g = target.log_density_and_grad(y)
                assert _bits(value[i]) == _bits(values[i]) == _bits(v)
                assert _bits(grad[i]) == _bits(grads[i]) == _bits(g)

    @pytest.mark.parametrize("d, nu", SKEW)
    def test_skew_t_arguments_match_points_alone(self, d, nu):
        # the arguments of general skew-t rows and of the rows above
        target = skew_t(xi=np.zeros(d), alpha_skew=_paper_skew_t(d).alpha_skew,
                        nu=nu)
        ys = 3.0 * np.random.default_rng(61).standard_cauchy((40, d))
        args = np.concatenate([target._skewing(ys)[4],
                               target._skewing(self.skew_rows(target))[4]])
        self.assert_covers(args, target._m)
        self.assert_rows_match(args, target._m)

    def test_robit_arguments_match_points_alone(self):
        rng = np.random.default_rng(62)
        target = binary_regression_posterior(
            generate_separable_data(30, 5, rng, link="robit", link_nu=3.0))
        betas = np.concatenate([2.0 * rng.standard_cauchy((4, 5)),
                                [np.zeros(5), np.full(5, 1e8), np.full(5, 0.3)]])
        args = target._log_lik_terms(betas @ target.data.X.T)[1].ravel()
        self.assert_covers(args, 3.0)
        self.assert_rows_match(args, 3.0)
        beta = np.ones(5)
        beta[2] = math.nan
        for f in (target.log_density, target.grad_log_density):
            with pytest.raises(DomainError):
                f(beta)

    @pytest.mark.parametrize("d, nu", SKEW)
    def test_nan_raises_domain_error(self, d, nu):
        target = skew_t(xi=np.zeros(d), alpha_skew=_paper_skew_t(d).alpha_skew,
                        nu=nu)
        with pytest.raises(DomainError):
            student_t_log_cdf(math.nan, target._m)
        for n in self.SIZES:
            ts = np.linspace(-5.0, 5.0, n)
            ts[n // 2] = math.nan
            with pytest.raises(DomainError):
                student_t_log_cdf(ts, target._m)
            ys = np.ones((n, d))
            ys[-1, 3] = math.nan
            for f in (target.log_density, target.grad_log_density,
                      target.log_density_and_grad):
                with pytest.raises(DomainError):
                    f(ys)
                with pytest.raises(DomainError):
                    f(ys[-1])


class TestLogCdfRatio:
    """log T_nu and the pdf/CDF ratio r = t_nu / T_nu from the one fused
    evaluation, against 40-digit mpmath, on the 0-d path, on a batch of
    more than ``_BETA_SMALL_BATCH`` points and on its small-batch slices."""

    RTOL = 2e-13

    @staticmethod
    def reference(t, nu):
        import mpmath

        with mpmath.workdps(40):
            t, nu = mpmath.mpf(t), mpmath.mpf(nu)
            x = nu / (nu + t * t)
            lower = mpmath.betainc(nu / 2, 0.5, 0, x, regularized=True) / 2
            cdf = 1 - lower if t > 0 else lower
            pdf = x ** ((nu + 1) / 2) / (mpmath.sqrt(nu) * mpmath.beta(nu / 2, 0.5))
            return mpmath.log1p(-lower) if t > 0 else mpmath.log(lower), pdf / cdf

    def assert_matches(self, ts, nu):
        ts = np.asarray(ts, dtype=float)
        assert ts.size > special._BETA_SMALL_BATCH
        batch = special._t_log_cdf_ratio(ts, nu)
        n = special._BETA_SMALL_BATCH
        for i in range(0, ts.size, n):
            small = special._t_log_cdf_ratio(ts[i:i + n], nu)
            assert _bits(small) == _bits((batch[0][i:i + n], batch[1][i:i + n]))
        for i, t in enumerate(ts.tolist()):
            alone = special._t_log_cdf_ratio(np.float64(t), nu)
            assert _bits(alone) == _bits((batch[0][i], batch[1][i]))
            log_cdf, ratio = alone
            # a reference below the double range is compared as rounded
            ref_log, ref_ratio = (float(v) if abs(v) < 2.3e-308 else v
                                  for v in self.reference(t, nu))
            assert abs(log_cdf - ref_log) <= self.RTOL * abs(ref_log)
            assert abs(ratio - ref_ratio) <= self.RTOL * ref_ratio

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 11.0, 101.0])
    def test_against_mpmath(self, nu):
        # both tails from 1e-8 (the reflected pair, where 1 - x would
        # cancel) out to 1e8 (the series), the continued fraction between,
        # t = 0, +-1e200, +-1e300 and +-1.7e308, whose squares overflow,
        # and -1.2e154, whose square is finite but at nu = 2 not
        # s (s + |t|) with s^2 = 2 + t^2
        mags = np.concatenate([np.geomspace(1e-8, 1e8, 33),
                               [0.7, 2.0, 5.0, 15.0, 1e200, 1e300, 1.7e308]])
        self.assert_matches(np.concatenate([[0.0], mags, -mags, [-1.2e154]]), nu)
        for t, log_cdf in ((math.inf, 0.0), (-math.inf, -math.inf)):
            assert special._t_log_cdf_ratio(np.float64(t), nu) == (log_cdf, 0.0)
            got = special._t_log_cdf_ratio(np.array([t, 1.0]), nu)
            assert got[0][0] == log_cdf and got[1][0] == 0.0

    @pytest.mark.parametrize("d, nu", TestSmallBatchLogCdf.SKEW)
    def test_skew_rows_against_mpmath(self, d, nu):
        # every branch the skewing arguments of the small-batch rows reach
        target = skew_t(xi=np.linspace(-1.0, 1.0, d),
                        alpha_skew=_paper_skew_t(d).alpha_skew, nu=nu)
        args = target._skewing(TestSmallBatchLogCdf.skew_rows(target))[4]
        TestSmallBatchLogCdf.assert_covers(args, target._m)
        # with a shifted copy, the batch is past the small-batch loop
        self.assert_matches(np.concatenate([args, args + 0.5]), target._m)


class TestExactSamplersInPlace:
    """The in-place draws equal the textbook out-of-place formulas."""

    @pytest.mark.parametrize("size", [None, 1, 1000])
    def test_student_t(self, size):
        target = mv_student_t(4, nu=2.5, loc=np.array([0.5, -1.0, 0.0, 2.0]),
                              scale=1.5)
        got = target.exact_sample(np.random.default_rng(50), size=size)
        rng = np.random.default_rng(50)
        n = 1 if size is None else size
        g = rng.standard_normal((n, 4))
        v = rng.chisquare(2.5, size=n) / 2.5
        want = target.loc + target.scale * g / np.sqrt(v)[:, None]
        assert _bits(got) == _bits(want[0] if size is None else want)
        assert got.shape == ((4,) if size is None else (size, 4))

    @pytest.mark.parametrize("size", [None, 1, 1000])
    def test_skew_t(self, size):
        # a shifted target and the zero location, whose shift is skipped
        for xi in (np.array([1.0, -2.0, 0.5]), np.zeros(3)):
            target = skew_t(xi=xi, alpha_skew=np.array([3.0, -1.0, 0.0]), nu=3.0)
            draws = np.random.default_rng(51)
            got = target.exact_sample(draws, size=size)
            rng = np.random.default_rng(51)
            n = 1 if size is None else size
            v = rng.chisquare(3.0, size=n) / 3.0
            u = rng.standard_normal((n, 3))
            w = rng.standard_normal(n)
            keep = w <= u @ target.alpha_skew
            if n > 1:  # both signs drawn
                assert keep.any() and not keep.all()
            want = target.loc + np.where(keep[:, None], u, -u) / np.sqrt(v)[:, None]
            assert _bits(got) == _bits(want[0] if size is None else want)
            assert got.shape == ((3,) if size is None else (size, 3))
            assert draws.random() == rng.random()


class TestUniformCapPullback:
    def test_density_is_negative_log_jacobian(self):
        p = make_params(3, ell_o=1.3, mu=np.array([1.0, 0.0, -1.0]), R=2.0)
        target = uniform_cap_pullback(p)
        ys = np.random.default_rng(17).standard_normal((5, 3)) * 4
        assert np.allclose(target.log_density(ys), -log_jacobian(ys, p))
