import math

import numpy as np
import pytest
from scipy import special as sps

from brightside import geometry
from brightside.errors import (
    BoundaryWithoutSymmetry,
    DarkSidePoint,
    DomainError,
    NonpositiveScale,
    ObserverOutsideBall,
)
from brightside.geometry import (
    ProjectionParams,
    cap_forward,
    cap_ratio_bound,
    cap_ratio_exact,
    log_jacobian,
    log_jacobian_at_cap_point,
    log_regularized_incomplete_beta,
    make_params,
    regularized_incomplete_beta,
    sample_uniform_cap,
    scp_forward,
    scp_inverse,
    solve_chord_scale,
    validate_params,
)


def random_params(rng, d, allow_boundary=False):
    """Random interior observer plus shift and scale."""
    ell_o = rng.uniform(1.0, 1.95)
    r_max = math.sqrt(max(1.0 - (ell_o - 1.0) ** 2 - 1e-6, 0.0))
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    h_o = u * rng.uniform(0.0, 0.9 * r_max)
    mu = rng.standard_normal(d) * 2.0
    R = rng.uniform(0.3, 3.0)
    return make_params(d, h_o=h_o, ell_o=ell_o, mu=mu, R=R)


def line_plane_projection(x, p):
    """Independent forward-map oracle: intersect the observer line with the plane.

    Works in origin-centered coordinates: the observer is (h_o, ell_o - 1)
    and the plane is z_{d+1} = -1; rescale by (mu, R) afterwards.
    """
    o = np.concatenate([p.h_o, [p.ell_o - 1.0]])
    direction = x - o
    s = (-1.0 - o[-1]) / direction[-1]
    yhat = (o + s * direction)[:-1]
    return p.R * yhat + p.mu


class TestValidateParams:
    def test_center_observer_ok(self):
        p = ProjectionParams(h_o=np.zeros(2), ell_o=1.0, mu=np.zeros(2), R=1.0)
        assert validate_params(p) is p

    def test_stereographic_boundary_ok(self):
        p = ProjectionParams(h_o=np.zeros(3), ell_o=2.0, mu=np.zeros(3), R=1.0)
        assert validate_params(p) is p

    def test_observer_outside_ball(self):
        p = ProjectionParams(h_o=np.array([0.9, 0.0]), ell_o=1.5,
                             mu=np.zeros(2), R=1.0)
        with pytest.raises(ObserverOutsideBall):
            validate_params(p)

    def test_boundary_without_symmetry(self):
        p = ProjectionParams(h_o=np.array([1e-8, 0.0]), ell_o=2.0,
                             mu=np.zeros(2), R=1.0)
        with pytest.raises(BoundaryWithoutSymmetry):
            validate_params(p)

    def test_nonpositive_scale(self):
        with pytest.raises(NonpositiveScale):
            make_params(2, R=0.0)

    def test_latitude_below_one_rejected(self):
        with pytest.raises(ObserverOutsideBall):
            make_params(2, ell_o=0.8)


class TestForward:
    def test_south_pole_maps_to_mu(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 5):
            p = random_params(rng, d)
            south = np.zeros(d + 1)
            south[-1] = -1.0
            assert np.allclose(scp_forward(south, p), p.mu, atol=1e-12)

    def test_d1_line_plane_oracle(self):
        p = make_params(1, ell_o=1.0)
        z = np.array([math.sqrt(3.0) / 2.0, -0.5])
        y = scp_forward(z, p)
        assert np.allclose(y, [math.sqrt(3.0)], rtol=1e-12)
        assert np.allclose(y, line_plane_projection(z, p), rtol=1e-12)

    def test_matches_line_plane_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            p = random_params(rng, d)
            z = sample_uniform_cap(d, p.ell_o, rng)
            y = scp_forward(z, p)
            oracle = line_plane_projection(z, p)
            assert np.allclose(y, oracle, rtol=1e-9, atol=1e-9)

    def test_dark_side_raises(self):
        p = make_params(2, ell_o=1.5)
        north = np.array([0.0, 0.0, 1.0])
        with pytest.raises(DarkSidePoint):
            scp_forward(north, p)
        boundary = np.array([math.sqrt(1 - 0.25), 0.0, 0.5])
        with pytest.raises(DarkSidePoint):
            scp_forward(boundary, p)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            d = int(rng.integers(1, 8))
            p = random_params(rng, d)
            y = rng.standard_t(df=1, size=d) * 3.0
            back = scp_forward(scp_inverse(y, p), p)
            assert np.linalg.norm(back - y) <= 1e-8 * (1.0 + np.linalg.norm(y))

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 3)
        ys = rng.standard_normal((10, 3)) * 5.0
        zs = scp_inverse(ys, p)
        singles = np.stack([scp_inverse(y, p) for y in ys])
        assert np.allclose(zs, singles, atol=1e-14)
        assert np.allclose(scp_forward(zs, p), ys, rtol=1e-9)


class TestChordScale:
    def test_shifted_origin_gives_unit_scale(self):
        rng = np.random.default_rng(5)
        for d in (1, 3):
            p = random_params(rng, d)
            M = solve_chord_scale(p.mu, p).M
            assert abs(float(M) - 1.0) < 1e-12

    def test_cauchy_closed_form(self):
        p = make_params(1, ell_o=1.0)
        M = solve_chord_scale(np.array([math.sqrt(3.0)]), p).M
        assert abs(float(M) - 0.5) < 1e-14
        rng = np.random.default_rng(6)
        y = rng.standard_normal((50, 4)) * 10
        p4 = make_params(4, ell_o=1.0)
        M = solve_chord_scale(y, p4).M
        expected = 1.0 / np.sqrt(1.0 + np.sum(y * y, axis=1))
        assert np.allclose(M, expected, rtol=1e-12)

    def test_stereographic_closed_form(self):
        p = make_params(1, ell_o=2.0)
        M = solve_chord_scale(np.array([2.0]), p).M
        assert abs(float(M) - 0.5) < 1e-14
        rng = np.random.default_rng(7)
        y = rng.standard_normal((50, 3)) * 8
        p3 = make_params(3, ell_o=2.0)
        M = solve_chord_scale(y, p3).M
        expected = 4.0 / (np.sum(y * y, axis=1) + 4.0)
        assert np.allclose(M, expected, rtol=1e-12)

    def test_quadratic_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            p = random_params(rng, d)
            y = rng.standard_t(df=1, size=d) * 5.0
            sc = solve_chord_scale(y, p)
            ball = float(np.dot(p.h_o, p.h_o)) + (p.ell_o - 1.0) ** 2
            resid = sc.A * sc.M**2 + 2.0 * sc.B * sc.M + ball - 1.0
            assert abs(float(resid)) <= 1e-10 * max(1.0, float(sc.A * sc.M**2))

    def test_interior_constant_term_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_params(rng, 3)
            sc = solve_chord_scale(np.zeros(3), p)
            assert sc.C < 0.0

    def test_monotone_along_rays(self):
        # M peaks at exactly 1 where yhat = 0 (the south-pole image y = mu)
        # and decreases strictly along every ray leaving that point.
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            p = random_params(rng, d)
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            radii = np.linspace(0.0, 50.0, 40)
            ys = p.mu + p.R * radii[:, None] * v
            M = solve_chord_scale(ys, p).M
            assert abs(float(M[0]) - 1.0) < 1e-12
            assert np.all(np.diff(M) < 0.0)


class TestInverse:
    def test_mu_maps_to_south_pole(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 6):
            p = random_params(rng, d)
            z = scp_inverse(p.mu, p)
            south = np.zeros(d + 1)
            south[-1] = -1.0
            assert np.allclose(z, south, atol=1e-12)

    def test_d1_cauchy_example(self):
        p = make_params(1, ell_o=1.0)
        z = scp_inverse(np.array([math.sqrt(3.0)]), p)
        assert np.allclose(z, [math.sqrt(3.0) / 2.0, -0.5], atol=1e-14)

    def test_always_bright_and_unit(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            p = random_params(rng, d)
            y = rng.standard_t(df=1, size=d) * 100.0
            z = scp_inverse(y, p)
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
            assert z[-1] < p.ell_o - 1.0

    def test_latitude_monotone_to_boundary(self):
        rng = np.random.default_rng(13)
        p = random_params(rng, 3)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        radii = np.geomspace(0.1, 1e8, 60)
        ys = p.mu + radii[:, None] * v
        lat = scp_inverse(ys, p)[:, -1]
        assert np.all(np.diff(lat) > 0.0)
        assert np.all(lat < p.ell_o - 1.0)
        assert lat[-1] > p.ell_o - 1.0 - 1e-6


def finite_difference_gram_logjac(y, p, eps=1e-6):
    """Gram-determinant oracle: J_forward = 1/sqrt(det(D^T D)) with D the
    numerical Jacobian of the inverse map."""
    d = p.d
    D = np.zeros((d + 1, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = eps * (1.0 + abs(y[j]))
        D[:, j] = (scp_inverse(y + e, p) - scp_inverse(y - e, p)) / (2.0 * e[j])
    sign, logdet = np.linalg.slogdet(D.T @ D)
    assert sign > 0
    return -0.5 * logdet


class TestLogJacobian:
    def test_cauchy_center_is_zero(self):
        for d in (1, 2, 7):
            p = make_params(d, ell_o=1.0)
            assert abs(float(log_jacobian(np.zeros(d), p))) < 1e-14

    def test_stereographic_d1_example(self):
        p = make_params(1, ell_o=2.0)
        assert abs(float(log_jacobian(np.array([2.0]), p)) - math.log(2.0)) < 1e-14

    def test_cauchy_specialization(self):
        rng = np.random.default_rng(14)
        for d in (1, 5, 50, 100):
            mu = rng.standard_normal(d)
            R = rng.uniform(0.5, 2.0)
            p = make_params(d, ell_o=1.0, mu=mu, R=R)
            y = rng.standard_normal((20, d)) * 10.0
            got = log_jacobian(y, p)
            yhat = (y - mu) / R
            expected = (d + 1) / 2.0 * np.log1p(np.sum(yhat**2, axis=1)) \
                + d * math.log(R)
            assert np.allclose(got, expected, rtol=1e-10)

    def test_stereographic_specialization(self):
        rng = np.random.default_rng(15)
        for d in (1, 5, 50, 100):
            mu = rng.standard_normal(d)
            R = rng.uniform(0.5, 2.0)
            p = make_params(d, ell_o=2.0, mu=mu, R=R)
            y = rng.standard_normal((20, d)) * 10.0
            got = log_jacobian(y, p)
            yhat = (y - mu) / R
            expected = d * np.log((np.sum(yhat**2, axis=1) + 4.0) / 4.0) \
                + d * math.log(R)
            assert np.allclose(got, expected, rtol=1e-10)

    def test_gram_determinant_oracle(self):
        rng = np.random.default_rng(16)
        for d in (1, 2, 3, 5):
            for _ in range(8):
                p = random_params(rng, d)
                y = rng.standard_normal(d) * 3.0
                got = float(log_jacobian(y, p))
                oracle = finite_difference_gram_logjac(y, p)
                assert abs(got - oracle) <= 1e-5 * max(1.0, abs(oracle))


class TestLogJacobianAtCapPoint:
    def test_south_pole_cauchy(self):
        p = make_params(3, ell_o=1.0)
        south = np.array([0.0, 0.0, 0.0, -1.0])
        assert abs(float(log_jacobian_at_cap_point(south, p))) < 1e-14

    def test_d1_cauchy_value(self):
        p = make_params(1, ell_o=1.0)
        z = np.array([math.sqrt(3.0) / 2.0, -0.5])
        assert abs(float(log_jacobian_at_cap_point(z, p)) - math.log(4.0)) < 1e-12

    def test_consistency_with_plane_form(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            d = int(rng.integers(1, 7))
            p = random_params(rng, d)
            z = sample_uniform_cap(d, p.ell_o, rng)
            via_x = float(log_jacobian_at_cap_point(z, p))
            via_y = float(log_jacobian(scp_forward(z, p), p))
            assert abs(via_x - via_y) <= 1e-10 * max(1.0, abs(via_y))

    def test_dark_side_raises(self):
        p = make_params(2, ell_o=1.2)
        north = np.array([0.0, 0.0, 1.0])
        with pytest.raises(DarkSidePoint):
            log_jacobian_at_cap_point(north, p)


class TestCapForward:
    def test_single_point_matches_batch_row(self):
        # the single point takes @ and math.log where the batch takes
        # np.sum and np.log, so log_jac may differ in the last bits
        rng = np.random.default_rng(18)
        for d in (1, 10, 100):
            p = random_params(rng, d)
            xs = sample_uniform_cap(d, p.ell_o, rng, size=60)
            y_b, lj_b, t_b, _ = cap_forward(xs, p)
            for i, x in enumerate(xs):
                y, lj, t, _ = cap_forward(x, p)
                assert isinstance(lj, float)
                assert np.array_equal(y, y_b[i])
                assert t == t_b[i]
                assert abs(lj - lj_b[i]) <= 1e-12 * max(1.0, abs(lj_b[i]))
            y_2, lj_2, _, _ = cap_forward(xs.reshape(3, 20, d + 1), p)
            assert np.array_equal(y_2.reshape(60, d), y_b)
            assert np.array_equal(lj_2.reshape(60), lj_b)

    def test_dark_side_raises_on_both_branches(self):
        p = make_params(2, ell_o=1.2)
        north = np.array([0.0, 0.0, 1.0])
        south = np.array([0.0, 0.0, -1.0])
        with pytest.raises(DarkSidePoint):
            cap_forward(north, p)
        with pytest.raises(DarkSidePoint):
            cap_forward(np.stack([south, north]), p)


class TestUniformCap:
    def test_outputs_bright_and_unit(self):
        rng = np.random.default_rng(18)
        for ell_o in (1.0, 1.5, 2.0):
            z = sample_uniform_cap(3, ell_o, rng, size=500)
            assert z.shape == (500, 4)
            assert np.all(np.abs(np.linalg.norm(z, axis=1) - 1.0) <= 1e-12)
            assert np.all(z[:, 3] < ell_o - 1.0)

    def test_single_draw_shape(self):
        rng = np.random.default_rng(19)
        z = sample_uniform_cap(2, 1.3, rng)
        assert z.shape == (3,)

    def test_hemisphere_mean_negative(self):
        rng = np.random.default_rng(20)
        z = sample_uniform_cap(1, 1.0, rng, size=20000)
        assert np.mean(z[:, 1]) < 0.0
        assert np.max(z[:, 1]) < 0.0

    def test_rejection_fraction_arc_oracle(self):
        # dark arc of S^1 above latitude 0.5 spans 120 degrees: reject 1/3
        rng = np.random.default_rng(21)
        n = 100_000
        _, raw, accepted = sample_uniform_cap(
            1, 1.5, rng, size=n, with_rejection_stats=True
        )
        frac_rejected = 1.0 - accepted / raw
        se = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / raw)
        assert abs(frac_rejected - 1.0 / 3.0) <= 3.0 * se


class TestCapRatio:
    def test_d1_arc_oracle(self):
        # fraction of the circle with sin(theta) > s is 1/2 - arcsin(s)/pi
        for ell_o in (1.1, 1.25, 1.5, 1.75, 1.9):
            s = ell_o - 1.0
            oracle = 0.5 - math.asin(s) / math.pi
            assert abs(cap_ratio_exact(1, ell_o) - oracle) < 1e-13
        assert abs(cap_ratio_exact(1, 1.5) - 1.0 / 3.0) < 1e-13

    def test_d2_archimedes_oracle(self):
        # cap area on S^2 is proportional to its height: fraction (1-s)/2
        for ell_o in (1.1, 1.4, 1.8):
            s = ell_o - 1.0
            assert abs(cap_ratio_exact(2, ell_o) - (1.0 - s) / 2.0) < 1e-13

    def test_hemisphere_and_degenerate_limits(self):
        for d in (1, 4, 30):
            assert cap_ratio_exact(d, 1.0) == 0.5
            assert cap_ratio_exact(d, 2.0) == 0.0
            near = cap_ratio_exact(d, 1.999)
            assert near < cap_ratio_exact(d, 1.9) < cap_ratio_exact(d, 1.5)
        assert cap_ratio_exact(1, 1.999) < 0.02
        assert cap_ratio_exact(30, 1.999) < 1e-40

    def test_bound_values(self):
        assert abs(cap_ratio_bound(1, 1.3) - 0.5 * math.exp(0.5) * math.sqrt(2.0)) < 1e-12
        v = cap_ratio_bound(100, 1.1)
        direct = 0.5 * math.exp(0.5) * math.sqrt(101.0) * 0.99 ** 49.5
        assert abs(v - direct) < 1e-12
        assert 5.0 < v < 5.1  # vacuous in this regime but still an upper bound

    def test_bound_dominates_exact(self):
        for d in (1, 2, 5, 20, 100, 200):
            for ell_o in np.linspace(1.01, 1.99, 25):
                assert cap_ratio_bound(d, ell_o) >= cap_ratio_exact(d, ell_o) - 1e-12

    def test_matches_empirical_rejection(self):
        rng = np.random.default_rng(22)
        for d in (1, 3, 10):
            for ell_o in (1.1, 1.5, 1.9):
                g = rng.standard_normal((60_000, d + 1))
                z = g / np.linalg.norm(g, axis=1, keepdims=True)
                frac_dark = np.mean(z[:, d] >= ell_o - 1.0)
                exact = cap_ratio_exact(d, ell_o)
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / 60_000)
                assert abs(frac_dark - exact) <= 3.0 * se + 1e-4


class TestRegularizedIncompleteBeta:
    def test_uniform_cdf(self):
        xs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(regularized_incomplete_beta(xs, 1.0, 1.0), xs, atol=1e-14)

    def test_arcsine_closed_form(self):
        for x in (0.1, 0.25, 0.5, 0.75, 0.9):
            oracle = 2.0 / math.pi * math.asin(math.sqrt(x))
            got = regularized_incomplete_beta(x, 0.5, 0.5)
            assert abs(got - oracle) < 1e-13
        assert abs(regularized_incomplete_beta(0.75, 0.5, 0.5) - 2.0 / 3.0) < 1e-13

    def test_reflection_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a = rng.uniform(0.1, 50.0)
            b = rng.uniform(0.1, 50.0)
            x = rng.uniform(0.0, 1.0)
            lhs = regularized_incomplete_beta(x, a, b)
            rhs = regularized_incomplete_beta(1.0 - x, b, a)
            assert abs(lhs + rhs - 1.0) <= 1e-12

    def test_against_scipy(self):
        rng = np.random.default_rng(24)
        a = rng.uniform(0.05, 120.0, size=500)
        b = rng.uniform(0.05, 120.0, size=500)
        x = rng.uniform(0.0, 1.0, size=500)
        for ai, bi, xi in zip(a, b, x):
            got = regularized_incomplete_beta(xi, ai, bi)
            ref = sps.betainc(ai, bi, xi)
            assert abs(got - ref) <= 1e-12

    def test_against_mpmath_high_precision(self):
        import mpmath

        cases = [(0.3, 2.5, 7.0), (0.97, 100.0, 0.5), (1e-8, 0.5, 0.5),
                 (0.5, 60.0, 60.0)]
        for x, a, b in cases:
            ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
            got = regularized_incomplete_beta(x, a, b)
            assert abs(got - ref) <= 1e-13

    def test_log_variant_deep_tail(self):
        import mpmath

        for x, a, b in [(1e-30, 3.0, 0.5), (1e-10, 6.0, 0.5), (0.3, 1.0, 0.5)]:
            ref = float(mpmath.log(mpmath.betainc(a, b, 0, x, regularized=True)))
            got = float(log_regularized_incomplete_beta(x, a, b))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.5, 1.0, 0.0)


def rel_diff(got, ref):
    """Elementwise |got - ref| / |ref|, zero where both are the same infinity."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    same = got == ref
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(got - ref) / np.abs(ref)
    return np.where(same, 0.0, rel)


class TestIncompleteBetaPaths:
    """The single-point path and the batched path compute the same values."""

    FUNCS = (regularized_incomplete_beta, log_regularized_incomplete_beta)

    def test_batch_independence(self):
        for f in self.FUNCS:
            alone = f(np.array([0.3]), 5.5, 0.5)[0]
            for batch in ([0.3, 0.8], [0.3, 0.3], [0.3, 0.05, 0.99, 0.0]):
                assert f(np.array(batch), 5.5, 0.5)[0] == alone
            assert f(0.3, 5.5, 0.5) == alone

    def test_scalar_matches_array(self):
        rng = np.random.default_rng(31)
        for nu in (3.0, 11.0, 101.0):
            a, b = nu / 2.0, 0.5
            edge = (a + 1.0) / (a + b + 2.0)
            xs = np.concatenate([
                [0.0, 1.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
                 1e-300, 1e-16, 1.0 - 1e-16],
                rng.uniform(0.0, 1.0, 200),
            ])
            for f in self.FUNCS:
                batch = f(xs, a, b)
                single = np.array([f(float(x), a, b) for x in xs])
                assert isinstance(f(float(xs[2]), a, b), float)
                assert np.all(rel_diff(single, batch) <= 1e-14)

    def test_domain_errors_on_both_paths(self):
        for f in self.FUNCS:
            for x in (math.nan, -0.1, 1.1, math.inf):
                with pytest.raises(DomainError):
                    f(x, 2.0, 0.5)
                with pytest.raises(DomainError):
                    f(np.array([0.5, x]), 2.0, 0.5)
            for a, b in ((0.0, 0.5), (2.0, -1.0), (math.nan, 0.5)):
                with pytest.raises(DomainError):
                    f(0.5, a, b)
                with pytest.raises(DomainError):
                    f(np.array([0.2, 0.5]), a, b)

    def test_nonconvergence_raises_on_both_paths(self, monkeypatch):
        monkeypatch.setattr(geometry, "_BETA_MAXIT", 2)
        for f in self.FUNCS:
            with pytest.raises(DomainError):
                f(0.8, 5.5, 0.5)
            with pytest.raises(DomainError):
                f(np.array([0.3, 0.8]), 5.5, 0.5)
