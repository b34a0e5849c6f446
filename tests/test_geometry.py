import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import special as sps

from brightside import geometry, targets
from brightside.errors import (
    BoundaryWithoutSymmetry,
    BrightsideError,
    DarkSidePoint,
    DomainError,
    NonfiniteInput,
    NonpositiveScale,
    ObserverOutsideBall,
)
from brightside.geometry import (
    ProjectionParams,
    cap_forward,
    cap_ratio_exact,
    log_jacobian_at_cap_point,
    log_regularized_incomplete_beta,
    make_params,
    regularized_incomplete_beta,
    sample_uniform_cap,
    scp_forward,
    scp_inverse,
    solve_chord_scale,
)
from oracles import log_jacobian


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
    """ProjectionParams checks itself when it is built."""

    def test_center_observer_ok(self):
        p = ProjectionParams(h_o=np.zeros(2), ell_o=1.0, mu=np.zeros(2), R=1.0)
        assert p.d == 2 and p.ell_o == 1.0

    def test_stereographic_boundary_ok(self):
        p = ProjectionParams(h_o=np.zeros(3), ell_o=2.0, mu=np.zeros(3), R=1.0)
        assert p.d == 3 and p.ell_o == 2.0

    def test_observer_outside_ball(self):
        with pytest.raises(ObserverOutsideBall):
            ProjectionParams(h_o=np.array([0.9, 0.0]), ell_o=1.5,
                             mu=np.zeros(2), R=1.0)

    def test_boundary_without_symmetry(self):
        with pytest.raises(BoundaryWithoutSymmetry):
            ProjectionParams(h_o=np.array([1e-8, 0.0]), ell_o=2.0,
                             mu=np.zeros(2), R=1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonfiniteInput):
            ProjectionParams(h_o=np.array([np.nan, 0.0]), ell_o=1.2,
                             mu=np.zeros(2), R=1.0)
        with pytest.raises(NonfiniteInput):
            make_params(2, ell_o=1.2, R=math.inf)

    def test_replace_is_checked(self):
        p = make_params(2, ell_o=1.2)
        with pytest.raises(ObserverOutsideBall):
            dataclasses.replace(p, ell_o=2.5)

    def test_arrays_are_read_only_copies(self):
        h_o = np.array([0.1, 0.2])
        p = make_params(2, h_o=h_o, ell_o=1.2)
        h_o[0] = 5.0
        assert p.h_o[0] == 0.1
        with pytest.raises(ValueError):
            p.h_o[0] = 5.0

    def test_nonpositive_scale(self):
        with pytest.raises(NonpositiveScale):
            make_params(2, R=0.0)

    def test_latitude_below_one_rejected(self):
        with pytest.raises(ObserverOutsideBall):
            make_params(2, ell_o=0.8)

    def test_dimension_below_one_rejected(self):
        # d = 0 is rejected, not read as "infer d from h_o"
        for d in (0, -1):
            with pytest.raises(ValueError, match="dimension"):
                make_params(d)
        with pytest.raises(ValueError, match="dimension"):
            ProjectionParams(h_o=np.zeros(0), ell_o=1.0, mu=np.zeros(0), R=1.0)


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
            M = solve_chord_scale(p.mu, p)[0]
            assert abs(float(M) - 1.0) < 1e-12

    def test_cauchy_closed_form(self):
        p = make_params(1, ell_o=1.0)
        M = solve_chord_scale(np.array([math.sqrt(3.0)]), p)[0]
        assert abs(float(M) - 0.5) < 1e-14
        rng = np.random.default_rng(6)
        y = rng.standard_normal((50, 4)) * 10
        p4 = make_params(4, ell_o=1.0)
        M = solve_chord_scale(y, p4)[0]
        expected = 1.0 / np.sqrt(1.0 + np.sum(y * y, axis=1))
        assert np.allclose(M, expected, rtol=1e-12)

    def test_stereographic_closed_form(self):
        p = make_params(1, ell_o=2.0)
        M = solve_chord_scale(np.array([2.0]), p)[0]
        assert abs(float(M) - 0.5) < 1e-14
        rng = np.random.default_rng(7)
        y = rng.standard_normal((50, 3)) * 8
        p3 = make_params(3, ell_o=2.0)
        M = solve_chord_scale(y, p3)[0]
        expected = 4.0 / (np.sum(y * y, axis=1) + 4.0)
        assert np.allclose(M, expected, rtol=1e-12)

    def test_quadratic_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            p = random_params(rng, d)
            y = rng.standard_t(df=1, size=d) * 5.0
            M, A, B, _ = solve_chord_scale(y, p)
            ball = float(np.dot(p.h_o, p.h_o)) + (p.ell_o - 1.0) ** 2
            resid = A * M**2 + 2.0 * B * M + ball - 1.0
            assert abs(float(resid)) <= 1e-10 * max(1.0, float(A * M**2))

    def test_interior_constant_term_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_params(rng, 3)
            C = solve_chord_scale(np.zeros(3), p)[3]
            assert isinstance(C, float) and C < 0.0

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
            M = solve_chord_scale(ys, p)[0]
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

    @pytest.mark.parametrize("p", [make_params(3, ell_o=1.1),
                                   make_params(3, h_o=0.3, ell_o=1.2, mu=1.0, R=2.0),
                                   make_params(3, ell_o=2.0)],
                             ids=["ell_o-1.1", "ell_o-1.2-off-centre", "ell_o-2"])
    def test_far_points_lift_or_raise_typed(self, p):
        # from |yhat - h_o| near 1e154 on the chord solve overflows, where
        # the root would be 0 (the observer, a dark point) or NaN; a lift
        # far out may still tie with the observer latitude, as at the pole
        for magnitude in (1e150, 1e160, 1e200, 1e300, 1.7e308):
            for sign in (1.0, -1.0):
                y = np.full(3, sign * magnitude)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        z = scp_inverse(y, p)
                    except BrightsideError:
                        continue
                assert abs(np.linalg.norm(z) - 1.0) <= 1e-15
                assert z[-1] <= p.ell_o - 1.0

    def test_overflowing_chord_solve_raises_domain_error(self):
        p = make_params(3, h_o=0.3, ell_o=1.2, mu=1.0, R=2.0)
        for y in (np.full(3, 1e160), np.array([[0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0]])):
            with pytest.raises(DomainError, match="chord solve"):
                scp_inverse(y, p)
            with pytest.raises(DomainError, match="chord solve"):
                log_jacobian(y, p)

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


def cap_forward_written_out(x, p):
    """cap_forward's y and log_jac with every h_o and mu term computed.

    One point takes math.log and a dot product, a batch np.log and a
    matrix-vector product, as ``cap_forward`` does.
    """
    zd = x[..., -1]
    t = (p.ell_o - 1.0) - zd
    s = p.R / t
    y = (x[..., :-1] * (p.ell_o * s)[..., None]
         - p.h_o * ((zd + 1.0) * s)[..., None] + p.mu)
    bracket = 1.0 - x @ np.append(p.h_o, p.ell_o - 1.0)
    log = math.log if x.ndim == 1 else np.log
    const = p.d * math.log(p.R) + p.d * math.log(p.ell_o)
    return y, const + log(bracket) - (p.d + 1.0) * log(t)


class TestCapForward:
    def test_single_point_matches_batch_row(self):
        # y takes the same elementwise steps on both branches; log_jac
        # takes a dot product and math.log for one point where the batch
        # takes a matrix-vector product and np.log, so it may differ in
        # the last bits
        rng = np.random.default_rng(18)
        for d in (1, 10, 100):
            for p in (random_params(rng, d), make_params(d, ell_o=1.1, R=2.5)):
                xs = sample_uniform_cap(d, p.ell_o, rng, size=60)
                y_b, lj_b, t_b, _ = cap_forward(xs, p)
                for i, x in enumerate(xs):
                    y, lj, t, bracket = cap_forward(x, p)
                    assert isinstance(lj, float) and isinstance(bracket, float)
                    assert np.array_equal(y, y_b[i])
                    assert t == t_b[i]
                    assert abs(lj - lj_b[i]) <= 1e-12 * max(1.0, abs(lj_b[i]))
                y_2, lj_2, _, _ = cap_forward(xs.reshape(3, 20, d + 1), p)
                assert np.array_equal(y_2.reshape(60, d), y_b)
                assert np.array_equal(lj_2.reshape(60), lj_b)

    def test_bracket_matches_the_form_before_the_unit_sphere_identity(self):
        # 1 - <o, x> = <h_x - h_o, h_x> - t z_d on the unit sphere.  Both
        # forms round terms of size 1, so they agree to a few ulps of 1:
        # 1e-13 relative while the bracket is not below 1e-2, which it can
        # only approach near the observer's direction at low d
        rng = np.random.default_rng(19)
        for d in (1, 10, 100):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            at_margin = make_params(d, h_o=u * math.sqrt(1.0 - 0.25**2 - 1e-8),
                                    ell_o=1.25)
            assert 0.0 < 1.0 - at_margin.h_o @ at_margin.h_o - 0.25**2 < 2e-8
            for p in [random_params(rng, d) for _ in range(10)] + [at_margin]:
                xs = sample_uniform_cap(d, p.ell_o, rng, size=200)
                _, _, t, bracket = cap_forward(xs, p)
                hx, zd = xs[:, :-1], xs[:, -1]
                before = np.sum((hx - p.h_o) * hx, axis=-1) - t * zd
                assert np.all(bracket > 0.0)
                err = np.abs(bracket - before)
                assert np.all(err <= 1e-13 * np.maximum(before, 1e-2))

    def test_centered_skip_gives_the_bits_of_the_written_out_terms(self):
        rng = np.random.default_rng(20)
        for d in (1, 2, 10, 100):
            for ell_o, R in ((1.0, 1.0), (1.1, 0.7), (2.0, math.sqrt(d) / 2.0)):
                p = make_params(d, ell_o=ell_o, R=R)
                assert p._centered
                xs = sample_uniform_cap(d, ell_o, rng, size=50)
                y_b, lj_b, _, _ = cap_forward(xs, p)
                y_w, lj_w = cap_forward_written_out(xs, p)
                assert np.array_equal(y_b, y_w)
                assert np.array_equal(lj_b, lj_w)
                for x in xs[:10]:
                    y, lj, _, _ = cap_forward(x, p)
                    y_w, lj_w = cap_forward_written_out(x, p)
                    assert np.array_equal(y, y_w)
                    assert lj == lj_w
        assert not make_params(2, h_o=[0.0, 0.1])._centered
        assert not make_params(2, mu=[-1e-300, 0.0])._centered

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

    def test_empty_and_negative_size(self):
        rng = np.random.default_rng(19)
        assert sample_uniform_cap(3, 1.1, rng, size=0).shape == (0, 4)
        z, raw, accepted = sample_uniform_cap(3, 1.1, rng, size=0,
                                              with_rejection_stats=True)
        assert z.shape == (0, 4) and (raw, accepted) == (0, 0)
        with pytest.raises(ValueError, match="size"):
            sample_uniform_cap(3, 1.1, rng, size=-1)

    @pytest.mark.parametrize("size", [2.5, True, False, "3"])
    def test_non_integer_size_rejected(self, size):
        # 2.5 once returned 2 rows and True 1 row
        with pytest.raises(ValueError, match="size must be an integer"):
            sample_uniform_cap(3, 1.1, np.random.default_rng(19), size=size)

    def test_numpy_integer_size(self):
        z = sample_uniform_cap(3, 1.1, np.random.default_rng(19), size=np.int64(4))
        assert z.shape == (4, 4)
        assert np.array_equal(z, sample_uniform_cap(3, 1.1, np.random.default_rng(19),
                                                    size=4))

    def test_dimension_below_one_rejected(self):
        rng = np.random.default_rng(19)
        for d in (0, -1):
            with pytest.raises(DomainError, match="dimension"):
                sample_uniform_cap(d, 1.1, rng, size=3)

    @pytest.mark.parametrize("d", [2.5, True, "3"])
    def test_non_integer_dimension_rejected(self, d):
        # 2.5 once raised a raw TypeError from numpy here, and built a
        # d = 2 projection and gave a d = 2.5 cap ratio
        rng = np.random.default_rng(19)
        for call in (lambda: sample_uniform_cap(d, 1.1, rng, size=3),
                     lambda: cap_ratio_exact(d, 1.1),
                     lambda: make_params(d),
                     lambda: ProjectionParams(h_o=0.0, ell_o=1.1, mu=0.0, R=1.0, d=d)):
            with pytest.raises(ValueError, match="d must be an integer"):
                call()

    def test_numpy_integer_dimension(self):
        z = sample_uniform_cap(np.int64(3), 1.1, np.random.default_rng(19), size=4)
        assert np.array_equal(z, sample_uniform_cap(3, 1.1, np.random.default_rng(19),
                                                    size=4))
        assert cap_ratio_exact(np.int32(3), 1.3) == cap_ratio_exact(3, 1.3)
        assert make_params(np.int64(3), h_o=0.1, ell_o=1.1).d == 3
        assert type(make_params(np.int64(3)).d) is int

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

    @staticmethod
    def textbook_cap(d, ell_o, rng, n, spare):
        """Rounds of twice the missing rows, normalized, bright ones kept.

        The bright rows follow ``spare`` in order; returns the first n,
        the rest as the new spare, and the rows drawn.
        """
        chunks = [spare]
        got, raw = len(spare), 0
        while got < n:
            g = rng.standard_normal((2 * (n - got), d + 1))
            raw += g.shape[0]
            z = g / np.sqrt(np.vecdot(g, g))[:, None]
            chunks.append(z[z[:, d] < ell_o - 1.0])
            got += chunks[-1].shape[0]
        out = np.concatenate(chunks)
        return out[:n], out[n:], raw

    @pytest.mark.parametrize("d, ell_o, size, seed", [
        (3, 1.3, None, 40), (3, 1.3, 0, 41), (10, 1.1, 1000, 42),
        (2, 1.0, 3, 55),     # the first round keeps 1 of 3, the second none
        (2, 1.0, 3, 1994),   # the first two rounds keep none
    ])
    def test_matches_textbook_rejection_loop(self, d, ell_o, size, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, raw, accepted = sample_uniform_cap(d, ell_o, rng, size=size,
                                                with_rejection_stats=True)
        n = 1 if size is None else size
        want, spare, want_raw = self.textbook_cap(d, ell_o, ref_rng, n,
                                                  np.empty((0, d + 1)))
        if size is None:
            want = want[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (raw, accepted) == (want_raw, n + len(spare))
        assert rng.random() == ref_rng.random()
        if seed in (55, 1994):
            assert raw > 2 * size

    @pytest.mark.parametrize("d, ell_o, spare_rows, count", [
        (3, 1.3, 5, 12), (10, 1.1, 40, 30), (2, 1.0, 7, 0),
    ])
    def test_carried_spare_matches_textbook(self, d, ell_o, spare_rows, count):
        spare = sample_uniform_cap(d, ell_o, np.random.default_rng(43), size=spare_rows)
        rng, ref_rng = np.random.default_rng(44), np.random.default_rng(44)
        rows, left, drawn = geometry._bright_rows(rng, spare, count, ell_o - 1.0)
        want, want_left, want_drawn = self.textbook_cap(d, ell_o, ref_rng, count, spare)
        assert rows.tobytes() == want.tobytes() and rows.shape == (count, d + 1)
        assert left.tobytes() == want_left.tobytes() and drawn == want_drawn
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("d, ell_o, a, b", [
        (3, 1.3, 7, 11), (10, 1.1, 1000, 1000), (2, 1.0, 1, 1), (4, 1.5, 50, 0),
    ])
    def test_top_ups_take_consecutive_bright_rows(self, d, ell_o, a, b):
        # a rows, then b more from the carried spare, are the a + b rows of
        # one call: whatever the rounds, the rows are the stream's bright rows
        rng = np.random.default_rng(45)
        first, spare, _ = geometry._bright_rows(rng, np.empty((0, d + 1)), a, ell_o - 1.0)
        second, _, _ = geometry._bright_rows(rng, spare, b, ell_o - 1.0)
        whole = sample_uniform_cap(d, ell_o, np.random.default_rng(45), size=a + b)
        assert np.concatenate([first, second]).tobytes() == whole.tobytes()


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


class TestLogBeta:
    def test_against_mpmath_past_gamma_overflow(self):
        # an lgamma difference is off by 2.3e-14 to 1.2e-10 relative here
        import mpmath

        with mpmath.workdps(40):
            # from a + b = 171 on, where Gamma(a + b) overflows
            for a, b in ((170.5, 0.5), (200.0, 0.5), (500.0, 0.5), (5000.0, 0.5),
                         (5e5, 0.5), (300.0, 60.0)):
                ref = (mpmath.loggamma(a) + mpmath.loggamma(b)
                       - mpmath.loggamma(mpmath.mpf(a) + b))
                got = geometry._log_beta(a, b)
                assert abs(got - ref) <= 1e-15 * abs(ref)
                assert geometry._log_beta(b, a) == got


class TestIncompleteBetaPaths:
    """The plain-float path and the batched path compute the same values."""

    FUNCS = (regularized_incomplete_beta, log_regularized_incomplete_beta)
    # the t log-CDF loops the per-point path up to its small-batch limit
    # and vectorizes one point more; here both sizes vectorize
    SIZES = (targets._BETA_SMALL_BATCH, targets._BETA_SMALL_BATCH + 1)

    def test_batch_independence(self):
        rng = np.random.default_rng(30)
        for f in self.FUNCS:
            alone = f(np.array([0.3]), 5.5, 0.5)[0]
            batches = [[0.3, 0.8], [0.3, 0.3], [0.3, 0.05, 0.99, 0.0]]
            batches += [[0.3] + list(rng.uniform(0.0, 1.0, n - 1)) for n in self.SIZES]
            for batch in batches:
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
                assert np.array_equal(single, batch)
                for n in self.SIZES:
                    assert np.array_equal(f(xs[:n], a, b), single[:n])

    def test_domain_errors_on_both_paths(self):
        big = np.full(self.SIZES[1], 0.5)
        for f in self.FUNCS:
            for x in (math.nan, -0.1, 1.1, math.inf):
                with pytest.raises(DomainError):
                    f(x, 2.0, 0.5)
                with pytest.raises(DomainError):
                    f(np.array([0.5, x]), 2.0, 0.5)
                with pytest.raises(DomainError):
                    f(np.append(big, x), 2.0, 0.5)
            for a, b in ((0.0, 0.5), (2.0, -1.0), (math.nan, 0.5)):
                with pytest.raises(DomainError):
                    f(0.5, a, b)
                with pytest.raises(DomainError):
                    f(np.array([0.2, 0.5]), a, b)
                with pytest.raises(DomainError):
                    f(big, a, b)

    def test_nonconvergence_raises_on_both_paths(self, monkeypatch):
        monkeypatch.setattr(geometry, "_BETA_MAXIT", 2)
        for f in self.FUNCS:
            with pytest.raises(DomainError):
                f(0.8, 5.5, 0.5)
            with pytest.raises(DomainError):
                f(np.array([0.3, 0.8]), 5.5, 0.5)
            with pytest.raises(DomainError):
                f(np.full(self.SIZES[1], 0.8), 5.5, 0.5)


class TestSeriesRegion:
    """The power series near 0 and the fraction above its edge agree."""

    # (m/2, 1/2) and (1/2, m/2) for the t log-CDFs at m = 11 and m = 101
    SHAPES = ((5.5, 0.5), (0.5, 5.5), (50.5, 0.5), (0.5, 50.5))

    @staticmethod
    def edge(a, b):
        return geometry._beta_terms(a, b, geometry._BETA_MAXIT).edge

    def test_against_mpmath_at_the_edge(self):
        import mpmath

        with mpmath.workdps(40):
            for a, b in self.SHAPES:
                edge = self.edge(a, b)
                # the series serves below the symmetry edge, unreflected
                assert 0.0 < edge < (a + 1.0) / (a + b + 2.0)
                for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                    ref = mpmath.betainc(a, b, 0, mpmath.mpf(x), regularized=True)
                    log_ref = float(mpmath.log(ref))
                    got_log = log_regularized_incomplete_beta(x, a, b)
                    assert abs(got_log - log_ref) <= 1e-14 * abs(log_ref)
                    # the value is the exp of a front factor's log, which
                    # carries half an ulp of |log I|: 1.7e-14 at
                    # (50.5, 1/2), where log I is -157
                    tol = 1e-14
                    if (a, b) == (50.5, 0.5):
                        tol += abs(log_ref) * 2.0**-53
                    got = regularized_incomplete_beta(x, a, b)
                    assert abs(got - float(ref)) <= tol * float(ref)

    def test_batch_across_the_edge_matches_plain_floats(self):
        rng = np.random.default_rng(34)
        n = targets._BETA_SMALL_BATCH + 1
        for a, b in self.SHAPES:
            edge = self.edge(a, b)
            xs = np.concatenate([
                [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)],
                rng.uniform(0.0, edge, n // 2), rng.uniform(edge, 1.0, n // 2)])
            for f in TestIncompleteBetaPaths.FUNCS:
                single = [f(float(x), a, b) for x in xs]
                assert np.array_equal(f(xs, a, b), single)

    def test_both_swap_groups_with_mixed_log_flags(self):
        # every point on the series side, in both swap groups, each with
        # value and log flags mixed, batched past the small-batch limit
        rng = np.random.default_rng(36)
        n = 4 * targets._BETA_SMALL_BATCH
        for a, b in self.SHAPES + ((2.0, 3.0),):
            xs = np.concatenate([rng.uniform(0.0, 0.9 * self.edge(a, b), n),
                                 1.0 - rng.uniform(0.0, 0.9 * self.edge(b, a), n)])
            log = rng.random(xs.size) < 0.5
            swap = xs > (a + 1.0) / (a + b + 2.0)
            assert swap.sum() == n and (log & swap).any() and (log & ~swap).any()
            pair = geometry._beta_pair(a, b)
            single = [geometry._incomplete_beta_scalar(float(x), pair, bool(lv))
                      for x, lv in zip(xs, log)]
            assert np.array_equal(geometry._incomplete_beta(xs, a, b, log), single)
        # the t log-CDF at m = 11: |t| large and small, both signs
        from brightside.targets import student_t_log_cdf
        m = 11.0
        t_far = np.sqrt(m / (0.9 * self.edge(m / 2.0, 0.5)) - m) * rng.uniform(1.0, 3.0, n)
        t_near = np.sqrt(m * 0.9 * self.edge(0.5, m / 2.0)) * rng.uniform(0.01, 1.0, n)
        ts = np.concatenate([t_far, t_near]) * rng.choice([-1.0, 1.0], 2 * n)
        assert np.array_equal(student_t_log_cdf(ts, m),
                              [student_t_log_cdf(float(t), m) for t in ts])

    def test_dropped_terms_below_half_an_ulp(self):
        # the terms after the first K, summed in 40 digits at the edge,
        # stay below half an ulp of the K-term sum
        import mpmath

        rng = np.random.default_rng(35)
        k_terms = geometry._BETA_SERIES_TERMS
        with mpmath.workdps(40):
            for a, b in rng.uniform(0.05, 120.0, (60, 2)):
                t = geometry._beta_terms(a, b, geometry._BETA_MAXIT)
                x = mpmath.mpf(t.edge)
                total = mpmath.hyp2f1(a + b, 1, a + 1, x)
                head = mpmath.fsum(mpmath.rf(a + b, k) / mpmath.rf(a + 1, k) * x**k
                                   for k in range(k_terms))
                s = geometry._beta_series(t.edge, t.coefs)
                assert total - head < math.ulp(s) / 2
