import hashlib
import math

import numpy as np
import pytest

from brightside import kernels
from brightside.diagnostics import ess
from brightside.errors import (
    ChainAborted,
    DarkSidePoint,
    DegenerateProposal,
    NonfiniteInput,
)
from brightside.geometry import (
    cap_forward,
    cap_ratio_exact,
    make_params,
    sample_uniform_cap,
    scp_forward,
    scp_inverse,
)
from brightside.kernels import (
    HMC_TARGET_ACCEPT,
    KERNEL_KINDS,
    KernelConfig,
    adapt_step_size,
    derive_chain_seed,
    hmc_step,
    leapfrog,
    metropolis,
    MAX_TRIES,
    PILOT_POINTS,
    SPHERE_ENSEMBLE_MIN_CHAINS,
    _draws,
    propose_tangent,
    run_chain,
    run_chains,
    sphere_step,
    stepping_out,
)
from brightside.targets import (
    TargetModel,
    binary_regression_posterior,
    generate_separable_data,
    mv_student_t,
    skew_t,
)
from oracles import ks_statistic, log_jacobian, student_t_cdf, uniform_cap_pullback


def random_bright_dark_pair(rng, d, ell_o, h=1.5):
    """Sample a bright state and a dark proposal from the actual kernel."""
    while True:
        x = sample_uniform_cap(d, ell_o, rng)
        x_prime = propose_tangent(x, h, rng.standard_normal(d + 1))
        if x_prime[-1] > ell_o - 1.0:
            return x, x_prime


class Walled(TargetModel):
    """The d = 2 Cauchy with log density +inf where y_0 > 2, NaN where
    y_1 < -2 and -inf where y_0 < -2, in that order of precedence."""

    dim = 2
    base = mv_student_t(2, nu=1.0)

    def log_density(self, y):
        y = np.asarray(y)
        return np.select([y[..., 0] > 2.0, y[..., 1] < -2.0, y[..., 0] < -2.0],
                         [np.inf, np.nan, -np.inf], self.base.log_density(y))

    def grad_log_density(self, y):
        return self.base.grad_log_density(y)


WALLED_KINDS = [("scs", 3), ("scs", 0), ("sps", 3), ("rwm", 3), ("hmc", 3)]


def walled_run(kind, every, init, iterations, n_chains):
    """Chains of ``kind`` on ``Walled``, alone or as an ensemble."""
    p = make_params(2, ell_o=2.0, R=1.0) if kind == "sps" else make_params(2, ell_o=1.1)
    cfg = KernelConfig(kind, h=0.3 if kind == "hmc" else 0.5, leapfrog_steps=5,
                       independence_every=every)
    return run_chains(cfg, p, Walled(), init, iterations, seed=26, n_chains=n_chains)


class TestProposeTangent:
    def test_hand_example(self):
        x = np.array([1.0, 0.0])
        x_prime = propose_tangent(x, 1.0, np.array([0.3, 0.4]))
        norm = math.sqrt(1.16)
        assert np.allclose(x_prime, [1.0 / norm, 0.4 / norm], atol=1e-12)

    def test_tangency_and_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            x = sample_uniform_cap(d, 1.0, rng)
            x_prime = propose_tangent(x, 0.7, rng.standard_normal(d + 1))
            assert abs(np.linalg.norm(x_prime) - 1.0) <= 1e-12
            # reconstruct the tangent displacement: delta = x'/<x,x'> - x
            delta = x_prime / float(x @ x_prime) - x
            assert abs(float(x @ delta)) <= 1e-12

    def test_chained_steps_stay_on_the_sphere(self):
        # each step divides by its own computed norm, so |x| - 1 does not
        # build up; with the closed-form norm sqrt(1 + h^2 (|z|^2 - <x, z>^2))
        # these chains left 1e-12 within 6-1139 steps at d = 1 (h >= 1) and
        # d = 2 (h >= 30), and at d = 1, h = 30 its root's argument later
        # rounded below zero
        hs = np.array([0.05, 1.0, 30.0, 1e10])
        for d in (1, 2, 100):
            rng = np.random.default_rng(d)
            start = np.zeros(d + 1)
            start[-1] = -1.0
            alone = [start] * len(hs)
            batch = np.tile(start, (len(hs), 1))
            for _ in range(10):
                for z in rng.standard_normal((1_000, len(hs), d + 1)):
                    alone = [propose_tangent(x, h, z_i) for x, h, z_i in zip(alone, hs, z)]
                    batch = propose_tangent(batch, hs, z)
                for x in [*alone, *batch]:
                    assert abs(math.sqrt(x @ x) - 1.0) <= 1e-12

    def test_small_h_stays_close(self):
        rng = np.random.default_rng(1)
        x = sample_uniform_cap(3, 1.0, rng)
        dists = [np.linalg.norm(propose_tangent(x, 1e-6, rng.standard_normal(4)) - x)
                 for _ in range(1000)]
        assert np.median(dists) < 1e-5


def frame_stepping_out(x, x_prime, ell_o):
    """Stepping-out as frame arithmetic: the unit tangent u, the angles
    alpha, phi and gamma and the count K, then the landing point, each
    in the order of the textbook walk.  Returns (landing, u, alpha, phi,
    gamma, K); the caller has checked that x is bright and x' dark."""
    x_lat = float(x[-1])
    c = float(x @ x_prime)
    s2 = 1.0 - c * c
    u = x_prime - c * x
    u /= math.sqrt(s2)
    alpha = math.acos(min(1.0, max(-1.0, c)))
    amp = math.hypot(x_lat, float(u[-1]))
    phi = math.acos(min(1.0, max(-1.0, x_lat / amp)))
    gamma = math.acos(min(1.0, max(-1.0, (ell_o - 1.0) / amp)))
    K = int((phi + gamma) / alpha) + 1
    while K * alpha <= phi + gamma:
        K += 1
    out = math.cos(K * alpha) * x
    out += math.sin(K * alpha) * u
    out /= math.sqrt(out @ out)
    return out, u, alpha, phi, gamma, K


def two_coefficient_stepping_out(x, x_prime, ell_o):
    """The same landing point written as a x + b x', with no u array."""
    _, _, alpha, _, _, K = frame_stepping_out(x, x_prime, ell_o)
    c = float(x @ x_prime)
    s = math.sqrt(1.0 - c * c)
    out = (math.cos(K * alpha) - math.sin(K * alpha) * c / s) * x
    out += (math.sin(K * alpha) / s) * x_prime
    out /= math.sqrt(out @ out)
    return out


class TestGreatCircleFrame:
    def test_hand_geometry_example(self):
        # x at 0 degrees, x' at 80: u is the second axis, the latitude
        # peaks at phi = 90 degrees and the dark arc half-width is 60
        ell_o = 1.5
        x = np.array([1.0, 0.0])
        ang = math.radians(80.0)
        x_prime = np.array([math.cos(ang), math.sin(ang)])
        landing, u, alpha, phi, gamma, K = frame_stepping_out(x, x_prime, ell_o)
        assert np.allclose(u, [0.0, 1.0], atol=1e-12)
        assert abs(alpha - ang) < 1e-12
        assert abs(phi - math.pi / 2.0) < 1e-12
        assert abs(gamma - math.pi / 3.0) < 1e-12
        assert K == 2
        assert np.array_equal(stepping_out(x, x_prime, ell_o), landing)


class TestSteppingOut:
    def test_circle_walk_oracle(self):
        # x at 0 degrees, x' at 80: the circle's latitude is sin(theta),
        # its dark arc (latitude above 1/2) runs from 30 to 150 degrees,
        # so the walk needs K = 2 arcs and lands at 160 degrees
        ell_o = 1.5
        x = np.array([1.0, 0.0])
        ang = math.radians(80.0)
        x_prime = np.array([math.cos(ang), math.sin(ang)])
        x_star = stepping_out(x, x_prime, ell_o)
        expected = np.array([math.cos(math.radians(160.0)),
                             math.sin(math.radians(160.0))])
        assert np.allclose(x_star, expected, atol=1e-12)
        assert x_star[-1] < ell_o - 1.0

    def test_invariants_on_triggered_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            d = int(rng.integers(1, 6))
            ell_o = rng.uniform(1.0, 1.7)
            x, x_prime = random_bright_dark_pair(rng, d, ell_o)
            x_star = stepping_out(x, x_prime, ell_o)
            assert abs(np.linalg.norm(x_star) - 1.0) <= 1e-12
            assert x_star[-1] <= ell_o - 1.0 + 1e-12

    def test_matches_frame_arithmetic_bit_for_bit(self):
        # the tangent step rarely reaches a high dark cap at larger d, so
        # ell_o is drawn from [1, 1.9] only as far as pairs come quickly
        rng = np.random.default_rng(19)
        two_coefficient_differs = 0
        for d, ell_max in ((1, 1.9), (2, 1.9), (10, 1.7), (100, 1.2)):
            for _ in range(250):
                ell_o = rng.uniform(1.0, ell_max)
                x, x_prime = random_bright_dark_pair(rng, d, ell_o)
                expected, u, alpha, phi, gamma, K = frame_stepping_out(
                    x, x_prime, ell_o)
                assert abs(float(x @ u)) <= 1e-12
                assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
                assert 0.0 <= gamma <= math.pi / 2.0 + 1e-12
                # the first arc lands dark, inside |theta - phi| < gamma,
                # and K is the fewest arcs that pass the dark arc
                assert phi - gamma < alpha < phi + gamma
                assert K >= 2
                assert (K - 1) * alpha <= phi + gamma < K * alpha
                assert np.array_equal(stepping_out(x, x_prime, ell_o), expected)
                two_coefficient_differs += not np.array_equal(
                    two_coefficient_stepping_out(x, x_prime, ell_o), expected)
        # the test tells the landing forms apart: the algebraically equal
        # a x + b x' rounds differently on some pairs
        assert two_coefficient_differs > 0

    def test_degenerate_raises(self):
        x = np.array([0.0, -1.0])
        with pytest.raises(DegenerateProposal):
            stepping_out(x, -x, 1.5)

    def test_precondition_checks(self):
        x_dark = np.array([0.0, 0.9])
        x_bright = np.array([1.0, 0.0])
        with pytest.raises(DarkSidePoint):
            stepping_out(x_dark, x_dark, 1.5)
        with pytest.raises(DarkSidePoint):
            stepping_out(x_bright, x_bright, 1.5)


class TestScsStep:
    def test_uniform_pullback_always_accepts(self):
        p = make_params(2, ell_o=1.4, mu=np.array([0.5, -0.5]), R=1.5)
        out = run_chain(KernelConfig("scs", h=0.8), p, uniform_cap_pullback(p),
                        np.zeros(2), 3000, seed=4)
        assert out.acceptance_rate == 1.0

    def test_matched_cauchy_always_accepts(self):
        p = make_params(3, ell_o=1.0)
        out = run_chain(KernelConfig("scs", h=0.8), p, mv_student_t(3, nu=1.0),
                        np.zeros(3), 2000, seed=5)
        assert out.acceptance_rate == 1.0

    def test_rejected_step_returns_input_unchanged(self):
        # a rejected step repeats the previous sample bit for bit, so the
        # samples change exactly as often as a step is accepted; the
        # spike rejects every step, the gentle well about half of them
        p = make_params(2, ell_o=1.1)

        class Well:
            dim = 2
            has_gradient = False

            def __init__(self, depth):
                self.depth = depth

            def log_density(self, y):
                y = np.asarray(y)
                return -self.depth * np.sum(y * y, axis=-1)

        n = 200
        for depth, lo, hi in ((1e4, 0.0, 0.0), (1.0, 0.1, 0.9)):
            out = run_chain(KernelConfig("scs", h=1.0), p, Well(depth),
                            np.zeros(2), n, seed=6)
            assert lo <= out.acceptance_rate <= hi
            prev = scp_forward(scp_inverse(np.zeros(2), p), p)
            changed = 0
            for row in out.samples:
                if not np.array_equal(row, prev):
                    changed += 1
                prev = row
            assert changed == round(out.acceptance_rate * n)

    def test_stereographic_matches_closed_form_ratio(self):
        # at latitude 2 the acceptance ratio must agree with the
        # independent closed-form stereographic Jacobian to 1e-10, both
        # through the chord solve and through cap_forward
        rng = np.random.default_rng(7)
        d = 3
        p = make_params(d, ell_o=2.0, R=math.sqrt(d) / 2.0)
        target = mv_student_t(d, nu=2.0)
        x = scp_inverse(np.ones(d), p)
        for _ in range(500):
            x_prime = propose_tangent(x, 0.6, rng.standard_normal(d + 1))
            assert not x_prime[-1] > 1.0  # stepping-out can never trigger
            y = scp_forward(x, p)
            y_star = scp_forward(x_prime, p)

            def stereo_logjac(v):
                vhat = (v - p.mu) / p.R
                return d * math.log((float(vhat @ vhat) + 4.0) / 4.0) \
                    + d * math.log(p.R)

            log_pi = float(target.log_density(y_star)) - float(target.log_density(y))
            closed = stereo_logjac(y_star) - stereo_logjac(y) + log_pi
            generic = float(log_jacobian(y_star, p)) - float(log_jacobian(y, p)) + log_pi
            at_cap = cap_forward(x_prime, p)[1] - cap_forward(x, p)[1] + log_pi
            for got in (generic, at_cap):
                assert abs(got - closed) <= 1e-10 * max(1.0, abs(closed))
            x = x_prime

    @pytest.mark.parametrize("ell_o", [1.0, 1.1])
    def test_invariance_ensemble_ks(self, ell_o):
        # start 1000 chains from exact target draws, run 1000 steps each,
        # pool the final states: marginals must still look like the target;
        # at ell_o = 1 the dark side is a hemisphere, and stepping out fires
        # on 21% of these steps, against 19% at ell_o = 1.1; pure SCS and
        # SCS alternating with the independence move must both keep it
        rng = np.random.default_rng(8)
        d = 2
        p = make_params(d, ell_o=ell_o)
        target = mv_student_t(d, nu=1.0)
        n_chains, n_steps = 1000, 1000
        inits = target.exact_sample(rng, size=n_chains)
        for every in (0, 2):
            cfg = KernelConfig("scs", h=0.7, independence_every=every)
            outs = run_chains(cfg, p, target, inits, n_steps, seed=8, n_chains=n_chains)
            assert [o.seed for o in outs[:3]] == [derive_chain_seed(8, c) for c in range(3)]
            finals = np.array([out.samples[-1] for out in outs])
            for j in range(d):
                s = np.sort(finals[:, j])
                F = student_t_cdf(s, 1.0)
                grid = np.arange(1, n_chains + 1) / n_chains
                ks = max(np.max(grid - F), np.max(F - (grid - 1.0 / n_chains)))
                assert ks < 1.63 / math.sqrt(n_chains)

    def test_latitude_band_occupancy_detailed_balance(self):
        # uniform-pullback target: band occupancy must match band areas,
        # with pure SCS and with SCS alternating with the independence move;
        # an ensemble started from exact uniform-cap draws, so each
        # transition solves every chain's chord in one batch
        d = 2
        ell_o = 1.5
        p = make_params(d, ell_o=ell_o)
        n_chains, n = 10, 25_000
        assert n_chains >= SPHERE_ENSEMBLE_MIN_CHAINS
        starts = scp_forward(sample_uniform_cap(d, ell_o, np.random.default_rng(9),
                                                size=n_chains), p)
        edges = np.array([-1.0, -0.5, 0.0, 0.25, ell_o - 1.0])
        # P(z_d+1 > s) = cap_ratio_exact at latitude 1+s for s >= 0, and
        # 1 - that at 1-s for s < 0 (symmetry of the uniform sphere law)
        def upper_frac(s):
            if s >= 0:
                return cap_ratio_exact(d, 1.0 + s)
            return 1.0 - cap_ratio_exact(d, 1.0 - s)

        bright_mass = 1.0 - cap_ratio_exact(d, ell_o)
        for every in (0, 2):
            outs = run_chains(KernelConfig("scs", h=0.8, independence_every=every), p,
                              uniform_cap_pullback(p), starts, n, seed=9,
                              n_chains=n_chains)
            lats = [scp_inverse(out.samples, p)[:, -1] for out in outs]
            for lo, hi in zip(edges[:-1], edges[1:]):
                expected = (upper_frac(lo) - upper_frac(hi)) / bright_mass
                inds = [((lat > lo) & (lat <= hi)).astype(float) for lat in lats]
                observed = np.mean(inds)
                n_eff = sum(ess(ind) for ind in inds)
                se = math.sqrt(expected * (1.0 - expected) / n_eff)
                assert abs(observed - expected) <= 3.0 * se


class TestSphereEnsemble:
    @pytest.mark.parametrize("kind", ["scs", "sps"])
    def test_ensemble_matches_single_chains(self, kind, monkeypatch):
        # run_chains steps the chains as one batch; chain i must follow
        # run_chain with the derived seed, step sizes included, and at
        # ell_o = 1.1 stepping-out must fire in the batch
        n = SPHERE_ENSEMBLE_MIN_CHAINS
        d = 3
        if kind == "scs":
            p = make_params(d, h_o=np.array([0.3, -0.2, 0.0]), ell_o=1.1, mu=0.3,
                            R=1.5)
        else:
            p = make_params(d, ell_o=2.0, R=math.sqrt(d) / 2.0)
        target = mv_student_t(d, nu=2.0)
        cfg = KernelConfig(kind, h=1.5)
        stepped = 0

        def counting(x, x_prime, ell_o):
            nonlocal stepped
            stepped += 1
            return stepping_out(x, x_prime, ell_o)

        monkeypatch.setattr("brightside.kernels.stepping_out", counting)
        outs = run_chains(cfg, p, target, np.ones(d), 400, burnin=200, seed=22,
                          n_chains=n)
        assert (stepped > 50) == (kind == "scs")
        assert len({o.step_size_trace[-1] for o in outs}) == n
        for i, ens in enumerate(outs):
            one = run_chain(cfg, p, target, np.ones(d), 400, burnin=200,
                            seed=derive_chain_seed(22, i))
            assert ens.seed == one.seed
            assert ens.samples.shape == one.samples.shape == (200, d)
            assert ens.samples.tobytes() == one.samples.tobytes()
            assert np.allclose(ens.step_size_trace, one.step_size_trace,
                               rtol=1e-10, atol=0.0)
            assert ens.acceptance_rate == one.acceptance_rate

    @pytest.mark.parametrize("kind", ["scs", "sps"])
    def test_ensemble_only_from_min_chains(self, kind, monkeypatch):
        # below the threshold each chain runs alone, as run_chain does;
        # from it on every transition's Metropolis test, an scs
        # independence step's included, takes all the chains together
        d = 2
        p = (make_params(d, ell_o=1.1) if kind == "scs"
             else make_params(d, ell_o=2.0, R=1.0))
        batch = []

        def record(u, lp, lp_new, *parts):
            batch.append(np.size(lp_new))
            return metropolis(u, lp, lp_new, *parts)

        monkeypatch.setattr("brightside.kernels.metropolis", record)
        n = SPHERE_ENSEMBLE_MIN_CHAINS
        for n_chains, width in ((n - 1, 1), (n, n)):
            batch.clear()
            run_chains(KernelConfig(kind, h=0.5), p, mv_student_t(d, nu=1.0),
                       np.ones(d), 30, seed=31, n_chains=n_chains)
            assert set(batch) == {width}
            assert len(batch) == 30 * n_chains // width

    def test_per_chain_inits(self):
        p = make_params(2, ell_o=1.1)
        target = mv_student_t(2, nu=1.0)
        cfg = KernelConfig("scs", h=0.5)
        n = SPHERE_ENSEMBLE_MIN_CHAINS
        inits = np.random.default_rng(23).standard_normal((n, 2)) * 3.0
        for n_chains in (n - 1, n):  # one after another, then one ensemble
            outs = run_chains(cfg, p, target, inits[:n_chains], 50, seed=23,
                              n_chains=n_chains)
            for i, ens in enumerate(outs):
                one = run_chain(cfg, p, target, inits[i], 50,
                                seed=derive_chain_seed(23, i))
                assert ens.samples.tobytes() == one.samples.tobytes()
        for bad in (inits[:2], inits[:, :1], np.ones(3)):
            with pytest.raises(ValueError, match="init must have shape"):
                run_chains(cfg, p, target, bad, 50, seed=23, n_chains=3)

    def test_nonfinite_density_row_rejected_alone(self):
        # the density is NaN in the half-space y_0 > 5, where row 1
        # stands: each row is handed one uniform, row 1 the smallest
        # positive one, and that row alone is rejected, as in the
        # one-chain branch, while the other rows move
        class NanPatch(Gauss):
            dim = 2

            def log_density(self, y):
                y = np.asarray(y)
                return np.where(y[..., 0] > 5.0, np.nan, -0.5 * np.sum(y * y, axis=-1))

        target = NanPatch()
        p = make_params(2, ell_o=1.1)
        y = np.array([[0.0, 0.0], [10.0, 0.0], [0.5, 0.5]])
        x = scp_inverse(y, p)
        y, logjac, _, _ = cap_forward(x, p)
        logpost = logjac + np.nan_to_num(target.log_density(y))
        rng = np.random.default_rng(24)
        z = rng.standard_normal((3, 3))
        u = np.array([rng.random(), 5e-324, rng.random()])
        x_new, y_new, lp_new, accepted = sphere_step(
            x, y, logpost, np.full(3, 1e-3), p, target, z, u)
        assert accepted.tolist() == [True, False, True]
        assert np.array_equal(x_new[1], x[1]) and np.array_equal(y_new[1], y[1])
        assert lp_new[1] == logpost[1]
        assert np.all(y_new[[0, 2]] != y[[0, 2]])
        one = sphere_step(x[1], y[1], float(logpost[1]), 1e-3, p, target, z[1], u[1])
        assert one[3] is False

    def test_nonfinite_proposal_rejected_alone(self):
        # three chains are each offered a proposal 10 nats uphill, with
        # the smallest positive uniform; row 1's proposal has a NaN
        # density and row 2's +inf, and only those two stay, in the batch
        # as in the one-chain branch
        p = make_params(2, ell_o=1.1)
        rng = np.random.default_rng(25)
        x = scp_inverse(rng.standard_normal((3, 2)), p)
        x_new = scp_inverse(rng.standard_normal((3, 2)), p)
        y, y_new = scp_forward(x, p), scp_forward(x_new, p)
        logpost = np.array([-5.0, -5.0, -5.0])
        lp_new = np.array([5.0, np.nan, np.inf])
        u = np.full(3, 5e-324)
        out, accepted = metropolis(u, logpost, lp_new, (x, y, logpost), (x_new, y_new, lp_new))
        assert accepted.tolist() == [True, False, False]
        assert np.array_equal(out[0][0], x_new[0]) and np.array_equal(out[1][0], y_new[0])
        assert np.array_equal(out[0][1:], x[1:]) and np.array_equal(out[1][1:], y[1:])
        assert out[2].tolist() == [5.0, -5.0, -5.0]
        for i, accepted in enumerate((True, False, False)):
            state, proposal = (x[i], y[i], -5.0), (x_new[i], y_new[i], float(lp_new[i]))
            picked, acc = metropolis(5e-324, -5.0, float(lp_new[i]), state, proposal)
            assert acc is accepted and picked is (proposal if accepted else state)

    def test_degenerate_row_rejected_alone(self):
        # row 0 stands 1e-9 below the dark cap and steps 1e-8 up along
        # its tangent: the proposal is dark but coincident with the
        # state (s^2 ~ 1e-16); each row is handed one uniform, row 0
        # the smallest positive one, and that row alone is rejected, in
        # the batch as in the one-chain branch
        p = make_params(1, ell_o=1.5)
        target = uniform_cap_pullback(p)
        theta = math.asin(0.5 - 1e-9)
        x = np.array([[math.cos(theta), math.sin(theta)], [1.0, 0.0]])
        z = np.array([1e-8 * np.array([-math.sin(theta), math.cos(theta)]), [0.0, 0.1]])
        u = np.array([5e-324, 0.5])
        y, logjac, _, _ = cap_forward(x, p)
        logpost = logjac + target.log_density(y)
        x_new, _, _, accepted = sphere_step(x, y, logpost, np.ones(2), p, target, z, u)
        assert accepted.tolist() == [False, True]
        assert np.array_equal(x_new[0], x[0]) and not np.array_equal(x_new[1], x[1])
        one = sphere_step(x[0], y[0], float(logpost[0]), 1.0, p, target, z[0], u[0])
        assert one[3] is False

    def test_ensemble_abort_carries_partial_chains(self):
        # one density call at the start and one per SCS transition; with
        # the move, one more for the pilot before the first step and one
        # at step 2 for the block of tries that serves steps 2-20.  Pure
        # SCS: call 7 falls in transition 6, after five kept samples.
        # With the move: call 7 falls in transition 7, after six; a limit
        # of 3 calls aborts in the tries' own call, at step 2, and a limit
        # of 1 in the pilot's, as step 1's draws are read
        class Fails:
            dim = 4
            has_gradient = False

            def __init__(self, limit):
                self.calls, self.limit = 0, limit

            def log_density(self, y):
                self.calls += 1
                if self.calls > self.limit:
                    raise FloatingPointError("density blew up")
                return -0.5 * np.sum(np.asarray(y) ** 2, axis=-1)

        n = SPHERE_ENSEMBLE_MIN_CHAINS
        for every, limit, kept, step in ((0, 6, 5, 6), (2, 6, 6, 7), (2, 3, 1, 2),
                                         (2, 1, 0, 1)):
            cfg = KernelConfig("scs", h=0.5, independence_every=every)
            with pytest.raises(ChainAborted, match=f"at iteration {step}:") as info:
                run_chains(cfg, make_params(4, ell_o=1.1), Fails(limit), np.ones(4), 20,
                           seed=27, n_chains=n)
            partial = info.value.partial
            assert [o.seed for o in partial] == [derive_chain_seed(27, i) for i in range(n)]
            for o in partial:
                assert not o.valid and o.samples.shape == (kept, 4)


class TestRwmStep:
    def test_uphill_always_accepted(self):
        # a flat target makes every proposal level with the state
        class Flat:
            dim = 2

            def log_density(self, y):
                return np.zeros(np.shape(y)[:-1])

            has_gradient = False

        out = run_chain(KernelConfig("rwm", h=0.5), None, Flat(), np.zeros(2),
                        500, seed=10)
        assert out.acceptance_rate == 1.0

    def test_tiny_steps_accepted(self):
        target = mv_student_t(3, nu=2.0)
        out = run_chain(KernelConfig("rwm", h=1e-4), None, target, np.zeros(3),
                        1000, seed=11)
        assert out.acceptance_rate >= 0.99

    def test_rejected_returns_input(self):
        class Wall:
            dim = 1

            def log_density(self, y):
                y = np.asarray(y)
                return np.where(np.abs(y[..., 0]) < 1e-9, 0.0, -1e12)

            has_gradient = False

        out = run_chain(KernelConfig("rwm", h=1.0), None, Wall(), np.zeros(1),
                        100, seed=12)
        assert out.acceptance_rate == 0.0
        assert np.all(out.samples == 0.0)


class Gauss(TargetModel):
    """Standard normal target in four dimensions."""

    dim = 4

    def log_density(self, y):
        y = np.asarray(y)
        return -0.5 * np.sum(y * y, axis=-1)

    def grad_log_density(self, y):
        return -np.asarray(y)


class TestHmc:
    def test_leapfrog_reversibility(self):
        target = mv_student_t(3, nu=2.0)
        grad = target.grad_log_density
        rng = np.random.default_rng(13)
        y = rng.standard_normal(3)
        mom = rng.standard_normal(3)
        y1, m1, logp1, g1 = leapfrog(y, mom, 0.05, 20, target, grad(y))
        assert np.array_equal(g1, grad(y1))
        assert logp1 == target.log_density(y1)
        y2, m2, _, _ = leapfrog(y1, -m1, 0.05, 20, target, g1)
        assert np.allclose(y2, y, atol=1e-10)
        assert np.allclose(-m2, mom, atol=1e-10)

    def test_gaussian_energy_error(self):
        target = Gauss()
        grad = target.grad_log_density
        rng = np.random.default_rng(14)
        errors = []
        accepted = 0
        y = rng.standard_normal(4)
        logp, g = target.log_density(y), grad(y)
        for _ in range(1000):
            mom = rng.standard_normal(4)
            h0 = -float(target.log_density(y)) + 0.5 * float(mom @ mom)
            y1, m1, _, _ = leapfrog(y, mom, 0.01, 10, target, g)
            h1 = -float(target.log_density(y1)) + 0.5 * float(m1 @ m1)
            errors.append(abs(h1 - h0))
            y, logp, g, acc = hmc_step(y, logp, g, 0.01, 10, target,
                                       rng.standard_normal(4), rng.random())
            accepted += acc
        assert np.median(errors) < 1e-3
        assert accepted / 1000 > 0.99

    def test_nonfinite_gradient_rejects(self):
        class Bad(TargetModel):
            dim = 1

            def log_density(self, y):
                return 0.0

            def grad_log_density(self, y):
                return np.array([np.nan])

        rng = np.random.default_rng(15)
        y = np.zeros(1)
        bad = Bad()
        y_new, _, _, accepted = hmc_step(y, bad.log_density(y), bad.grad_log_density(y),
                                         0.1, 5, bad, rng.standard_normal(1), rng.random())
        assert not accepted and np.array_equal(y_new, y)

    def test_ensemble_matches_single_chains(self):
        # run_chains steps the four chains as one batch; chain i must
        # follow run_chain with the derived seed, step sizes included
        cfg = KernelConfig("hmc", h=0.3, leapfrog_steps=5,
                           target_accept=HMC_TARGET_ACCEPT)
        outs = run_chains(cfg, None, Gauss(), np.ones(4), 200, burnin=100,
                          seed=16, n_chains=4)
        assert len({o.step_size_trace[-1] for o in outs}) == 4
        for i, ens in enumerate(outs):
            one = run_chain(cfg, None, Gauss(), np.ones(4), 200, burnin=100,
                            seed=derive_chain_seed(16, i))
            assert ens.seed == one.seed
            assert ens.samples.shape == one.samples.shape == (100, 4)
            assert ens.samples.tobytes() == one.samples.tobytes()
            assert np.allclose(ens.step_size_trace, one.step_size_trace,
                               rtol=1e-10, atol=0.0)
            assert ens.acceptance_rate == one.acceptance_rate

    def test_student_t_ensemble_matches_single_chains(self):
        # one chain's Student t runs in plain floats, an ensemble's rows
        # through np.vecdot; chain i must still follow run_chain
        target = mv_student_t(10, nu=1.0)
        cfg = KernelConfig("hmc", h=0.3, leapfrog_steps=5, adapt_burnin=0)
        outs = run_chains(cfg, None, target, np.ones(10), 200, burnin=100,
                          seed=18, n_chains=4)
        for i, ens in enumerate(outs):
            one = run_chain(cfg, None, target, np.ones(10), 200, burnin=100,
                            seed=derive_chain_seed(18, i))
            assert ens.samples.tobytes() == one.samples.tobytes()
            assert ens.acceptance_rate == one.acceptance_rate
            assert 0.0 < one.acceptance_rate < 1.0

    def test_adapted_ensemble_matches_single_chains_bit_for_bit(self):
        # adaptation multiplies each step size by one of two math.exp
        # factors, so an ensemble row keeps its chain's bits; an ulp
        # apart, the Cauchy's trajectories drift to 6e-6 within 100 steps
        # at seed 18
        target = mv_student_t(10, nu=1.0)
        cfg = KernelConfig("hmc", h=0.3, leapfrog_steps=5)
        for seed in range(16, 36):
            outs = run_chains(cfg, None, target, np.ones(10), 200, burnin=100,
                              seed=seed, n_chains=4)
            for i, ens in enumerate(outs):
                one = run_chain(cfg, None, target, np.ones(10), 200, burnin=100,
                                seed=derive_chain_seed(seed, i))
                assert ens.step_size_trace.tobytes() == one.step_size_trace.tobytes()
                assert ens.samples.tobytes() == one.samples.tobytes()

    @pytest.mark.parametrize("link", ["logit", "robit"])
    def test_regression_ensemble_matches_single_chains_bit_for_bit(self, link):
        # the posterior's batch rows are its points alone, so a 6-chain
        # ensemble's rows follow run_chain with every step size adapted
        target = binary_regression_posterior(generate_separable_data(
            30, 5, np.random.default_rng(0), link=link, link_nu=3.0))
        cfg = KernelConfig("hmc", h=0.1, leapfrog_steps=5)
        outs = run_chains(cfg, None, target, np.ones(5), 150, burnin=50, seed=7,
                          n_chains=6)
        for i, ens in enumerate(outs):
            one = run_chain(cfg, None, target, np.ones(5), 150, burnin=50,
                            seed=derive_chain_seed(7, i))
            assert ens.samples.tobytes() == one.samples.tobytes()

    @pytest.mark.parametrize("target", [mv_student_t(100, nu=1.0), Gauss()],
                             ids=["cauchy-d100", "gauss"])
    def test_velocity_form_matches_momentum_form(self, target):
        # the textbook leapfrog: a half kick, then drifts and full kicks
        # in turn, and a last half kick, all in the momentum
        def momentum_leapfrog(y, p, eps, steps):
            p = p + 0.5 * eps * target.grad_log_density(y)
            for i in range(steps):
                y = y + eps * p
                p = p + (eps if i < steps - 1 else 0.5 * eps) * target.grad_log_density(y)
            return y, p

        def close(a, b):
            err = np.linalg.norm(a - b, axis=-1)
            return np.all(err <= 1e-12 * np.linalg.norm(b, axis=-1))

        rng = np.random.default_rng(19)
        d = target.dim
        for y, p, eps in ((rng.standard_normal(d), rng.standard_normal(d), 0.1),
                          (rng.standard_normal((4, d)), rng.standard_normal((4, d)),
                           np.array([[0.02], [0.1], [0.3], [0.6]]))):
            y1, p1, logp1, g1 = leapfrog(y, p, eps, 10, target, target.grad_log_density(y))
            y_ref, p_ref = momentum_leapfrog(y, p, eps, 10)
            assert close(y1, y_ref) and close(p1, p_ref)
            assert np.array_equal(logp1, target.log_density(y1))
            assert np.array_equal(g1, target.grad_log_density(y1))

    def test_nonfinite_row_rejected_alone(self):
        # the gradient is NaN in the half-space y_0 > 5, where row 1
        # starts: each row is handed one uniform, row 1 the smallest
        # positive one, and that row alone is rejected, as in the
        # one-chain branch, while the other rows move
        class NanPatch(Gauss):
            def grad_log_density(self, y):
                y = np.asarray(y)
                return np.where(y[..., :1] > 5.0, np.nan, -y)

        target = NanPatch()
        y = np.zeros((3, 4))
        y[1, 0] = 10.0
        rng = np.random.default_rng(17)
        z = rng.standard_normal((3, 4))
        u = np.array([rng.random(), 5e-324, rng.random()])
        y_new, logp, g, accepted = hmc_step(
            y, target.log_density(y), target.grad_log_density(y),
            np.full(3, 0.1), 5, target, z, u)
        assert accepted.tolist() == [True, False, True]
        assert np.array_equal(y_new[1], y[1])
        assert np.all(y_new[[0, 2]] != 0.0)
        assert logp[1] == target.log_density(y[1])
        assert np.all(np.isnan(g[1]))
        one = hmc_step(y[1], target.log_density(y[1]), target.grad_log_density(y[1]),
                       0.1, 5, target, z[1], u[1])
        assert one[3] is False

    def test_ensemble_abort_carries_partial_chains(self):
        # one gradient call at the start and five per transition: call
        # 31 falls in transition 6, after five kept samples
        class Fails(Gauss):
            calls = 0

            def grad_log_density(self, y):
                self.calls += 1
                if self.calls > 30:
                    raise FloatingPointError("gradient blew up")
                return -np.asarray(y)

        cfg = KernelConfig("hmc", h=0.2, leapfrog_steps=5)
        with pytest.raises(ChainAborted) as info:
            run_chains(cfg, None, Fails(), np.ones(4), 20, seed=20, n_chains=3)
        partial = info.value.partial
        assert [o.seed for o in partial] == [derive_chain_seed(20, i) for i in range(3)]
        for o in partial:
            assert not o.valid and o.samples.shape == (5, 4)


class TestZeroUniform:
    """A uniform draw of exactly 0 has log -inf: every proposal with a
    finite log ratio is accepted, and one with ratio -inf is not.

    The current log density is handed in 1e6 above the proposal's, a
    ratio no positive uniform accepts (log 5e-324 = -744.4).  Every
    kernel reaches the rule through ``metropolis``: the sphere steps,
    hmc_step with -H and the rwm step in the chain loop.
    """

    def test_metropolis(self):
        state, proposal = (np.zeros(3), 1e6), (np.ones(3), 0.0)
        for u, accepted in ((0.0, True), (5e-324, False)):
            picked, acc = metropolis(u, 1e6, 0.0, state, proposal)
            assert acc is accepted and picked is (proposal if accepted else state)
            rows, acc = metropolis(np.full(2, u), np.full(2, 1e6), np.zeros(2),
                                   (np.zeros(2),), (np.ones(2),))
            assert acc.tolist() == [accepted] * 2
            assert rows[0].tolist() == [float(accepted)] * 2
        assert metropolis(0.0, 0.0, -math.inf, state, proposal) == (state, False)
        assert metropolis(0.0, -math.inf, -1e300, state, proposal) == (proposal, True)

    @staticmethod
    def sphere_states(n=None):
        p = make_params(3, ell_o=1.1)
        rng = np.random.default_rng(21)
        x = scp_inverse(rng.standard_normal((n or 1, 3)), p)
        z = rng.standard_normal(x.shape)
        if n is None:
            return p, x[0], scp_forward(x[0], p), z[0]
        return p, x, scp_forward(x, p), z

    class Nowhere(TargetModel):
        dim = 3

        def log_density(self, y):
            return np.full(np.shape(y)[:-1], -np.inf)

    def test_sphere_step_one_chain(self):
        p, x, y, z = self.sphere_states()
        target = mv_student_t(3, nu=1.0)
        for u, accepted in ((0.0, True), (5e-324, False)):
            assert sphere_step(x, y, 1e6, 0.5, p, target, z, u)[3] is accepted
        assert sphere_step(x, y, 0.0, 0.5, p, self.Nowhere(), z, 0.0)[3] is False

    def test_sphere_step_ensemble(self):
        p, x, y, z = self.sphere_states(4)
        target = mv_student_t(3, nu=1.0)
        h, logpost = np.full(4, 0.5), np.full(4, 1e6)
        for u, accepted in ((0.0, True), (5e-324, False)):
            out = sphere_step(x, y, logpost, h, p, target, z, np.full(4, u))
            assert out[3].tolist() == [accepted] * 4
        out = sphere_step(x, y, np.zeros(4), h, p, self.Nowhere(), z, np.zeros(4))
        assert not out[3].any()

    def test_hmc_step(self):
        target = mv_student_t(3, nu=1.0)
        rng = np.random.default_rng(22)
        y, z = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        g = target.grad_log_density(y)
        for u, accepted in ((0.0, True), (5e-324, False)):
            assert hmc_step(y[0], 1e6, g[0], 0.1, 5, target, z[0], u)[3] is accepted
            out = hmc_step(y, np.full(4, 1e6), g, np.full(4, 0.1), 5, target, z,
                           np.full(4, u))
            assert out[3].tolist() == [accepted] * 4

    def test_rwm_through_run_chain(self, monkeypatch):
        # the first step draws u = 0 and moves 1e6 down a steep well; the
        # later steps keep their draws
        draws = kernels._draws

        def first_uniform_zero(*args):
            tries, rho, steps = draws(*args)

            def zeroed():
                z, _, move = next(steps)
                first.append(z)
                yield z, 0.0, move
                yield from steps
            return tries, rho, zeroed()

        class Well(TargetModel):
            dim = 2

            def log_density(self, y):
                y = np.asarray(y)
                return -1e6 * np.sum(y * y, axis=-1)

        first = []
        monkeypatch.setattr(kernels, "_draws", first_uniform_zero)
        out = run_chain(KernelConfig("rwm", h=1.0), None, Well(), np.zeros(2), 5,
                        seed=23)
        assert np.array_equal(out.samples[0], first[0])


class TestAdaptStepSize:
    def test_all_accept_increases(self):
        h = 0.1
        for t in range(1, 50):
            h_new = adapt_step_size(h, True, t, 0.234)
            assert h_new > h
            h = h_new

    def test_all_reject_decreases(self):
        h = 0.1
        for t in range(1, 50):
            h_new = adapt_step_size(h, False, t, 0.234)
            assert h_new < h
            h = h_new

    @pytest.mark.parametrize("n_chains", [1, SPHERE_ENSEMBLE_MIN_CHAINS])
    def test_step_size_stops_at_the_upper_clamp(self, n_chains):
        # on the uniform pullback every SCS proposal is accepted, and the
        # recursion would grow the step size past 1e15 in 1 500 steps
        p = make_params(2, ell_o=1.1)
        cfg = KernelConfig("scs", h=0.5, independence_every=0)
        for out in run_chains(cfg, p, uniform_cap_pullback(p), np.zeros(2), 1501,
                              burnin=1500, seed=3, n_chains=n_chains):
            assert out.step_size_trace.max() == out.step_size_trace[-1] == 1e10

    def test_step_size_stops_at_the_lower_clamp(self):
        # every rwm proposal off the point mass lands at NaN and is
        # rejected; the recursion shrinks the step size to 1e-10 and no
        # further
        class PointMass(TargetModel):
            dim = 2

            def log_density(self, y):
                return np.where(np.all(np.asarray(y) == 0.0, axis=-1), 0.0, np.nan)

        out = run_chain(KernelConfig("rwm", h=0.5), None, PointMass(), np.zeros(2),
                        11001, burnin=11000, seed=3)
        assert out.acceptance_rate == 0.0
        assert out.step_size_trace.min() == out.step_size_trace[-1] == 1e-10


class TestRunChain:
    def test_seed_determinism(self):
        target = mv_student_t(2, nu=1.0)
        p = make_params(2, ell_o=1.1)
        cfg = KernelConfig(kind="scs", h=0.5)
        a = run_chain(cfg, p, target, np.zeros(2), 2000, burnin=200, seed=42)
        b = run_chain(cfg, p, target, np.zeros(2), 2000, burnin=200, seed=42)
        assert np.array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate
        assert np.array_equal(a.step_size_trace, b.step_size_trace)

    def test_kept_sample_count(self):
        target = mv_student_t(1, nu=1.0)
        p = make_params(1, ell_o=1.1)
        cfg = KernelConfig(kind="scs", h=0.5)
        out = run_chain(cfg, p, target, np.zeros(1), 1003, burnin=100,
                        thinning=7, seed=1)
        assert out.samples.shape == ((1003 - 100) // 7, 1)

    def test_all_kernels_run(self):
        target = mv_student_t(2, nu=2.0)
        p = make_params(2, ell_o=1.1)
        sps_p = make_params(2, ell_o=2.0, R=math.sqrt(2.0) / 2.0)
        for kind, prm, h in (("scs", p, 0.5), ("sps", sps_p, 0.5),
                             ("rwm", None, 0.8), ("hmc", None, 0.1)):
            cfg = KernelConfig(kind=kind, h=h)
            out = run_chain(cfg, prm, target, np.ones(2), 500, burnin=100,
                            seed=3)
            assert out.samples.shape == (400, 2)
            assert 0.0 <= out.acceptance_rate <= 1.0
            assert out.valid
            # only scs takes the independence move
            assert math.isnan(out.independence_acceptance) == (kind != "scs")

    def test_nan_step_size_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig("rwm", h=math.nan)

    @pytest.mark.parametrize("field, value", [
        ("h", math.inf), ("h", -math.inf), ("adapt_burnin", -5),
        ("adapt_burnin", 2.5), ("adapt_burnin", math.nan), ("adapt_burnin", True),
        ("independence_every", True), ("independence_every", -1),
        ("independence_every", 2.0), ("independence_every", None),
        ("leapfrog_steps", 2.5), ("leapfrog_steps", True)])
    def test_bad_step_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            KernelConfig("scs", **{field: value})

    def test_step_settings_callers_pass_accepted(self):
        for burn in (None, 0, 5, np.int64(5)):
            assert KernelConfig("hmc", h=0.1, adapt_burnin=burn).adapt_burnin == burn
        for every in (0, 1, 3, np.int64(2)):
            assert KernelConfig("scs", independence_every=every).independence_every == every
        for steps in (1, 10, np.int64(5)):
            assert KernelConfig("hmc", leapfrog_steps=steps).leapfrog_steps == steps

    @pytest.mark.parametrize("field, value", [
        ("iterations", 100.9), ("iterations", "100"), ("iterations", True),
        ("burnin", 10.7), ("burnin", -1), ("thinning", 2.5), ("thinning", 0),
        ("n_chains", 2.5), ("n_chains", 0), ("n_chains", True)])
    def test_bad_chain_lengths_rejected(self, field, value):
        # 100.9 iterations with burn-in 10.7 and thinning 2.5 once ran
        # 100, 10 and 2, '100' iterations ran, and 2.5 chains raised a
        # bare TypeError; rwm chains run one after another through
        # run_chain, hmc ones as an ensemble
        lengths = {"iterations": 100, "burnin": 10, "thinning": 2, field: value}
        n_chains = lengths.pop("n_chains", 2)
        target = mv_student_t(2, nu=1.0)
        for kind in ("rwm", "hmc"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                run_chains(KernelConfig(kind, h=0.3), None, target, np.zeros(2), seed=1,
                           n_chains=n_chains, **lengths)

    def test_negative_seed_raises_value_error(self):
        # the chain loop turns its errors into ChainAborted, and an scs
        # chain's pilot runs inside it; the seed is checked before it,
        # alone and in an ensemble
        d = 2
        p = make_params(d, ell_o=1.1)
        target = mv_student_t(d, nu=1.0)
        cfg = KernelConfig("scs", h=0.5)
        seeds = [derive_chain_seed(1, i) for i in range(SPHERE_ENSEMBLE_MIN_CHAINS - 1)]
        for run in (lambda: run_chain(cfg, p, target, np.zeros(d), 10, seed=-1),
                    lambda: run_chains(cfg, p, target, np.zeros(d), 10, seed=-1,
                                       n_chains=SPHERE_ENSEMBLE_MIN_CHAINS),
                    lambda: kernels._drive(cfg, p, target, np.zeros((len(seeds) + 1, d)),
                                           10, 0, 1, seeds + [-1])):
            with pytest.raises(ValueError) as info:
                run()
            assert not isinstance(info.value, ChainAborted)

    @pytest.mark.parametrize("seed", [2.5, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        # run_chains once ran seed 2.5 as seed 2, run_chain raised a raw
        # TypeError from numpy, and both ran True as seed 1
        p, target = make_params(2, ell_o=1.1), mv_student_t(2, nu=1.0)
        cfg = KernelConfig("scs", h=0.5)
        for run in (lambda: run_chain(cfg, p, target, np.zeros(2), 10, seed=seed),
                    lambda: run_chains(cfg, p, target, np.zeros(2), 10, seed=seed),
                    lambda: run_chains(cfg, p, target, np.zeros(2), 10, seed=seed,
                                       n_chains=SPHERE_ENSEMBLE_MIN_CHAINS),
                    lambda: derive_chain_seed(seed, 0),
                    lambda: derive_chain_seed(0, seed)):
            with pytest.raises(ValueError, match="must be an integer"):
                run()

    def test_numpy_integer_seed_runs_as_int(self):
        p, target = make_params(2, ell_o=1.1), mv_student_t(2, nu=1.0)
        cfg = KernelConfig("scs", h=0.5)
        for seed in (np.int64(3), np.uint32(3)):
            one = run_chain(cfg, p, target, np.zeros(2), 50, seed=seed)
            assert np.array_equal(one.samples, run_chain(cfg, p, target, np.zeros(2),
                                                         50, seed=3).samples)
            many = run_chains(cfg, p, target, np.zeros(2), 50, seed=seed, n_chains=2)
            want = run_chains(cfg, p, target, np.zeros(2), 50, seed=3, n_chains=2)
            for got, ref in zip(many, want):
                assert np.array_equal(got.samples, ref.samples)
            assert derive_chain_seed(seed, np.int64(1)) == derive_chain_seed(3, 1)

    def test_sps_start_rounding_onto_north_pole_raises(self):
        # at the stereographic latitude the observer sits at the north
        # pole; a start at 1e12 inverts onto it, one at 1e8 does not
        d = 10
        target = mv_student_t(d, nu=1.0)
        p = make_params(d, ell_o=2.0, R=math.sqrt(d) / 2.0)
        cfg = KernelConfig(kind="sps", h=0.5)
        direction = np.ones(d) / math.sqrt(d)
        for run in (lambda y: run_chain(cfg, p, target, y, 5, seed=1),
                    lambda y: run_chains(cfg, p, target, y, 5, seed=1,
                                         n_chains=SPHERE_ENSEMBLE_MIN_CHAINS)):
            with pytest.raises(DarkSidePoint):
                run(1e12 * direction)
            run(1e8 * direction)

    def test_far_start_tying_with_observer_latitude_raises(self):
        # far out 1 - M rounds to 1, and the lift lands on the observer
        # latitude or an ulp above it at every ell_o, not only at the pole
        d = 10
        p = make_params(d, ell_o=1.1)
        calls = []

        class Watched:
            dim = d
            has_gradient = False

            def log_density(self, y):
                calls.append(y)
                return mv_student_t(d, nu=1.0).log_density(y)

        cfg = KernelConfig("scs", h=0.5)
        tie, above = np.full(d, 1e20), np.full(d, 1e30)
        assert scp_inverse(tie, p)[-1] == p.ell_o - 1.0
        assert scp_inverse(above, p)[-1] > p.ell_o - 1.0
        for start in (tie, above):
            with pytest.raises(DarkSidePoint):
                run_chain(cfg, p, Watched(), start, 5, seed=1)
            for n_chains in (2, SPHERE_ENSEMBLE_MIN_CHAINS):
                with pytest.raises(DarkSidePoint):
                    run_chains(cfg, p, Watched(), start, 5, seed=1, n_chains=n_chains)
        # raised before the start's density, so before the first step
        assert calls == []
        run_chain(cfg, p, Watched(), np.full(d, 1e8), 5, seed=1)
        assert calls

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_nonfinite_init_raises_typed(self, kind, bad):
        # rwm and hmc once ran such a start to the end and returned
        # valid chains of NaN samples
        d = 3
        p = make_params(d, ell_o=2.0 if kind == "sps" else 1.1)
        cfg = KernelConfig(kind, h=0.3)
        target = mv_student_t(d, nu=1.0)
        init = np.ones(d)
        init[1] = bad
        with pytest.raises(NonfiniteInput):
            run_chain(cfg, p, target, init, 10, seed=0)
        for n_chains in (2, SPHERE_ENSEMBLE_MIN_CHAINS):
            inits = np.ones((n_chains, d))
            inits[-1, 0] = bad
            for start in (init, inits):
                with pytest.raises(NonfiniteInput):
                    run_chains(cfg, p, target, start, 10, seed=0, n_chains=n_chains)

    @pytest.mark.parametrize("kind, every", WALLED_KINDS)
    def test_no_move_to_nonfinite_density(self, kind, every):
        # scs, sps and rwm once accepted a proposal at +inf and then
        # never moved again; no kernel may step into the +inf or the NaN
        # half-plane, alone or in an ensemble, and the chains still move
        n = 2 if kind == "hmc" else SPHERE_ENSEMBLE_MIN_CHAINS
        for n_chains in (1, n):
            for out in walled_run(kind, every, np.zeros(2), 2000, n_chains):
                y = out.samples
                assert not np.any(y[:, 0] > 2.0) and not np.any(y[:, 1] < -2.0)
                assert out.valid and out.acceptance_rate > 0.1
                assert len(np.unique(y[:, 0])) > 200

    @pytest.mark.parametrize("kind, every", WALLED_KINDS)
    def test_nonfinite_start_density_raises(self, kind, every):
        # a start at log density +inf or NaN can accept no proposal: it
        # raises before the first step; one at -inf leaves at its first
        # finite proposal
        n = 2 if kind == "hmc" else SPHERE_ENSEMBLE_MIN_CHAINS
        for start in ([3.0, 0.0], [0.0, -3.0]):
            for n_chains in (1, 2, n):
                with pytest.raises(NonfiniteInput, match="density"):
                    walled_run(kind, every, start, 10, n_chains)
        for n_chains in (1, n):
            for out in walled_run(kind, every, [-3.0, 0.0], 200, n_chains):
                assert np.isfinite(Walled().log_density(out.samples[-1]))

    @pytest.mark.parametrize("kind, ell_o", [("scs", 1.1), ("sps", 2.0)])
    def test_projection_dimension_mismatch_raises(self, kind, ell_o):
        p = make_params(2, ell_o=ell_o, R=1.0)
        target = mv_student_t(3, nu=1.0)
        for n_chains in (1, SPHERE_ENSEMBLE_MIN_CHAINS):
            with pytest.raises(ValueError, match="dimension 2 .* dimension 3"):
                run_chains(KernelConfig(kind), p, target, np.zeros(3), 10, n_chains=n_chains)

    def test_sps_requires_boundary_params(self):
        target = mv_student_t(2, nu=2.0)
        p = make_params(2, ell_o=1.1)
        with pytest.raises(ValueError):
            run_chain(KernelConfig(kind="sps"), p, target, np.zeros(2), 10)

    def test_adaptation_freezes_after_burnin(self):
        target = mv_student_t(2, nu=1.0)
        p = make_params(2, ell_o=1.1)
        cfg = KernelConfig(kind="scs", h=0.5)
        out = run_chain(cfg, p, target, np.zeros(2), 1000, burnin=300, seed=4)
        assert out.step_size_trace.shape == (301,)
        assert out.step_size_trace[-1] == out.step_size_trace[-2]

    def test_fixed_step_size_when_adapt_disabled(self):
        target = mv_student_t(2, nu=1.0)
        p = make_params(2, ell_o=1.1)
        cfg = KernelConfig(kind="scs", h=0.3, adapt_burnin=0)
        out = run_chain(cfg, p, target, np.zeros(2), 500, burnin=100, seed=5)
        assert np.all(out.step_size_trace == 0.3)

    def test_run_chains_parallel_deterministic(self):
        target = mv_student_t(2, nu=1.0)
        p = make_params(2, ell_o=1.1)
        cfg = KernelConfig(kind="scs", h=0.5)
        outs1 = run_chains(cfg, p, target, np.zeros(2), 600, burnin=100,
                           seed=9, n_chains=4, workers=4)
        outs2 = run_chains(cfg, p, target, np.zeros(2), 600, burnin=100,
                           seed=9, n_chains=4, workers=4)
        for a, b in zip(outs1, outs2):
            assert np.array_equal(a.samples, b.samples)
        seeds = {o.seed for o in outs1}
        assert len(seeds) == 4
        assert derive_chain_seed(9, 0) in seeds


class TestDraws:
    """A chain reads one normal row and one uniform a step, in blocks."""

    @staticmethod
    def runs():
        d = 3
        target = mv_student_t(d, nu=2.0)
        p = make_params(d, ell_o=1.1)
        outs = [run_chain(KernelConfig(kind, h=h), prm, target, np.ones(d), 150,
                          burnin=50, seed=5)
                for kind, prm, h in (("scs", p, 1.0), ("rwm", None, 1.0),
                                     ("hmc", None, 0.3))]
        return outs + run_chains(KernelConfig("scs", h=1.0), p, target, np.ones(d),
                                 150, burnin=50, seed=5,
                                 n_chains=SPHERE_ENSEMBLE_MIN_CHAINS)

    def test_block_size_never_changes_output(self, monkeypatch):
        # the scs chains take the independence move, whose proposals are
        # drawn and evaluated a block at a time too
        results = []
        for block in (1, 7, 64):
            monkeypatch.setattr("brightside.kernels._DRAW_BLOCK", block)
            results.append(self.runs())
        scs = [results[0][0]] + results[0][3:]
        assert all(0.0 < o.independence_acceptance < 1.0 for o in scs)
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.array_equal(a.samples, b.samples)
                assert np.array_equal(a.step_size_trace, b.step_size_trace)
                assert np.array_equal(a.independence_acceptance, b.independence_acceptance,
                                      equal_nan=True)

    def test_normal_and_uniform_streams_are_the_first_two_children(self):
        # spawning the third, proposal, child leaves a chain's step draws
        # as they were with two
        seed = derive_chain_seed(5, 0)
        normals, uniforms = (np.random.default_rng(c)
                             for c in np.random.SeedSequence(seed).spawn(2))
        tries, rho, draws = _draws(seed, 4, 100)
        for z, u, move in draws:
            assert np.array_equal(z, normals.standard_normal(4))
            assert u == uniforms.random() and move is None
        assert tries.tolist() == [0] and np.isnan(rho).all()

    def test_chain_proposes_the_same_alone_and_in_an_ensemble(self, monkeypatch):
        # move j's K tries are bright rows jK to jK + K - 1 of the third
        # child's normals, here drawn one row at a time; the pick is the
        # first try whose running weight passes u W, u the fourth child's
        # next uniform after its pilot; whatever the block and ensemble,
        # and with chains of 5, 5 and 8 tries side by side, a chain's
        # moves are the same bits alone as in the ensemble
        monkeypatch.setattr("brightside.kernels._DRAW_BLOCK", 7)
        d, count = 3, 30
        p = make_params(d, h_o=np.array([0.3, -0.2, 0.0]), ell_o=1.1, mu=0.3, R=4.0)
        target = mv_student_t(d, nu=2.0)
        seeds = [derive_chain_seed(5, i) for i in range(3)]
        tries, rho, steps = _draws(seeds, d + 1, count, 1, p, target)
        together = [move for _, _, move in steps]
        assert tries.tolist() == [5, 5, 8]
        assert len(together) == count
        for i, s in enumerate(seeds):
            tries_i, rho_i, steps_i = _draws(s, d + 1, count, 1, p, target)
            alone = [move for _, _, move in steps_i]
            assert tries_i.tolist() == [tries[i]]
            assert math.isclose(rho_i[0], rho[i], rel_tol=1e-12)
            children = np.random.SeedSequence(s).spawn(4)
            rows, picker = (np.random.default_rng(c) for c in children[2:])
            sample_uniform_cap(d, p.ell_o, picker, size=PILOT_POINTS)
            for move, move_i in zip(together, alone):
                xs = []
                while len(xs) < tries[i]:
                    g = rows.standard_normal(d + 1)
                    g /= math.sqrt(g @ g)
                    if g[-1] < p.ell_o - 1.0:
                        xs.append(g)
                y_ref, lp_ref, _, _ = cap_forward(np.array(xs), p)
                lp_ref += target.log_density(y_ref)
                w = np.exp(lp_ref - lp_ref.max())
                j = int(np.argmax(np.cumsum(w) > picker.random() * w.sum()))
                parts = [part[i] for part in move]
                for part, part_i in zip(parts, move_i):
                    assert np.array_equal(part, part_i)
                assert np.array_equal(parts[0], xs[j])
                assert np.allclose(parts[1], y_ref[j], rtol=1e-12, atol=0.0)
                assert all(isinstance(v, float) for v in move_i[2:])
                want = (lp_ref[j], lp_ref.max() + math.log(w.sum()),
                        lp_ref.max() + math.log(w.sum() - w[j]))
                assert np.allclose(move_i[2:], want, rtol=1e-12, atol=0.0)

    def test_chain_draws_the_same_alone_and_in_an_ensemble(self, monkeypatch):
        monkeypatch.setattr("brightside.kernels._DRAW_BLOCK", 7)
        seeds = [derive_chain_seed(5, i) for i in range(3)]
        together = _draws(seeds, 4, 30)[2]
        alone = [_draws(s, 4, 30)[2] for s in seeds]
        for z, u, move in together:
            assert z.shape == (3, 4) and u.shape == (3,) and move is None
            for i, draws in enumerate(alone):
                z_i, u_i, _ = next(draws)
                assert np.array_equal(z[i], z_i) and u[i] == u_i
                assert isinstance(u_i, float)


def _float_platform():
    """Digest of the elementwise maths and BLAS product a chain's bits rest on."""
    v = np.linspace(-30.0, 30.0, 4099)
    a = np.abs(v) + 1e-3
    m = np.cos(np.arange(64 * 101)).reshape(64, 101)
    parts = (np.exp(v), np.log(a), np.log1p(a), np.sqrt(a), np.arctan(v),
             m @ np.sin(np.arange(101.0)))
    return hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()


class Speck(TargetModel):
    """A d = 2 density finite only within 1e-3 of the origin, NaN elsewhere."""

    dim = 2

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(np.vecdot(y, y) < 1e-6, 0.0, np.nan)


class TestMultipleTry:
    """The independence move draws K tries and picks one by weight."""

    # The chain below, recorded before the move took more than one try:
    # sha256 of its samples, and of the maths under it on the machine
    # that recorded them (x86-64, numpy 2.4.6, OpenBLAS 0.3.31).
    SINGLE_TRY_SAMPLES = "c28d632902b4c6592a4611ab16250ed8fa39a60cee701af8ef23121c531a3929"
    RECORDED_PLATFORM = "6d057bdeffb0f557f3aa0b15fa4276041decb79a1260e99c1d6e83c74e0ca717"

    def test_single_try_keeps_the_single_proposal_bits(self):
        # on the untuned d = 100 Cauchy the pilot's relative ESS is about
        # 0.76, so the rule takes one try, and the chain is the one
        # proposal per move chain bit for bit
        if _float_platform() != self.RECORDED_PLATFORM:
            pytest.skip("numpy's exp, log or BLAS round differently here than "
                        "where the digest was recorded")
        d = 100
        out = run_chain(KernelConfig("scs", h=0.5), make_params(d, ell_o=1.1),
                        mv_student_t(d, nu=1.0), np.ones(d), 3000, burnin=300, seed=5)
        assert out.independence_tries == 1 and 0.6 < out.pilot_relative_ess < 0.9
        assert hashlib.sha256(out.samples.tobytes()).hexdigest() == self.SINGLE_TRY_SAMPLES

    def test_invariance_from_exact_draws(self, monkeypatch):
        # 1000 chains start at exact draws of a d = 2 Cauchy whose
        # projection is shifted by 2, so the pullback weights are uneven
        # and the rule takes 6-8 tries; after 60 steps, each one a move,
        # the final states must still look like the target
        monkeypatch.setattr("brightside.kernels._DRAW_BLOCK", 20)  # bounds memory only
        rng = np.random.default_rng(41)
        d, n_chains = 2, 1000
        target = mv_student_t(d, nu=1.0)
        inits = target.exact_sample(rng, size=n_chains)
        outs = run_chains(KernelConfig("scs", h=0.7, independence_every=1),
                          make_params(d, ell_o=1.1, mu=2.0), target, inits, 60,
                          seed=41, n_chains=n_chains)
        assert min(o.independence_tries for o in outs) >= 3
        assert 0.2 < np.mean([o.independence_acceptance for o in outs]) < 0.9
        finals = np.array([o.samples[-1] for o in outs])
        for j in range(d):
            ks = ks_statistic(finals[:, j], lambda t: student_t_cdf(t, 1.0))
            assert ks < 1.63 / math.sqrt(n_chains)

    def test_ensemble_with_different_tries_matches_single_chains(self):
        # the chains of one ensemble take 7, 5, 7, 7 and 4 tries; chain i
        # still follows run_chain with its derived seed
        d = 2
        p = make_params(d, ell_o=1.1, R=5.0)
        target = mv_student_t(d, nu=1.0)
        cfg = KernelConfig("scs", h=1.0)
        outs = run_chains(cfg, p, target, np.ones(d), 300, burnin=100, seed=2,
                          n_chains=SPHERE_ENSEMBLE_MIN_CHAINS)
        assert [o.independence_tries for o in outs] == [7, 5, 7, 7, 4]
        for i, ens in enumerate(outs):
            one = run_chain(cfg, p, target, np.ones(d), 300, burnin=100,
                            seed=derive_chain_seed(2, i))
            assert ens.independence_tries == one.independence_tries
            assert math.isclose(ens.pilot_relative_ess, one.pilot_relative_ess,
                                rel_tol=1e-12)
            assert ens.samples.tobytes() == one.samples.tobytes()
            assert ens.acceptance_rate == one.acceptance_rate
            assert ens.independence_acceptance == one.independence_acceptance
            assert 0.0 < one.independence_acceptance < 1.0

    def test_nonfinite_tries_never_picked(self):
        # Walled's density is +inf, NaN or -inf on three half-planes, and
        # at R = 2 more than half the tries land there; the rule takes 3
        # tries, and a move picks a finite one whenever it has one
        nonfinite = []

        class Counting(Walled):
            def log_density(self, y):
                out = Walled.log_density(self, y)
                nonfinite.append(int(np.size(out) - np.isfinite(out).sum()))
                return out

        p = make_params(2, ell_o=1.1, R=2.0)
        seeds = [derive_chain_seed(43, i) for i in range(3)]
        tries, _, steps = _draws(seeds, 3, 200, 1, p, Counting())
        picked = 0
        for _, _, (x, y, lp, total, others) in steps:
            some = np.isfinite(total)
            assert np.all(np.isfinite(lp[some]))
            assert np.allclose(lp[some], cap_forward(x[some], p)[1]
                               + Walled().log_density(y[some]), rtol=1e-12, atol=0.0)
            picked += some.sum()
        assert tries.tolist() == [3, 3, 3]
        assert picked > 300 and sum(nonfinite[1:]) > 900  # the moves' calls, past the pilot's

    def test_move_with_no_finite_try_rejected(self):
        # no try lands within 1e-3 of the origin, where the chains start:
        # the pilot has no weight, so the rule takes MAX_TRIES, and every
        # move has log W = -inf and is rejected, alone and in an ensemble
        p = make_params(2, ell_o=1.1)
        for seed in (44, [44, 45]):
            steps = _draws(seed, 3, 50, 1, p, Speck())[2]
            assert all(np.all(move[3] == -math.inf) for _, _, move in steps)
        for n_chains in (1, SPHERE_ENSEMBLE_MIN_CHAINS):
            outs = run_chains(KernelConfig("scs", independence_every=1), p, Speck(),
                              np.zeros(2), 100, seed=44, n_chains=n_chains)
            for out in outs:
                assert out.independence_tries == MAX_TRIES
                assert out.pilot_relative_ess == 0.0
                assert out.acceptance_rate == out.independence_acceptance == 0.0
                assert np.all(out.samples == 0.0)

    def test_no_tries_without_the_move(self):
        # sps, rwm, hmc and pure SCS take no move, report no tries and
        # draw no pilot
        d = 2
        target = mv_student_t(d, nu=1.0)
        for kind, p, every in (("scs", make_params(d, ell_o=1.1), 0),
                               ("scs", make_params(d, ell_o=1.1), 51),
                               ("sps", make_params(d, ell_o=2.0, R=1.0), 3),
                               ("rwm", None, 3), ("hmc", None, 3)):
            out = run_chain(KernelConfig(kind, independence_every=every), p, target,
                            np.ones(d), 50, seed=1)
            assert out.independence_tries == 0 and math.isnan(out.pilot_relative_ess)
        out = run_chain(KernelConfig("scs"), make_params(d, ell_o=1.1), target,
                        np.ones(d), 50, seed=1)
        assert out.independence_tries == 1 and 0.5 < out.pilot_relative_ess <= 1.0

    @pytest.mark.parametrize("n_chains", [1, 3])
    def test_nonfinite_start_gradient_raises(self, n_chains):
        # an hmc chain from a start whose gradient is NaN rejected every
        # trajectory and returned valid=True; it raises before the first
        # step, alone and as one row of an ensemble
        class NanSlope(TargetModel):
            dim = 2
            base = mv_student_t(2, nu=1.0)

            def log_density(self, y):
                return self.base.log_density(y)

            def grad_log_density(self, y):
                y = np.asarray(y)
                return np.where(y[..., :1] == 1.0, np.nan, self.base.grad_log_density(y))

        cfg = KernelConfig("hmc", h=0.3, leapfrog_steps=5)
        inits = np.zeros((n_chains, 2))
        inits[-1, 0] = 1.0
        with pytest.raises(NonfiniteInput, match="gradient"):
            run_chains(cfg, None, NanSlope(), inits, 10, seed=0, n_chains=n_chains)
        inits[-1, 0] = 0.5
        for out in run_chains(cfg, None, NanSlope(), inits, 10, seed=0, n_chains=n_chains):
            assert out.valid


class Cached(TargetModel):
    """A flat d = 2 density that returns cached read-only arrays.

    Every call of a method with the same batch shape gets the same array
    objects back, and a write into them raises; each method has its own,
    so the state's and the proposal's are different objects.  Row 1 of a
    batch is at -inf, so chain 1 of an ensemble rejects every proposal
    and the kernels select rows; the other rows are at 0 with gradient 0.
    """

    dim = 2

    def __init__(self):
        self.cache = {}

    def cached(self, method, shape):
        if (method, shape) not in self.cache:
            lp, g = np.zeros(shape[:-1]), np.zeros(shape)
            lp[1] = -math.inf
            lp.flags.writeable = g.flags.writeable = False
            self.cache[method, shape] = lp, g
        return self.cache[method, shape]

    def log_density_and_grad(self, y):
        return self.cached("both", np.shape(y))

    def log_density(self, y):
        return self.cached("value", np.shape(y))[0]

    def grad_log_density(self, y):
        return self.cached("grad", np.shape(y))[1]


class TestEnsembleWrites:
    """No transition writes an array it was handed."""

    def test_transitions_leave_their_inputs(self):
        # on Cached, row 1 is at -inf in every batch, so each n-chain
        # transition rejects that row and accepts others; whatever it
        # hands back, its inputs must come out as they went in
        rng = np.random.default_rng(50)
        n = 6
        p = make_params(2, ell_o=1.1)
        target = Cached()
        x = scp_inverse(rng.standard_normal((n, 2)), p)
        y, lp = kernels._pullback(x, p, target)
        logp, g = target.log_density(y), target.grad_log_density(y)
        z, u = rng.standard_normal((n, 3)), rng.random(n)
        for call, args in ((sphere_step, (x, y, lp, np.full(n, 1.5), p, target, z, u)),
                           (hmc_step, (y, logp, g, np.full(n, 0.2), 5, target, z[:, :2],
                                       u))):
            inputs = [a for a in args if isinstance(a, np.ndarray)]
            before = [a.copy() for a in inputs]
            accepted = call(*args)[-1]
            assert not accepted[1] and accepted.sum() > 1
            for a, b in zip(inputs, before):
                assert np.array_equal(a, b)
        # metropolis picks n chains' rows into new arrays and one chain's
        # parts as the very tuple it was handed, and writes no input
        x_new, y_new, lp_new = x + 1.0, y + 1.0, lp + 1.0
        state, proposal = (x, y, lp), (x_new, y_new, lp_new)
        inputs = (u, *state, *proposal)
        before = [a.copy() for a in inputs]
        out, accepted = metropolis(u, lp, lp_new, state, proposal)
        assert accepted.tolist() == [i != 1 for i in range(n)]
        assert len(out) == 3 and not any(a is b for a in out for b in inputs)
        for picked, old, new in zip(out, state, proposal):
            assert np.array_equal(picked[1], old[1])
            assert np.array_equal(np.delete(picked, 1, axis=0), np.delete(new, 1, axis=0))
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
        for i in range(n):
            one_state, one_proposal = tuple(a[i] for a in state), tuple(a[i] for a in proposal)
            picked, acc = metropolis(float(u[i]), float(lp[i]), float(lp_new[i]),
                                     one_state, one_proposal)
            assert acc is bool(accepted[i])
            assert picked is (one_proposal if acc else one_state)

    @pytest.mark.parametrize("kind", ["scs", "hmc"])
    def test_target_arrays_never_written(self, kind):
        # Cached hands back read-only arrays, so a write into one raises
        # and aborts the run; chain 1 starts at -inf and rejects every SCS
        # step and HMC trajectory, so rows are selected at every step.
        # The caller's start array must be left as it was too
        target = Cached()
        n = SPHERE_ENSEMBLE_MIN_CHAINS
        init = np.random.default_rng(51).standard_normal((n, 2))
        start = init.copy()
        cfg = (KernelConfig("scs", h=0.5, independence_every=2) if kind == "scs"
               else KernelConfig("hmc", h=0.3, leapfrog_steps=3))
        outs = run_chains(cfg, make_params(2, ell_o=1.1) if kind == "scs" else None,
                          target, init, 60, burnin=10, seed=52, n_chains=n)
        assert np.array_equal(init, start)
        # an scs chain 1 still takes independence moves, whose tries sit
        # in other rows
        assert outs[1].acceptance_rate <= (0.5 if kind == "scs" else 0.0)
        assert all(np.any(o.samples != start[i]) for i, o in enumerate(outs) if i != 1)
        for lp, g in target.cache.values():
            assert not lp.flags.writeable and not g.flags.writeable
            assert np.all(g == 0.0) and lp[1] == -math.inf
            assert np.all(np.delete(lp, 1) == 0.0)


class TestEnsembleBits:
    """Fixed-seed skew-t ensembles keep their recorded samples.

    The scs digest was recorded before the n-chain transitions selected
    their rows in place.  The hmc digest is that of the one-pass skew-t
    gradient with the skewing product a'z taken per row by
    ``np.vecdot``: the two-term sum of ``oracles.skew_t_grad_two_term``
    gave samples within 4e-12 of the one-pass form's, and a'z as a
    matrix-vector product, whose rows depend on the batch size, gave
    samples within 6e-10 of these, all at the same acceptance rates.  It
    was recorded again when the gradient's pdf/CDF ratio came from the
    t log-CDF's own evaluation in place of exp(log pdf - log CDF): the
    samples moved by at most 1.9e-9, at the same acceptance rates.
    """

    SCS_SAMPLES = "6ebe83fa14d2caa799e0a38ac1cdd55d276fbd9b184c5ecd52e4bb728678bbd3"
    HMC_SAMPLES = "2c34bbca0349ba72313542dda91cd280bd539273d186e79ddf0fdc66659023e2"

    @staticmethod
    def digest(outs):
        return hashlib.sha256(b"".join(o.samples.tobytes() for o in outs)).hexdigest()

    @pytest.fixture
    def target(self):
        if _float_platform() != TestMultipleTry.RECORDED_PLATFORM:
            pytest.skip("numpy's exp, log or BLAS round differently here than "
                        "where the digests were recorded")
        alpha = np.zeros(10)
        alpha[0], alpha[1] = 100.0, -100.0
        return skew_t(np.zeros(10), alpha, nu=1.0)

    def test_scs_ensemble(self, target):
        # a shifted projection, so the chains take 3 to 8 tries a move
        outs = run_chains(KernelConfig("scs", h=0.3), make_params(10, ell_o=1.1, mu=0.5, R=2.0),
                          target, np.ones(10), 300, burnin=50, seed=9, n_chains=10)
        assert [o.independence_tries for o in outs] == [8, 5, 8, 8, 8, 8, 6, 4, 3, 8]
        assert self.digest(outs) == self.SCS_SAMPLES

    def test_hmc_ensemble(self, target):
        outs = run_chains(KernelConfig("hmc", h=0.1, target_accept=HMC_TARGET_ACCEPT), None,
                          target, np.ones(10), 150, burnin=50, seed=9, n_chains=10)
        assert self.digest(outs) == self.HMC_SAMPLES


class TestSingleChainBits:
    """Fixed-seed single d = 100 Cauchy chains keep their recorded samples.

    The kernels take the settings of the ``cauchy-d100`` bench workload on
    shorter runs.  The scs chain is on a shifted projection (mu = 0.5), so
    it takes the non-centered ``cap_forward`` product and steps out about
    300 times.  Recorded before the one-chain products moved from ``@`` to
    ``ndarray.dot``.
    """

    SAMPLES = {
        "scs": "258dc64806ec370e60be7db40fd9998f009466984517f6fecd80c0c42bef29c6",
        "sps": "b27e28c98030183de617f80181260c9dd8ee935ce2b0da0dcae4797d51b05a49",
        "rwm": "c1b71f4957d1975f242c7f028f7ae741df40ee4de1a627a328d345bdf3889538",
        "hmc": "5ae093cd1981cf188114d83ba765dbe9873890693ddd1145e92aeb1e9235b3a1",
    }

    @pytest.mark.parametrize("kind", ["scs", "sps", "rwm", "hmc"])
    def test_chain(self, kind):
        if _float_platform() != TestMultipleTry.RECORDED_PLATFORM:
            pytest.skip("numpy's exp, log or BLAS round differently here than "
                        "where the digests were recorded")
        d = 100
        config, params, iterations, burnin = {
            "scs": (KernelConfig("scs", h=0.5), make_params(d, ell_o=1.1, mu=0.5), 2000, 200),
            "sps": (KernelConfig("sps", h=0.5),
                    make_params(d, ell_o=2.0, R=math.sqrt(d) / 2.0), 2000, 200),
            "rwm": (KernelConfig("rwm", h=0.5), None, 2000, 200),
            "hmc": (KernelConfig("hmc", h=0.1, target_accept=HMC_TARGET_ACCEPT), None, 500, 100),
        }[kind]
        out = run_chain(config, params, mv_student_t(d, nu=1.0), np.ones(d), iterations,
                        burnin=burnin, seed=7)
        assert hashlib.sha256(out.samples.tobytes()).hexdigest() == self.SAMPLES[kind]


class TestUniformErgodicity:
    """SCS forgets its start at a rate that does not depend on it.

    1000 chains on a d = 10 Student t with nu = 2 start at radius r on
    random directions; coordinate 0 across chains after a fixed number
    of steps is compared with the t_2 CDF.  Exact draws give KS 0.02 to
    0.035 over seeds 0-9, against the 5% critical value 0.043.
    """

    d, n_chains = 10, 1000
    critical = 1.358 / math.sqrt(n_chains)

    def ks_after(self, kernel, params, r, steps):
        target = mv_student_t(self.d, nu=2.0)
        rng = np.random.default_rng(0)
        directions = rng.standard_normal((self.n_chains, self.d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        outs = run_chains(kernel, params, target, r * directions, steps,
                          burnin=steps - 1, seed=0, n_chains=self.n_chains)
        last = np.array([o.samples[-1, 0] for o in outs])
        return ks_statistic(last, lambda t: student_t_cdf(t, 2.0))

    def test_scs_forgets_far_starts(self):
        # the default alternates SCS with the independence move; pure SCS
        # must forget the start too
        params = make_params(self.d, ell_o=1.1)
        for kernel in (KernelConfig("scs", h=0.5, adapt_burnin=0),
                       KernelConfig("scs", h=0.5, adapt_burnin=0, independence_every=0)):
            for r in (1.0, 1e4, 1e8):
                assert self.ks_after(kernel, params, r, 20) < self.critical

    def test_rwm_does_not(self):
        # negative control: three times as many steps leave rwm far out
        kernel = KernelConfig("rwm", h=1.0, adapt_burnin=0)
        for r in (1e4, 1e8):
            assert self.ks_after(kernel, None, r, 60) > self.critical
