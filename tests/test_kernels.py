import math

import numpy as np
import pytest

from brightside.diagnostics import ess
from brightside.errors import DarkSidePoint, DegenerateProposal
from brightside.geometry import (
    cap_forward,
    cap_ratio_exact,
    log_jacobian,
    make_params,
    sample_uniform_cap,
    scp_forward,
    scp_inverse,
)
from brightside.kernels import (
    KernelConfig,
    adapt_step_size,
    derive_chain_seed,
    great_circle_frame,
    hmc_step,
    leapfrog,
    propose_tangent,
    run_chain,
    run_chains,
    stepping_out,
)
from brightside.targets import mv_student_t, student_t_cdf, uniform_cap_pullback


class FixedNormals:
    """rng stub feeding predetermined standard normals."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, size):
        assert size == self.values.shape[0]
        return self.values.copy()


def random_bright_dark_pair(rng, d, ell_o, h=1.5):
    """Sample a bright state and a dark proposal from the actual kernel."""
    while True:
        x = sample_uniform_cap(d, ell_o, rng)
        x_prime = propose_tangent(x, h, rng)
        if x_prime[-1] > ell_o - 1.0:
            return x, x_prime


class TestProposeTangent:
    def test_hand_example(self):
        x = np.array([1.0, 0.0])
        rng = FixedNormals([0.3, 0.4])
        x_prime = propose_tangent(x, 1.0, rng)
        norm = math.sqrt(1.16)
        assert np.allclose(x_prime, [1.0 / norm, 0.4 / norm], atol=1e-12)

    def test_tangency_and_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            x = sample_uniform_cap(d, 1.0, rng)
            x_prime = propose_tangent(x, 0.7, rng)
            assert abs(np.linalg.norm(x_prime) - 1.0) <= 1e-12
            # reconstruct the tangent displacement: delta = x'/<x,x'> - x
            delta = x_prime / float(x @ x_prime) - x
            assert abs(float(x @ delta)) <= 1e-12

    def test_small_h_stays_close(self):
        rng = np.random.default_rng(1)
        x = sample_uniform_cap(3, 1.0, rng)
        dists = [np.linalg.norm(propose_tangent(x, 1e-6, rng) - x)
                 for _ in range(1000)]
        assert np.median(dists) < 1e-5


class TestGreatCircleFrame:
    def test_hand_geometry_example(self):
        ell_o = 1.5
        x = np.array([1.0, 0.0])
        ang = math.radians(80.0)
        x_prime = np.array([math.cos(ang), math.sin(ang)])
        frame = great_circle_frame(x, x_prime, ell_o)
        assert np.allclose(frame.u, [0.0, 1.0], atol=1e-12)
        assert abs(frame.alpha - ang) < 1e-12
        assert abs(frame.phi - math.pi / 2.0) < 1e-12
        assert abs(frame.gamma - math.pi / 3.0) < 1e-12
        assert frame.K == 2

    def test_triggered_cases_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            d = int(rng.integers(1, 6))
            ell_o = rng.uniform(1.0, 1.6)
            x, x_prime = random_bright_dark_pair(rng, d, ell_o)
            frame = great_circle_frame(x, x_prime, ell_o)
            assert abs(float(x @ frame.u)) <= 1e-12
            assert abs(np.linalg.norm(frame.u) - 1.0) <= 1e-12
            assert 0.0 <= frame.gamma <= math.pi / 2.0 + 1e-12
            # the dark arc is |theta - phi| < gamma; a dark landing means
            # alpha lies inside it, forcing K >= 2
            assert frame.phi - frame.gamma < frame.alpha < frame.phi + frame.gamma
            assert frame.K >= 2
            assert (frame.K - 1) * frame.alpha <= frame.phi + frame.gamma
            assert frame.K * frame.alpha > frame.phi + frame.gamma

    def test_degenerate_raises(self):
        x = np.array([0.0, -1.0])
        with pytest.raises(DegenerateProposal):
            great_circle_frame(x, -x, 1.5)

    def test_precondition_checks(self):
        x_dark = np.array([0.0, 0.9])
        x_bright = np.array([1.0, 0.0])
        with pytest.raises(DarkSidePoint):
            great_circle_frame(x_dark, x_dark, 1.5)
        with pytest.raises(DarkSidePoint):
            great_circle_frame(x_bright, x_bright, 1.5)


class TestSteppingOut:
    def test_circle_walk_oracle(self):
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
            x_prime = propose_tangent(x, 0.6, rng)
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

    def test_invariance_ensemble_ks(self):
        # start 1000 chains from exact target draws, run 1000 steps each,
        # pool the final states: marginals must still look like the target
        rng = np.random.default_rng(8)
        d = 2
        p = make_params(d, ell_o=1.1)
        target = mv_student_t(d, nu=1.0)
        cfg = KernelConfig("scs", h=0.7)
        n_chains, n_steps = 1000, 1000
        inits = target.exact_sample(rng, size=n_chains)
        finals = np.empty((n_chains, d))
        for c in range(n_chains):
            out = run_chain(cfg, p, target, inits[c], n_steps,
                            seed=derive_chain_seed(8, c))
            finals[c] = out.samples[-1]
        for j in range(d):
            s = np.sort(finals[:, j])
            F = student_t_cdf(s, 1.0)
            grid = np.arange(1, n_chains + 1) / n_chains
            ks = max(np.max(grid - F), np.max(F - (grid - 1.0 / n_chains)))
            assert ks < 1.63 / math.sqrt(n_chains)

    def test_latitude_band_occupancy_detailed_balance(self):
        # uniform-pullback target: band occupancy must match band areas
        d = 2
        ell_o = 1.5
        p = make_params(d, ell_o=ell_o)
        n = 200_000
        out = run_chain(KernelConfig("scs", h=0.8), p, uniform_cap_pullback(p),
                        np.zeros(d), n, seed=9)
        lat = scp_inverse(out.samples, p)[:, -1]
        edges = np.array([-1.0, -0.5, 0.0, 0.25, ell_o - 1.0])
        # P(z_d+1 > s) = cap_ratio_exact at latitude 1+s for s >= 0, and
        # 1 - that at 1-s for s < 0 (symmetry of the uniform sphere law)
        def upper_frac(s):
            if s >= 0:
                return cap_ratio_exact(d, 1.0 + s)
            return 1.0 - cap_ratio_exact(d, 1.0 - s)

        bright_mass = 1.0 - cap_ratio_exact(d, ell_o)
        for lo, hi in zip(edges[:-1], edges[1:]):
            expected = (upper_frac(lo) - upper_frac(hi)) / bright_mass
            ind = ((lat > lo) & (lat <= hi)).astype(float)
            observed = ind.mean()
            n_eff = ess(ind)
            se = math.sqrt(expected * (1.0 - expected) / n_eff)
            assert abs(observed - expected) <= 3.0 * se


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


class TestHmc:
    def test_leapfrog_reversibility(self):
        target = mv_student_t(3, nu=2.0)
        rng = np.random.default_rng(13)
        y = rng.standard_normal(3)
        mom = rng.standard_normal(3)
        y1, m1 = leapfrog(y, mom, 0.05, 20, target.grad_log_density)
        y2, m2 = leapfrog(y1, -m1, 0.05, 20, target.grad_log_density)
        assert np.allclose(y2, y, atol=1e-10)
        assert np.allclose(-m2, mom, atol=1e-10)

    def test_gaussian_energy_error(self):
        class Gauss:
            dim = 4

            def log_density(self, y):
                y = np.asarray(y)
                return -0.5 * np.sum(y * y, axis=-1)

            def grad_log_density(self, y):
                return -np.asarray(y)

            has_gradient = True

        target = Gauss()
        rng = np.random.default_rng(14)
        errors = []
        accepted = 0
        y = rng.standard_normal(4)
        for _ in range(1000):
            mom = rng.standard_normal(4)
            h0 = -float(target.log_density(y)) + 0.5 * float(mom @ mom)
            y1, m1 = leapfrog(y, mom, 0.01, 10, target.grad_log_density)
            h1 = -float(target.log_density(y1)) + 0.5 * float(m1 @ m1)
            errors.append(abs(h1 - h0))
            y_new, acc = hmc_step(y, 0.01, 10, target, rng)
            accepted += acc
            y = y_new
        assert np.median(errors) < 1e-3
        assert accepted / 1000 > 0.99

    def test_nonfinite_gradient_rejects(self):
        class Bad:
            dim = 1

            def log_density(self, y):
                return 0.0

            def grad_log_density(self, y):
                return np.array([np.nan])

            has_gradient = True

        rng = np.random.default_rng(15)
        y = np.zeros(1)
        y_new, accepted = hmc_step(y, 0.1, 5, Bad(), rng)
        assert not accepted and np.array_equal(y_new, y)


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

    def test_run_chains_parallel_deterministic(self, monkeypatch):
        target = mv_student_t(2, nu=1.0)
        p = make_params(2, ell_o=1.1)
        cfg = KernelConfig(kind="scs", h=0.5)
        outs1 = run_chains(cfg, p, target, np.zeros(2), 600, burnin=100,
                           seed=9, n_chains=4, workers=4)
        monkeypatch.setenv("BRIGHTSIDE_THREADS", "1")
        outs2 = run_chains(cfg, p, target, np.zeros(2), 600, burnin=100,
                           seed=9, n_chains=4, workers=4)
        for a, b in zip(outs1, outs2):
            assert np.array_equal(a.samples, b.samples)
        seeds = {o.seed for o in outs1}
        assert len(seeds) == 4
        assert derive_chain_seed(9, 0) in seeds
