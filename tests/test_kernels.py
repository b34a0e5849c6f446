import math

import numpy as np
import pytest

from brightside.diagnostics import ess
from brightside.errors import ChainAborted, DarkSidePoint, DegenerateProposal
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
    HMC_TARGET_ACCEPT,
    KernelConfig,
    adapt_step_size,
    derive_chain_seed,
    great_circle_frame,
    hmc_step,
    leapfrog,
    SPHERE_ENSEMBLE_MIN_CHAINS,
    propose_tangent,
    run_chain,
    run_chains,
    sphere_step,
    stepping_out,
)
from brightside.targets import (
    SkewT,
    TargetModel,
    mv_student_t,
    skew_t,
    student_t_cdf,
    uniform_cap_pullback,
)


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


class TestSphereEnsemble:
    @pytest.mark.parametrize("kind", ["scs", "sps"])
    def test_ensemble_matches_single_chains(self, kind, monkeypatch):
        # run_chains steps the four chains as one batch; chain i must
        # follow run_chain with the derived seed, step sizes included,
        # and at ell_o = 1.1 stepping-out must fire in the batch
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
                          n_chains=4)
        assert (stepped > 50) == (kind == "scs")
        assert len({o.step_size_trace[-1] for o in outs}) == 4
        for i, ens in enumerate(outs):
            one = run_chain(cfg, p, target, np.ones(d), 400, burnin=200,
                            seed=derive_chain_seed(22, i))
            assert ens.seed == one.seed
            assert ens.samples.shape == one.samples.shape == (200, d)
            assert np.allclose(ens.samples, one.samples, rtol=0.0, atol=1e-10)
            assert np.allclose(ens.step_size_trace, one.step_size_trace,
                               rtol=1e-10, atol=0.0)
            assert ens.acceptance_rate == one.acceptance_rate

    @pytest.mark.parametrize("kind", ["scs", "sps"])
    def test_ensemble_only_from_min_chains(self, kind, monkeypatch):
        # below the threshold each chain runs alone, as run_chain does;
        # from it on every transition steps all the chains together
        d = 2
        p = (make_params(d, ell_o=1.1) if kind == "scs"
             else make_params(d, ell_o=2.0, R=1.0))
        batch = []

        def recording(x, *args):
            batch.append(x.shape[0] if x.ndim == 2 else 1)
            return sphere_step(x, *args)

        monkeypatch.setattr("brightside.kernels.sphere_step", recording)
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
        inits = np.array([[0.0, 0.0], [3.0, -1.0], [-2.0, 5.0], [1.0, 1.0]])
        for n_chains in (3, 4):  # one after another, then one ensemble
            outs = run_chains(cfg, p, target, inits[:n_chains], 50, seed=23,
                              n_chains=n_chains)
            for i, ens in enumerate(outs):
                one = run_chain(cfg, p, target, inits[i], 50,
                                seed=derive_chain_seed(23, i))
                # Cauchy draws reach 1e3 and beyond: round-off is relative
                assert np.allclose(ens.samples, one.samples, rtol=1e-10,
                                   atol=1e-10)
        for bad in (inits[:2], inits[:, :1], np.ones(3)):
            with pytest.raises(ValueError, match="init must have shape"):
                run_chains(cfg, p, target, bad, 50, seed=23, n_chains=3)

    def test_nonfinite_density_row_rejected_alone(self):
        # the density is NaN in the half-space y_0 > 5, where row 1
        # stands: that row is rejected after drawing its uniform, as
        # the one-chain branch does, while the other rows move
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
        rngs = [np.random.default_rng(s) for s in (24, 25, 26)]
        x_new, y_new, lp_new, accepted = sphere_step(
            x, y, logpost, np.full(3, 1e-3), p, target, rngs)
        assert accepted.tolist() == [True, False, True]
        assert np.array_equal(x_new[1], x[1]) and np.array_equal(y_new[1], y[1])
        assert lp_new[1] == logpost[1]
        assert np.all(y_new[[0, 2]] != y[[0, 2]])
        one_rng = np.random.default_rng(25)
        one = sphere_step(x[1], y[1], float(logpost[1]), 1e-3, p, target, one_rng)
        assert one[3] is False
        probe = np.random.default_rng(25)
        probe.standard_normal(3)
        probe.random()
        assert rngs[1].random() == one_rng.random() == probe.random()

    def test_degenerate_row_rejected_without_uniform(self):
        # row 0 stands 1e-9 below the dark cap and steps 1e-8 up along
        # its tangent: the proposal is dark but coincident with the
        # state (s^2 ~ 1e-16), so the row is rejected before drawing a
        # uniform, in the batch as in the one-chain branch
        class Scripted:
            def __init__(self, normals):
                self.normals = np.asarray(normals)
                self.uniforms = 0

            def standard_normal(self, size=None, out=None):
                if out is None:
                    return self.normals.copy()
                out[...] = self.normals
                return out

            def random(self):
                self.uniforms += 1
                return 0.5

        p = make_params(1, ell_o=1.5)
        target = uniform_cap_pullback(p)
        theta = math.asin(0.5 - 1e-9)
        x = np.array([[math.cos(theta), math.sin(theta)], [1.0, 0.0]])
        steps = [1e-8 * np.array([-math.sin(theta), math.cos(theta)]), [0.0, 0.1]]
        y, logjac, _, _ = cap_forward(x, p)
        logpost = logjac + target.log_density(y)
        rngs = [Scripted(s) for s in steps]
        x_new, _, _, accepted = sphere_step(x, y, logpost, np.ones(2), p, target, rngs)
        assert accepted.tolist() == [False, True]
        assert np.array_equal(x_new[0], x[0]) and not np.array_equal(x_new[1], x[1])
        assert [r.uniforms for r in rngs] == [0, 1]
        one_rng = Scripted(steps[0])
        one = sphere_step(x[0], y[0], float(logpost[0]), 1.0, p, target, one_rng)
        assert one[3] is False and one_rng.uniforms == 0

    def test_ensemble_abort_carries_partial_chains(self):
        # one density call at the start and one per transition: call 7
        # falls in transition 6, after five kept samples
        class Fails:
            dim = 4
            has_gradient = False
            calls = 0

            def log_density(self, y):
                self.calls += 1
                if self.calls > 6:
                    raise FloatingPointError("density blew up")
                return -0.5 * np.sum(np.asarray(y) ** 2, axis=-1)

        with pytest.raises(ChainAborted) as info:
            run_chains(KernelConfig("scs", h=0.5), make_params(4, ell_o=1.1), Fails(),
                       np.ones(4), 20, seed=27, n_chains=4)
        partial = info.value.partial
        assert [o.seed for o in partial] == [derive_chain_seed(27, i) for i in range(4)]
        for o in partial:
            assert not o.valid and o.samples.shape == (5, 4)


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
            y, logp, g, acc = hmc_step(y, logp, g, 0.01, 10, target, rng)
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
                                         0.1, 5, bad, rng)
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
            assert np.allclose(ens.samples, one.samples, rtol=0.0, atol=1e-10)
            assert np.allclose(ens.step_size_trace, one.step_size_trace,
                               rtol=1e-10, atol=0.0)
            assert ens.acceptance_rate == one.acceptance_rate

    def test_nonfinite_row_rejected_alone(self):
        # the gradient is NaN in the half-space y_0 > 5, where row 1
        # starts: that row is rejected without drawing a uniform, while
        # the other rows move
        class NanPatch(Gauss):
            def grad_log_density(self, y):
                y = np.asarray(y)
                return np.where(y[..., :1] > 5.0, np.nan, -y)

        target = NanPatch()
        y = np.zeros((3, 4))
        y[1, 0] = 10.0
        rngs = [np.random.default_rng(s) for s in (17, 18, 19)]
        y_new, logp, g, accepted = hmc_step(
            y, target.log_density(y), target.grad_log_density(y),
            np.full(3, 0.1), 5, target, rngs)
        assert accepted.tolist() == [True, False, True]
        assert np.array_equal(y_new[1], y[1])
        assert np.all(y_new[[0, 2]] != 0.0)
        assert logp[1] == target.log_density(y[1])
        assert np.all(np.isnan(g[1]))
        # row 1 drew its momentum and nothing else
        probe = np.random.default_rng(18)
        probe.standard_normal(4)
        assert rngs[1].uniform() == probe.uniform()


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
