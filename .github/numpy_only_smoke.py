"""Smoke run of brightside with numpy as its only third-party dependency.

scipy, mpmath and pytest are blocked from import first, so an import of
any of them from the package fails here even where they are installed.
Then every module is imported, a 100-point Student t log-CDF evaluated,
the fused t log-CDF and pdf/CDF ratio at t = 0, +-1e300 and +-inf for
nu = 1, 2 and 11 on the 0-d path, the small-batch loop and the
vectorized batch (no warning, every log-CDF at a finite t finite, every
ratio finite and positive where it is representable), a 10-row robit
gradient at link_nu = 3 whose rows equal their points alone, a 50-step
scs chain run alone and as an ensemble of
``SPHERE_ENSEMBLE_MIN_CHAINS`` chains, the fewest that ``run_chains``
steps together, so the batched sphere transition steps its dark rows
out one by one, both with the default independence move (its
acceptance must lie in [0, 1]) and one chain without it (NaN), a
300-step scs chain on a shifted projection where the pilot picks more
than one try per move (its move acceptance must lie in (0, 1]), an
scs ensemble whose chains take different numbers of tries (7, 5, 7, 7
and 4), each matching ``run_chain`` with its own seed to 1e-10, a
10-chain scs ensemble on a shifted d = 3 skew t run twice with one seed
(the two must give the same samples, the caller's start array must be
left as it was, and so must every array the target returned, since the
ensemble writes no array it was handed, by the caller or the target), one
50-step sps chain and one rwm chain, HMC run as one chain and as a
3-chain ensemble, so both leapfrog shapes run, a short tune run twice
with one seed (the rows it carries between steps are per-call state, so
the two must end at the same parameters), 1 000 uniform cap draws with
their rejection stats, and 1 000 exact draws of the d = 10 skew t, at
one of which and at ten of which its fused ``log_density_and_grad``
must give ``log_density`` and ``grad_log_density`` bit for bit.  The
rows of a 10-row and a 40-row batch of a d = 10 skew t with a dense
skewness vector must give the values and gradients of their points
alone, bit for bit.
Last, the three entry points run at small sizes in a temporary
directory: ``run_experiment`` on the cauchy and skewt presets,
``run_sample`` on robit and ``run_tune`` on logistic, so a lazy import
on an entry-point path fails here too, and the ``samples.csv`` and one
``*_qq.csv`` they wrote are read back through the package's one CSV
table reader.  From the repository root, with
the package installed (or ``PYTHONPATH=src``):

    python .github/numpy_only_smoke.py
"""

import importlib
import math
import pkgutil
import sys
import tempfile
from pathlib import Path

for name in ("scipy", "mpmath", "pytest"):
    sys.modules[name] = None  # a later import of it raises ImportError

import numpy as np

import brightside
from brightside.diagnostics import DEFAULT_PROBS, read_qq_csv
from brightside.experiments import (
    ExperimentConfig,
    load_samples_csv,
    run_experiment,
    run_sample,
    run_tune,
)
from brightside.geometry import make_params, sample_uniform_cap
from brightside.kernels import (
    SPHERE_ENSEMBLE_MIN_CHAINS,
    KernelConfig,
    derive_chain_seed,
    run_chain,
    run_chains,
)
from brightside.special import _t_log_cdf_ratio, student_t_log_cdf
from brightside.targets import (
    TargetModel,
    binary_regression_posterior,
    generate_separable_data,
    mv_student_t,
    skew_t,
)
from brightside.tuning import TuneOptions, tune

for module in pkgutil.iter_modules(brightside.__path__):
    importlib.import_module(f"brightside.{module.name}")

log_cdf = student_t_log_cdf(np.linspace(-50.0, 50.0, 100), 11.0)
assert log_cdf.shape == (100,) and np.all(np.isfinite(log_cdf))
assert np.all(np.diff(log_cdf) > 0.0) and log_cdf[-1] < 0.0
edges = np.array([0.0, 1e300, -1e300, math.inf, -math.inf])
for nu in (1.0, 2.0, 11.0):
    for ts in (edges, np.tile(edges, 7)):
        log_cdf, ratio = _t_log_cdf_ratio(ts, nu)
        assert np.all(np.isfinite(log_cdf[np.isfinite(ts)])), (nu, log_cdf)
        # r underflows at 1e300 and is 0 at +-inf
        assert np.all(np.isfinite(ratio)) and np.all(ratio[np.isfinite(ts) & (ts < 1e300)] > 0.0)
        assert np.all(ratio[np.isinf(ts)] == 0.0) and abs(log_cdf[0] - math.log(0.5)) < 1e-15
        for i, t in enumerate(ts.tolist()):
            assert _t_log_cdf_ratio(np.float64(t), nu) == (log_cdf[i], ratio[i]), (nu, t)
robit = binary_regression_posterior(generate_separable_data(
    30, 5, np.random.default_rng(2), link="robit", link_nu=3.0))
betas = 2.0 * np.random.default_rng(3).standard_cauchy((10, 5))
for beta, grad in zip(betas, robit.grad_log_density(betas)):
    assert np.all(np.isfinite(grad)) and grad.tobytes() == robit.grad_log_density(beta).tobytes()

chain = run_chain(KernelConfig("scs", h=0.5), make_params(3, ell_o=1.1),
                  mv_student_t(3, nu=1.0), np.zeros(3), 50, seed=0)
assert chain.samples.shape == (50, 3) and np.all(np.isfinite(chain.samples))
assert 0.0 <= chain.independence_acceptance <= 1.0
chains = run_chains(KernelConfig("scs", h=0.5), make_params(3, ell_o=1.1),
                    mv_student_t(3, nu=1.0), np.zeros(3), 50, seed=0,
                    n_chains=SPHERE_ENSEMBLE_MIN_CHAINS)
assert len(chains) == SPHERE_ENSEMBLE_MIN_CHAINS
for chain in chains:
    assert chain.samples.shape == (50, 3) and np.all(np.isfinite(chain.samples))
    assert 0.0 <= chain.independence_acceptance <= 1.0
chain = run_chain(KernelConfig("scs", h=0.5, independence_every=0),
                  make_params(3, ell_o=1.1), mv_student_t(3, nu=1.0), np.zeros(3), 50,
                  seed=0)
assert chain.samples.shape == (50, 3) and np.all(np.isfinite(chain.samples))
assert math.isnan(chain.independence_acceptance)
chain = run_chain(KernelConfig("scs", h=0.5), make_params(2, ell_o=1.1, mu=2.0),
                  mv_student_t(2, nu=1.0), np.zeros(2), 300, seed=0)
assert chain.independence_tries > 1, chain.independence_tries
assert np.all(np.isfinite(chain.samples))
assert 0.0 < chain.independence_acceptance <= 1.0
# chains of one ensemble with different numbers of tries share one padded
# pick; each must still follow run_chain with its own seed
p = make_params(2, ell_o=1.1, R=5.0)
cfg = KernelConfig("scs", h=1.0)
chains = run_chains(cfg, p, mv_student_t(2, nu=1.0), np.ones(2), 300, burnin=100, seed=2,
                    n_chains=SPHERE_ENSEMBLE_MIN_CHAINS)
tries = [chain.independence_tries for chain in chains]
assert len(set(tries)) > 1, tries
for i, chain in enumerate(chains):
    one = run_chain(cfg, p, mv_student_t(2, nu=1.0), np.ones(2), 300, burnin=100,
                    seed=derive_chain_seed(2, i))
    assert one.independence_tries == tries[i]
    assert np.allclose(chain.samples, one.samples, rtol=1e-10, atol=1e-10)


class Keeping(TargetModel):
    """A target that keeps each array it returns next to a copy of it."""

    def __init__(self, base):
        self.base, self.dim, self.returned = base, base.dim, []

    def log_density(self, y):
        out = self.base.log_density(y)
        self.returned.append((out, out.copy()))
        return out


small = skew_t(np.zeros(3), np.array([5.0, -5.0, 0.0]), nu=1.0)
p = make_params(3, ell_o=1.1, mu=0.5, R=2.0)
init = np.ones((10, 3))
start = init.copy()
runs = []
for _ in range(2):
    kept = Keeping(small)
    runs.append(run_chains(KernelConfig("scs", h=0.5), p, kept, init, 200, burnin=50,
                           seed=4, n_chains=10))
    assert all(np.array_equal(out, copy) for out, copy in kept.returned)
assert np.array_equal(init, start)
assert max(chain.independence_tries for chain in runs[0]) > 1
for one, other in zip(*runs):
    assert np.all(np.isfinite(one.samples)) and np.array_equal(one.samples, other.samples)
chain = run_chain(KernelConfig("sps", h=0.5), make_params(3, ell_o=2.0, R=1.0),
                  mv_student_t(3, nu=1.0), np.zeros(3), 50, seed=0)
assert chain.samples.shape == (50, 3) and np.all(np.isfinite(chain.samples))
chain = run_chain(KernelConfig("rwm", h=0.5), None, mv_student_t(3, nu=1.0), np.zeros(3),
                  50, seed=0)
assert chain.samples.shape == (50, 3) and np.all(np.isfinite(chain.samples))

hmc = KernelConfig("hmc", h=0.2, leapfrog_steps=5)
chain = run_chain(hmc, None, mv_student_t(3, nu=1.0), np.zeros(3), 50, seed=0)
assert chain.samples.shape == (50, 3) and np.all(np.isfinite(chain.samples))
chains = run_chains(hmc, None, mv_student_t(3, nu=1.0), np.zeros(3), 50, seed=0,
                    n_chains=3)
for chain in chains:
    assert chain.samples.shape == (50, 3) and np.all(np.isfinite(chain.samples))

alpha = np.zeros(10)
alpha[0], alpha[1] = 100.0, -100.0
target = skew_t(np.zeros(10), alpha, nu=1.0)
report = tune(target, 1.1, TuneOptions(mc_batch=200, steps=30, seed=0))
h_o, mu, R = report.theta_bar
assert np.all(np.isfinite(h_o)) and np.all(np.isfinite(mu)) and np.isfinite(R)
assert np.all(np.isfinite(report.objective_trace))
again = tune(target, 1.1, TuneOptions(mc_batch=200, steps=30, seed=0))
assert all(np.array_equal(a, b) for a, b in zip(again.theta_bar, report.theta_bar))
cap, raw, accepted = sample_uniform_cap(10, 1.1, np.random.default_rng(0), size=1000,
                                        with_rejection_stats=True)
assert cap.shape == (1000, 11) and raw >= accepted >= 1000
draws = target.exact_sample(np.random.default_rng(0), size=1000)
assert draws.shape == (1000, 10) and np.all(np.isfinite(draws))
for y in (draws[0], draws[:10]):
    value, grad = target.log_density_and_grad(y)
    assert np.asarray(value).tobytes() == np.asarray(target.log_density(y)).tobytes()
    assert grad.tobytes() == target.grad_log_density(y).tobytes()
dense = skew_t(np.linspace(-1.0, 1.0, 10), np.linspace(-3.0, 3.0, 10) + 0.1, nu=2.0)
ys = dense.loc + 3.0 * np.random.default_rng(1).standard_cauchy((40, 10))
for n in (10, 40):
    value, grad = dense.log_density(ys[:n]), dense.grad_log_density(ys[:n])
    for i, y in enumerate(ys[:n]):
        assert value[i].tobytes() == np.asarray(dense.log_density(y)).tobytes(), (n, i)
        assert grad[i].tobytes() == dense.grad_log_density(y).tobytes(), (n, i)

with tempfile.TemporaryDirectory() as tmp:
    for preset, sizes in (("cauchy", dict(dimension=2)),
                          ("skewt", dict(dimension=3, reference_size=2000,
                                         tuner_steps=5, tuner_batch=50))):
        summary = run_experiment(ExperimentConfig(
            preset=preset, iterations=400, burnin=50, replicates=2, out=tmp, **sizes))
        assert summary["methods"] and not summary["failed_methods"], summary
        for entry in summary["methods"].values():
            assert (Path(tmp) / preset / entry["qq_csv"]).is_file()
    qq = read_qq_csv(Path(tmp) / "skewt" / summary["methods"]["scs"]["qq_csv"])
    assert sorted(qq) == [0, 1, 2], sorted(qq)
    for r in qq.values():
        assert np.array_equal(r.probs, DEFAULT_PROBS)
        assert np.all(np.isfinite(r.sample_quantiles))
    report = run_sample(ExperimentConfig(preset="robit", iterations=300, burnin=50,
                                         tuner_steps=20, tuner_batch=100,
                                         out=str(Path(tmp) / "sample")))
    assert 0.0 <= report["acceptance_rate"] <= 1.0, report
    iters, samples = load_samples_csv(Path(tmp) / "sample" / "samples.csv")
    assert samples.shape == (iters.size, 5) and iters.size > 0, samples.shape
    assert np.all(np.diff(iters) > 0) and np.all(np.isfinite(samples))
    tuned = run_tune(ExperimentConfig(preset="logistic", tuner_steps=20, tuner_batch=100,
                                      out=str(Path(tmp) / "tune")))
    assert tuned["steps"] >= 1 and np.all(np.isfinite(tuned["objective_trace"]))
    assert (Path(tmp) / "tune" / "tune.json").is_file()
print("numpy-only smoke run passed")
