"""Direct timings of the package's public functions, layer by layer.

Each timing calls one function repeatedly on fixed inputs and reports
the median and 90th percentile of the per-call time, divided by the
number of points per call where the name ends in ``_us`` after an
``n<points>`` part, together with the number of calls timed.
"""

import math
from time import perf_counter

import numpy as np

from brightside.diagnostics import DEFAULT_PROBS, ess, qq_report
from brightside.geometry import (
    log_jacobian_at_cap_point,
    log_regularized_incomplete_beta,
    make_params,
    regularized_incomplete_beta,
    sample_uniform_cap,
    scp_forward,
    scp_inverse,
)
from brightside.kernels import HMC_TARGET_ACCEPT, KernelConfig, run_chain, run_chains
from brightside.targets import binary_regression_posterior, generate_separable_data, mv_student_t, skew_t
from brightside.tuning import TuneOptions, tune

from workloads import ELL_O, load_logistic_reference, logistic_data

DIMS = (10, 100)
BATCH = 2000
# time per timing; a timing stops after MIN_CALLS calls and this long
MIN_TIME = 0.05
MIN_CALLS = 20


def time_calls(fn, points=1, min_calls=MIN_CALLS, min_time=MIN_TIME, max_calls=100_000):
    """(median, p90, count) of per-call seconds / points, in microseconds."""
    times = []
    deadline = perf_counter() + min_time
    while len(times) < max_calls and (len(times) < min_calls or perf_counter() < deadline):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    us = np.asarray(times) * 1e6 / points
    return float(np.median(us)), float(np.quantile(us, 0.9)), len(times)


def _skewt(d):
    alpha = np.zeros(d)
    alpha[0], alpha[1] = 100.0, -100.0
    return skew_t(xi=np.zeros(d), alpha_skew=alpha, nu=1.0)


def _regression_targets():
    ref = load_logistic_reference()
    data = logistic_data(ref)
    robit = generate_separable_data(ref["n_obs"], ref["dim"],
                                    np.random.default_rng(ref["data_seed"]),
                                    link="robit")
    return {"logistic": binary_regression_posterior(data),
            "robit": binary_regression_posterior(robit)}


def geometry_timings(rng):
    out = {}
    for d in DIMS:
        h_o = np.zeros(d)
        h_o[0] = 0.3
        p = make_params(d, h_o=h_o, ell_o=ELL_O, mu=0.5, R=2.0)
        x = sample_uniform_cap(d, ELL_O, rng, size=BATCH)
        y = scp_forward(x, p)
        for n, xs, ys in ((1, x[0], y[0]), (BATCH, x, y)):
            out[f"geometry.scp_forward.d{d}.n{n}_us"] = time_calls(lambda: scp_forward(xs, p), n)
            out[f"geometry.scp_inverse.d{d}.n{n}_us"] = time_calls(lambda: scp_inverse(ys, p), n)
            out[f"geometry.log_jacobian_at_cap_point.d{d}.n{n}_us"] = time_calls(
                lambda: log_jacobian_at_cap_point(xs, p), n)
        out[f"geometry.sample_uniform_cap.d{d}.n{BATCH}_us"] = time_calls(
            lambda: sample_uniform_cap(d, ELL_O, rng, size=BATCH), BATCH)
        _, raw, got = sample_uniform_cap(d, ELL_O, rng, size=BATCH * 10,
                                         with_rejection_stats=True)
        out[f"geometry.sample_uniform_cap.d{d}.accept_ratio"] = (got / raw, got / raw, 1)
    # the skew-t CDF factor at d = 10 calls the incomplete beta at this shape
    a, b = 5.5, 0.5
    u = rng.uniform(0.01, 0.99, size=BATCH)
    for n, us in ((1, u[:1]), (BATCH, u)):
        out[f"geometry.incomplete_beta.n{n}_us"] = time_calls(
            lambda: regularized_incomplete_beta(us, a, b), n)
        out[f"geometry.log_incomplete_beta.n{n}_us"] = time_calls(
            lambda: log_regularized_incomplete_beta(us, a, b), n)
    return out


def target_timings(rng):
    out = {}
    cases = [(f"{name}", d, tgt) for d in DIMS
             for name, tgt in (("cauchy", mv_student_t(d, nu=1.0)), ("skewt", _skewt(d)))]
    cases += [(name, tgt.dim, tgt) for name, tgt in _regression_targets().items()]
    for name, d, tgt in cases:
        y = mv_student_t(d, nu=1.0).exact_sample(rng, size=BATCH)
        for n, ys in ((1, y[0]), (BATCH, y)):
            for fn in ("log_density", "grad_log_density"):
                f = getattr(tgt, fn)
                out[f"targets.{name}.{fn}.d{d}.n{n}_us"] = time_calls(lambda: f(ys), n)
    return out


def _cauchy_chain_configs(d):
    return {
        "scs": (KernelConfig("scs", h=0.5), make_params(d, ell_o=ELL_O), 1_000),
        "sps": (KernelConfig("sps", h=0.5), make_params(d, ell_o=2.0, R=math.sqrt(d) / 2.0), 1_000),
        "rwm": (KernelConfig("rwm", h=0.5), None, 1_000),
        "hmc": (KernelConfig("hmc", h=0.1, target_accept=HMC_TARGET_ACCEPT), None, 200),
    }


def kernel_timings(cpus):
    out = {}
    for d in DIMS:
        tgt = mv_student_t(d, nu=1.0)
        for kind, (cfg, p, iters) in _cauchy_chain_configs(d).items():
            seeds = iter(range(1_000))
            out[f"kernels.{kind}.d{d}.us_per_iter"] = time_calls(
                lambda: run_chain(cfg, p, tgt, np.ones(d), iters, burnin=iters // 2,
                                  seed=next(seeds)),
                iters, min_calls=5, min_time=0.0)
    cfg, p, iters = _cauchy_chain_configs(10)["scs"]
    tgt = mv_student_t(10, nu=1.0)

    def chains(n, w):
        return lambda: run_chains(cfg, p, tgt, np.ones(10), iters, burnin=iters // 2,
                                  seed=3, n_chains=n, workers=w)

    one = time_calls(chains(1, 1), min_calls=5, min_time=0.0)
    four = time_calls(chains(4, min(4, cpus)), min_calls=5, min_time=0.0)
    ratio = 4.0 * one[0] / four[0]
    out["kernels.run_chains.c4.speedup"] = (ratio, ratio, four[2])
    return out


def tuning_timings():
    out = {}
    steps = 3
    cases = (("skewt.d10", _skewt(10)), ("skewt.d100", _skewt(100)),
             ("logistic.d5", _regression_targets()["logistic"]))
    for name, tgt in cases:
        opts = TuneOptions(mc_batch=BATCH, steps=steps, seed=0)
        med, p90, count = time_calls(lambda: tune(tgt, ELL_O, opts), steps,
                                     min_calls=3, min_time=0.0)
        out[f"tuning.step.{name}.n{BATCH}_ms"] = (med / 1e3, p90 / 1e3, count)
    return out


def diagnostics_timings(rng):
    out = {}
    for n in (1_000, 100_000):
        e = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = e[0]
        for i in range(1, n):  # AR(1) with coefficient 0.9
            x[i] = 0.9 * x[i - 1] + e[i]
        out[f"diagnostics.ess.n{n}_us"] = time_calls(lambda: ess(x), min_calls=5)
    chains = [mv_student_t(4, nu=1.0).exact_sample(rng, size=1_000) for _ in range(10)]
    ref = np.tan(math.pi * (np.asarray(DEFAULT_PROBS) - 0.5))
    out["diagnostics.qq_report.c10_us"] = time_calls(lambda: qq_report(chains, 0, ref))
    return out


def measure_all(cpus, seed=0):
    """Every direct timing: name -> (median, p90, count); ``cpus`` caps the pool."""
    rng = np.random.default_rng(seed)
    out = {}
    out.update(geometry_timings(rng))
    out.update(target_timings(rng))
    out.update(kernel_timings(cpus))
    out.update(tuning_timings())
    out.update(diagnostics_timings(rng))
    return out
