"""The benchmark's workloads and one repetition of each.

A repetition is the whole job a user runs: build the target, tune
and set up the projections, compute the reference, sample every kernel
through ``run_chains`` and summarise the chains.  Everything random in
it derives from one repetition seed.
"""

import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from brightside.errors import ChainAborted
from brightside.geometry import make_params
from brightside.kernels import HMC_TARGET_ACCEPT, KernelConfig, derive_chain_seed, run_chains
from brightside.targets import (
    binary_regression_posterior,
    generate_separable_data,
    mv_student_t,
    skew_t,
)
from brightside.tuning import TuneOptions, tune

from benchenv import BENCH_DIR
from calibration import RawClock
from checks import TAIL_PROBS, cauchy_reference, tail_checks
from rank_ess import summed_ess
from tracing import TracedTarget

KINDS = ("scs", "sps", "rwm", "hmc")
# run_chain clamps adapted step sizes to this range
STEP_SIZE_CLAMP = (1e-10, 1e10)
ELL_O = 1.1
LOGISTIC_REFERENCE = BENCH_DIR / "logistic_reference.json"


@dataclass(frozen=True)
class KernelPlan:
    kind: str
    config: KernelConfig
    iterations: int
    burnin: int
    n_chains: int


@dataclass
class Setup:
    target: object
    params: dict            # kind -> ProjectionParams for the sphere kernels
    inits: dict             # kind -> initial point
    reference: dict         # coord -> {tail prob -> reference quantile}
    ref_ess: float
    tune: Optional[dict] = None


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    plans: tuple
    setup: Callable         # (seed, wrap) -> Setup

    @property
    def coords(self):
        return tuple(range(min(4, self.dim)))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _tuned(target, seed, steps):
    """Tune the projection at ELL_O; returns (params, report summary)."""
    opts = TuneOptions(mc_batch=1000, steps=steps, seed=derive_chain_seed(seed, 1))
    start = perf_counter()
    report = tune(target, ELL_O, opts)
    elapsed = perf_counter() - start
    h_o, mu, R = report.theta_bar
    params = make_params(target.dim, h_o=h_o, ell_o=ELL_O, mu=mu, R=R)
    obj = report.objective_trace
    finite = obj[np.isfinite(obj)]
    summary = {
        "s": elapsed,
        "nonfinite_steps": int(obj.size - finite.size),
        "final_kl": float(np.mean(finite[-20:])),
        # distance of the observer from the edge of its ball
        "h_o_margin": 1.0 - float(h_o @ h_o) - (ELL_O - 1.0) ** 2,
    }
    return params, summary


# --- cauchy-d100 ------------------------------------------------------------

def _cauchy_setup(seed, wrap):
    d = 100
    ref = cauchy_reference()
    return Setup(
        target=wrap(mv_student_t(d, nu=1.0)),
        params={"scs": make_params(d, ell_o=ELL_O),
                "sps": make_params(d, ell_o=2.0, R=math.sqrt(d) / 2.0)},
        inits={k: np.ones(d) for k in KINDS},
        reference={j: ref for j in range(4)},
        ref_ess=math.inf,
    )


# A cheap target at d = 100: time is the interpreter cost of kernels and
# geometry.  One chain per kernel, no tuner.
CAUCHY_D100 = Workload(
    name="cauchy-d100",
    dim=100,
    plans=(
        KernelPlan("scs", KernelConfig("scs", h=0.5), 20_000, 2_000, 1),
        KernelPlan("sps", KernelConfig("sps", h=0.5), 20_000, 2_000, 1),
        KernelPlan("rwm", KernelConfig("rwm", h=0.5), 20_000, 2_000, 1),
        KernelPlan("hmc", KernelConfig("hmc", h=0.1, target_accept=HMC_TARGET_ACCEPT),
                   5_000, 2_000, 1),
    ),
    setup=_cauchy_setup,
)


# --- skewt-d10 --------------------------------------------------------------

SKEWT_REF_DRAWS = 200_000


def _skewt_setup(seed, wrap):
    d = 10
    alpha = np.zeros(d)
    alpha[0], alpha[1] = 100.0, -100.0
    target = wrap(skew_t(xi=np.zeros(d), alpha_skew=alpha, nu=1.0))
    params, tune_summary = _tuned(target, seed, steps=200)
    rng = np.random.default_rng(derive_chain_seed(seed, 2))
    draws = target.exact_sample(rng, size=SKEWT_REF_DRAWS)
    reference = {j: dict(zip(TAIL_PROBS, np.quantile(draws[:, j], TAIL_PROBS)))
                 for j in range(4)}
    return Setup(target=target, params={"scs": params},
                 inits={"scs": np.ones(d), "hmc": np.ones(d)},
                 reference=reference, ref_ess=float(SKEWT_REF_DRAWS),
                 tune=tune_summary)


# A single-point skew-t density costs ~200 us and each kernel runs 10
# replicas: time is bound by the target and the replica runner.
SKEWT_D10 = Workload(
    name="skewt-d10",
    dim=10,
    plans=(
        KernelPlan("scs", KernelConfig("scs", h=0.1, adapt_burnin=0), 600, 100, 10),
        KernelPlan("hmc", KernelConfig("hmc", h=0.1, target_accept=HMC_TARGET_ACCEPT,
                                       adapt_burnin=0), 150, 100, 10),
    ),
    setup=_skewt_setup,
)


# --- logistic-d5 ------------------------------------------------------------

def load_logistic_reference(path=LOGISTIC_REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def logistic_data(ref):
    rng = np.random.default_rng(ref["data_seed"])
    return generate_separable_data(ref["n_obs"], ref["dim"], rng, link="logit")


def _logistic_setup(seed, wrap):
    ref = load_logistic_reference()
    target = wrap(binary_regression_posterior(logistic_data(ref)))
    params, tune_summary = _tuned(target, seed, steps=300)
    reference = {int(j): {p: q for p, q in zip(ref["probs"], qs)}
                 for j, qs in ref["quantiles"].items()}
    return Setup(target=target, params={"scs": params},
                 inits={"scs": np.zeros(target.dim), "hmc": np.zeros(target.dim)},
                 reference=reference, ref_ess=float(ref["min_tail_ess"]),
                 tune=tune_summary)


# The separable logistic posterior, where HMC mixes: a matrix product
# per call with a cheap gradient.  Not in BENCHMARK.json: its SCS checks
# fail on the package as it stands (see README.md).
LOGISTIC_D5 = Workload(
    name="logistic-d5",
    dim=5,
    plans=(
        KernelPlan("scs", KernelConfig("scs", h=0.5), 20_000, 2_000, 3),
        KernelPlan("hmc", KernelConfig("hmc", h=0.1, target_accept=HMC_TARGET_ACCEPT),
                   3_000, 1_000, 3),
    ),
    setup=_logistic_setup,
)

WORKLOADS = {w.name: w for w in (CAUCHY_D100, SKEWT_D10, LOGISTIC_D5)}


# --- one repetition ---------------------------------------------------------

@dataclass
class KindResult:
    sample_s: float
    iterations: int             # all chains, burn-in included
    ess: list                   # per coordinate, summed over replicas
    acceptance: float
    h_final: float
    clamp_hit: int              # chains whose step size reached the clamp
    tail_rel_err: float


@dataclass
class RepResult:
    wall_s: float
    setup_s: float
    diagnostics_s: float
    kinds: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tune: Optional[dict] = None
    digest: str = ""


def run_rep(workload, seed, scores, tracer=None, workers=1, clock=None):
    """Run the whole workload once.

    ``tracer`` wraps the target in a recording proxy; ``clock`` rescales
    each section's seconds (setup, each kernel, diagnostics), and the
    wall time is their sum.
    """
    clock = clock or RawClock()
    wrap = (lambda t: t) if tracer is None else (lambda t: TracedTarget(t, tracer))
    start = perf_counter()
    setup = workload.setup(seed, wrap)
    setup_s = clock.lap(perf_counter() - start)

    out = RepResult(wall_s=setup_s, setup_s=setup_s, diagnostics_s=0.0, tune=setup.tune)
    sampled = {}
    for k, plan in enumerate(workload.plans):
        out.attempted += plan.n_chains
        t0 = perf_counter()
        try:
            with _span(tracer, f"kernels.{plan.kind}"):
                chains = run_chains(
                    plan.config, setup.params.get(plan.kind), setup.target,
                    setup.inits[plan.kind], plan.iterations, burnin=plan.burnin,
                    seed=derive_chain_seed(seed, 10 + k), n_chains=plan.n_chains,
                    workers=min(workers, plan.n_chains))
        except ChainAborted:
            out.wall_s += clock.lap(perf_counter() - t0)
            out.failed += plan.n_chains
            continue
        sample_s = clock.lap(perf_counter() - t0)
        out.wall_s += sample_s
        good = [c for c in chains if np.all(np.isfinite(c.samples))]
        out.failed += len(chains) - len(good)
        if len(good) == len(chains):
            sampled[plan.kind] = (plan, chains, sample_s)

    t0 = perf_counter()
    with _span(tracer, "diagnostics"):
        digest = hashlib.sha1()
        for kind, (plan, chains, sample_s) in sampled.items():
            samples = [c.samples for c in chains]
            for s in samples:
                digest.update(s.tobytes())
            ess = summed_ess(scores, samples, workload.coords)
            checks = [chk for j, bulk in zip(workload.coords, ess)
                      for chk in tail_checks(samples, j, setup.reference[j],
                                             setup.ref_ess, bulk)]
            if kind == "scs":
                out.checks.extend(checks)
            traces = [c.step_size_trace for c in chains]
            out.kinds[kind] = KindResult(
                sample_s=sample_s,
                iterations=plan.iterations * plan.n_chains,
                ess=ess,
                acceptance=float(np.mean([c.acceptance_rate for c in chains])),
                h_final=float(np.median([t[-1] for t in traces])),
                clamp_hit=sum(bool(t.max() >= STEP_SIZE_CLAMP[1]
                                   or t.min() <= STEP_SIZE_CLAMP[0]) for t in traces),
                tail_rel_err=max(c.rel_err for c in checks),
            )
        out.digest = digest.hexdigest()
    out.diagnostics_s = clock.lap(perf_counter() - t0)
    out.wall_s += out.diagnostics_s
    out.attempted += len(out.checks)
    out.failed += sum(not c.passed for c in out.checks)
    return out
