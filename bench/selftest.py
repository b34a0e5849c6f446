"""Tests of the benchmark's own pieces; not part of the package's test suite.

Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import benchenv  # noqa: E402

benchenv.use_source_tree()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from brightside.diagnostics import ess  # noqa: E402
from brightside.geometry import make_params  # noqa: E402
from brightside.kernels import KernelConfig, run_chains  # noqa: E402
from brightside.targets import TargetModel, mv_student_t  # noqa: E402

import run  # noqa: E402
from checks import cauchy_reference, tail_checks  # noqa: E402
from rank_ess import NormalScores  # noqa: E402
from tracing import TracedTarget, Tracer  # noqa: E402
from workloads import KernelPlan, Setup, Workload, run_rep  # noqa: E402


class Gaussian(TargetModel):
    """Standard normal: light-tailed, so its chains must fail Cauchy checks."""

    def __init__(self, d):
        self.dim = d

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        return -0.5 * np.sum(y * y, axis=-1)


def _copula_ar1(n, rho, seed):
    """AR(1) on the normal scale mapped to standard Cauchy marginals."""
    e = np.random.default_rng(seed).standard_normal(n)
    z = np.empty(n)
    z[0] = e[0]
    for i in range(1, n):
        z[i] = rho * z[i - 1] + math.sqrt(1.0 - rho * rho) * e[i]
    u = np.array([NormalDist().cdf(v) for v in z])
    return np.tan(np.pi * (u - 0.5))


@pytest.mark.parametrize("seed", range(5))
def test_rank_ess_close_to_n_on_iid_cauchy(seed):
    n = 4000
    x = np.random.default_rng(seed).standard_cauchy(n)
    assert NormalScores().ess(x) >= 0.85 * n


@pytest.mark.parametrize("seed", range(3))
def test_rank_ess_recovers_ar1_where_raw_ess_overshoots(seed):
    n, rho = 20_000, 0.9
    x = _copula_ar1(n, rho, seed)
    truth = n * (1.0 - rho) / (1.0 + rho)
    assert abs(NormalScores().ess(x) / truth - 1.0) < 0.25
    assert ess(x) > 3.0 * truth


def test_normal_scores_tie_average_rank():
    z = NormalScores().normalise(np.array([3.0, 1.0, 1.0, 2.0]))
    assert z[1] == z[2] and z[1] < z[3] < z[0]
    # the tied pair shares the average rank 1.5 of n = 4
    assert z[1] == NormalDist().inv_cdf((1.5 - 0.375) / 4.25)


def _scs_chains(target, d, seed=0):
    return run_chains(KernelConfig("scs", h=0.5), make_params(d, ell_o=1.1), target,
                      np.ones(d), 6000, burnin=1000, seed=seed, n_chains=2, workers=1)


def test_tail_check_passes_on_cauchy_chain():
    d = 4
    chains = [c.samples for c in _scs_chains(mv_student_t(d, nu=1.0), d)]
    checks = [c for j in range(d) for c in tail_checks(chains, j, cauchy_reference(), math.inf)]
    assert all(c.passed for c in checks)


def test_tail_check_trips_on_wrong_target():
    """Negative control: a Gaussian posterior checked against Cauchy quantiles."""
    d = 4
    chains = [c.samples for c in _scs_chains(Gaussian(d), d)]
    checks = [c for j in range(d) for c in tail_checks(chains, j, cauchy_reference(), math.inf)]
    assert not any(c.passed for c in checks)


def _tiny_setup(seed, wrap):
    d = 4
    ref = cauchy_reference()
    return Setup(target=wrap(mv_student_t(d, nu=1.0)),
                 params={"scs": make_params(d, ell_o=1.1)},
                 inits={"scs": np.ones(d), "hmc": np.ones(d)},
                 reference={j: ref for j in range(d)}, ref_ess=math.inf)


TINY = Workload(
    name="tiny", dim=4, setup=_tiny_setup,
    plans=(KernelPlan("scs", KernelConfig("scs", h=0.5), 3000, 500, 3),
           KernelPlan("hmc", KernelConfig("hmc", h=0.1), 300, 100, 3)),
)


def test_traced_run_draws_identical_samples():
    scores = NormalScores()
    plain = run_rep(TINY, 7, scores, workers=2)
    tracer = Tracer()
    traced = run_rep(TINY, 7, scores, tracer=tracer, workers=2)
    assert plain.digest == traced.digest
    assert plain.failed == traced.failed == 0
    assert tracer.counters["targets.log_density.calls"] > 0
    assert tracer.self_time("kernels.scs", ["targets.log_density"]) > 0.0


def test_proxy_counters_exact_under_threads():
    """rwm calls the density once at the start and once per iteration."""
    tracer = Tracer()
    target = TracedTarget(mv_student_t(3, nu=1.0), tracer)
    n_chains, iters = 8, 400
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_chains(KernelConfig("rwm", h=0.5), None, target, np.zeros(3), iters,
                   seed=1, n_chains=n_chains, workers=4)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counters["targets.log_density.calls"] == n_chains * (iters + 1)
    assert tracer.counters["targets.log_density.points"] == n_chains * (iters + 1)
    assert len(tracer.spans["targets.log_density"]) == n_chains * (iters + 1)


def test_union_self_time_does_not_double_count():
    tracer = Tracer()
    tracer.record("parent", 0.0, 10.0)
    tracer.record("child", 1.0, 4.0)
    tracer.record("child", 2.0, 5.0)   # overlaps the first child
    tracer.record("child", 7.0, 8.0)
    tracer.record("child", 11.0, 12.0)  # outside the parent
    assert tracer.self_time("parent", ["child"]) == pytest.approx(10.0 - 4.0 - 1.0)


def test_benchmark_json_matches_the_script():
    with open(benchenv.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
    assert set(m["name"] for m in spec["end_to_end"]) <= set(run.REPORTED)
    assert [w["name"] for w in spec["workloads"]] == ["cauchy-d100", "skewt-d10"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cauchy-d100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
