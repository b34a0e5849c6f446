#!/usr/bin/env python3
"""Effective samples per second of brightside's kernels on three workloads.

Run from the repository root:

    python3 bench/run.py --workload cauchy-d100 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 1

With ``--trace 0`` it repeats the whole workload (set-up, sampling,
diagnostics) until ``--seconds`` have passed and prints the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced
repetitions of the same seeds, then times the public functions of
each layer directly, and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and every metric.
"""

import benchenv  # first: pins BLAS threads before numpy loads

import argparse
import json
import os
import resource
import sys
import threading
from statistics import median
from time import perf_counter

# Every end-to-end metric printed with --trace 0, gated or not.
REPORTED = ("wall_s", "setup_s", "scs.ess_per_s", "sps.ess_per_s", "rwm.ess_per_s",
            "hmc.ess_per_s", "peak_rss_mb", "fail_rate", "scs.iter_per_s",
            "sps.iter_per_s", "rwm.iter_per_s", "hmc.iter_per_s")
MIN_REPS = 3
# rough time the direct layer timings take; a traced run leaves it free
LAYER_SECONDS = 12.0


class PeakRss:
    """Highest resident set size of this process while the block runs.

    When the block raises the process's high-water mark (always so for
    the first workload of a process), that exact kernel figure is used;
    otherwise a 20 ms sampler of the current RSS gives the block's peak.
    """

    def __init__(self, interval=0.02):
        self.interval = interval
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _current(self):
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * self._page

    @staticmethod
    def _high_water():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def _sample(self):
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, self._current())

    def __enter__(self):
        self._hwm_before = self._high_water()
        self.peak = self._current()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        hwm = self._high_water()
        self.peak = hwm if hwm > self._hwm_before else max(self.peak, self._current())

    @property
    def mb(self):
        return self.peak / 2**20


def _rep_seed(seed, r):
    from brightside.kernels import derive_chain_seed
    return derive_chain_seed(seed, r)


def _pooled_rates(workload, reps):
    """Per kernel, iterations per second and ESS per second.

    Iterations per second is the median over repetitions.  ESS per
    second is that times ESS per iteration, where the ESS is summed over
    every replica of every repetition before the minimum over
    coordinates is taken.
    """
    rates = {}
    for plan in workload.plans:
        kinds = [r.kinds[plan.kind] for r in reps if plan.kind in r.kinds]
        if len(kinds) != len(reps):
            continue
        speed = median(k.iterations / k.sample_s for k in kinds)
        ess = [sum(k.ess[j] for k in kinds) for j in range(len(workload.coords))]
        rates[f"{plan.kind}.ess_per_s"] = speed * min(ess) / sum(k.iterations for k in kinds)
        rates[f"{plan.kind}.iter_per_s"] = speed
    return rates


def measure_plain(workload, seed, seconds, workers, scores):
    from calibration import CalibratedClock
    from workloads import run_rep

    reps = []
    deadline = perf_counter() + seconds
    with PeakRss() as rss:
        clock = CalibratedClock()
        while True:
            started = perf_counter()
            reps.append(run_rep(workload, _rep_seed(seed, len(reps)), scores,
                                workers=workers, clock=clock))
            last = perf_counter() - started
            if len(reps) >= MIN_REPS and perf_counter() + last > deadline:
                break
    metrics = {"wall_s": median(r.wall_s for r in reps),
               "setup_s": median(r.setup_s for r in reps),
               **_pooled_rates(workload, reps),
               "peak_rss_mb": rss.mb}
    return reps, metrics


def measure_traced(workload, seed, seconds, workers, scores):
    from calibration import CalibratedClock
    from layers import measure_all
    from tracing import Tracer
    from workloads import run_rep

    pairs = []
    clock = CalibratedClock()
    deadline = perf_counter() + max(seconds - LAYER_SECONDS, 0.0)
    while True:
        started = perf_counter()
        rep_seed = _rep_seed(seed, len(pairs))
        plain = run_rep(workload, rep_seed, scores, workers=workers, clock=clock)
        tracer = Tracer()
        traced = run_rep(workload, rep_seed, scores, tracer=tracer, workers=workers,
                         clock=clock)
        pairs.append((plain, traced, tracer))
        if perf_counter() + (perf_counter() - started) > deadline:
            break

    def med(fn):
        return median(fn(p) for p in pairs)

    children = ("targets.log_density", "targets.grad_log_density")
    layer = {}
    for name in children:
        layer[f"{name}.calls"] = med(lambda p: p[2].counters[f"{name}.calls"])
        layer[f"{name}.points"] = med(lambda p: p[2].counters[f"{name}.points"])
        layer[f"{name}.self_s"] = med(lambda p: p[2].total(name))
    for plan in workload.plans:
        kind = plan.kind
        if not all(kind in p[1].kinds for p in pairs):
            continue
        layer[f"kernels.{kind}.self_s"] = med(
            lambda p: p[2].self_time(f"kernels.{kind}", children))
        for field in ("acceptance", "h_final", "clamp_hit", "tail_rel_err"):
            layer[f"kernels.{kind}.{field}"] = med(lambda p: getattr(p[1].kinds[kind], field))
    for name, value in _pooled_rates(workload, [p[0] for p in pairs]).items():
        layer[f"kernels.{name}"] = value
    if pairs[0][1].tune is not None:
        for field in ("s", "nonfinite_steps", "final_kl", "h_o_margin"):
            layer[f"tuning.tune.{field}"] = med(lambda p: p[1].tune[field])
    layer["diagnostics.s"] = med(lambda p: p[2].total("diagnostics"))
    layer["trace.overhead"] = (median(p[1].wall_s for p in pairs)
                               / median(p[0].wall_s for p in pairs) - 1.0)
    timings = measure_all(benchenv.cpu_count())
    layer.update({name: t[0] for name, t in timings.items()})
    reps = [p[0] for p in pairs] + [p[1] for p in pairs]
    # a traced repetition must draw exactly what its untraced twin drew
    identical = sum(p[0].digest == p[1].digest for p in pairs)
    return reps, layer, timings, (len(pairs), len(pairs) - identical)


def unit_of(name):
    """Unit of any metric the bench reports, from its name."""
    suffixes = (
        (("_us", ".us_per_iter"), "us"),
        (("_ms",), "ms"),
        (("_per_s",), "1/s"),
        (("_mb",), "MB"),
        ((".s", "_s"), "s"),
        ((".calls", ".points", ".clamp_hit", ".nonfinite_steps"), "count"),
        ((".speedup",), "x"),
        ((".h_final",), "step"),
        ((".final_kl",), "nat"),
    )
    for ends, unit in suffixes:
        if name.endswith(ends):
            return unit
    return "fraction"


def run_workload(workload, args, workers, scores):
    """Measure one workload and return its report."""
    if args.trace:
        reps, metrics, timings, (n_pairs, n_diff) = measure_traced(
            workload, args.seed, args.seconds, workers, scores)
    else:
        reps, metrics = measure_plain(workload, args.seed, args.seconds, workers, scores)
        timings, n_pairs, n_diff = {}, 0, 0
    attempted = sum(r.attempted for r in reps) + n_pairs
    failed = sum(r.failed for r in reps) + n_diff
    if not args.trace:
        metrics["fail_rate"] = failed / attempted
    return {
        "workload": workload.name,
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
        "timing_counts": {n: {"median": t[0], "p90": t[1], "count": t[2]}
                          for n, t in timings.items()},
        "failed_checks": [vars(c) for r in reps for c in r.checks if not c.passed],
    }


def print_report(report, listed):
    """Every listed metric (n/a where the workload lacks it), then the rest."""
    print(f"== {report['workload']}: {report['repetitions']} repetitions, "
          f"{report['failed']}/{report['attempted']} operations failed")
    metrics = report["metrics"]
    counts = report["timing_counts"]
    for name in list(listed) + sorted(set(metrics) - set(listed)):
        if name not in metrics:
            print(f"  {name:50s} n/a: this workload does not run that kernel")
            continue
        tail = ""
        if name in counts:
            tail = f"  (p90 {counts[name]['p90']:.6g}, {counts[name]['count']} calls)"
        print(f"  {name:50s} {metrics[name]['value']:.6g} {unit_of(name)}{tail}")
    for c in report["failed_checks"]:
        print(f"  check failed: coordinate {c['coord']}, p = {c['prob']}: chain CDF "
              f"at the reference quantile {c['cdf_at_ref']:.4f}, standard error {c['std_err']:.4f}")


def declared(section):
    """Metric names BENCHMARK.json declares under ``section``.

    These are the names the result line carries: ``end_to_end`` with
    ``--trace 0`` and ``per_layer`` with ``--trace 1``.
    """
    with open(benchenv.ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="cauchy-d100, skewt-d10, logistic-d5 or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        benchenv.use_source_tree()
    except (benchenv.MissingPackage, ImportError) as exc:
        print(f"bench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    from rank_ess import NormalScores
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = benchenv.environment()
    # the GIL-bound pool gives little or no speedup; one worker keeps timings steady
    workers = 1
    print("env " + json.dumps(env))
    gated = declared("per_layer" if args.trace else "end_to_end")
    listed = gated if args.trace else REPORTED
    scores = NormalScores()
    reports = []
    for workload in chosen:
        report = run_workload(workload, args, workers, scores)
        print_report(report, listed)
        reports.append(report)

    printed = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "/"
        for name in gated:
            if name in report["metrics"]:
                printed[prefix + name] = report["metrics"][name]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    missing = [r["workload"] + "/" + n for r in reports for n in gated
               if n not in r["metrics"]]
    result = {"correct": failed == 0 and not missing, "attempted": attempted,
              "failed": failed, "metrics": printed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
