"""Experiment presets and artifact writers behind the command line.

Four presets reproduce the study designs at desk scale: heavy-tailed
Cauchy sampling across four kernels, skew-t sampling with a tuned
projection against Hamiltonian Monte Carlo, and separable logistic /
robit regression posteriors.  ``paper_scale`` switches every preset to
the full-size settings (hundreds of dimensions, millions of
iterations); the desk defaults finish in minutes.

All artifacts are plain CSV / JSON, deterministic for a fixed seed,
and re-readable through the loaders in this module.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (
    QuantileSpec,
    empirical_quantiles,
    ess,
    qq_report,
    relative_quantile_errors,
    write_qq_csv,
)
from .geometry import ProjectionParams, make_params
from .kernels import (
    HMC_TARGET_ACCEPT,
    WALK_TARGET_ACCEPT,
    KernelConfig,
    derive_chain_seed,
    run_chain,
    run_chains,
)
from .targets import (
    binary_regression_posterior,
    generate_separable_data,
    load_regression_csv,
    mv_student_t,
    skew_t,
)
from .tuning import TuneOptions, tune

PRESETS = ("cauchy", "skewt", "logistic", "robit", "custom")
SUMMARY_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """User-facing knobs; ``None`` means "use the preset default"."""

    preset: str = "cauchy"
    dimension: int | None = None
    iterations: int | None = None
    burnin: int | None = None
    thinning: int | None = None
    replicates: int | None = None
    seed: int = 0
    ell_o: float = 1.1
    kernel: str = "scs"
    nu: float | None = None          # target degrees of freedom (skewt)
    link: str | None = None          # custom preset link: logit or robit
    link_nu: float = 2.0             # robit link degrees of freedom
    prior_nu: float = 2.0            # regression prior degrees of freedom
    n_obs: int | None = None
    data_csv: str | None = None
    tuner_enabled: bool | None = None
    tuner_steps: int | None = None
    tuner_batch: int | None = None
    tuner_lr: float = 0.01
    h: float | None = None
    leapfrog_steps: int = 10
    target_accept: float | None = None
    reference_size: int | None = None
    out: str = "brightside-out"
    paper_scale: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    def validate(self) -> "ExperimentConfig":
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.kernel not in ("scs", "sps", "rwm", "hmc"):
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        for name in ("dimension", "iterations", "burnin", "thinning",
                     "replicates", "n_obs", "reference_size"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not 1.0 <= self.ell_o <= 2.0:
            raise ConfigError("ell_o must lie in [1, 2]")
        if self.preset == "custom" and self.data_csv is None:
            raise ConfigError("custom preset requires data_csv")
        if self.link is not None and self.link not in ("logit", "robit"):
            raise ConfigError(f"unknown link {self.link!r}")
        return self


@dataclass
class ResolvedExperiment:
    """Config with every preset default filled in."""

    preset: str
    dimension: int
    iterations: int
    burnin: int
    thinning: int
    replicates: int
    seed: int
    ell_o: float
    methods: tuple
    nu: float
    link: str
    link_nu: float
    prior_nu: float
    n_obs: int
    data_csv: str | None
    tuner_enabled: bool
    tuner_steps: int
    tuner_batch: int
    tuner_lr: float
    h: float | None
    leapfrog_steps: int
    target_accept: float | None
    reference_size: int
    hmc_iterations: int
    fixed_step: bool
    out: Path
    paper_scale: bool


_DESK = {
    "cauchy": dict(dimension=10, iterations=100_000, burnin=2_000, thinning=10,
                   replicates=3, reference_size=0, nu=1.0, tuner=False,
                   methods=("scs", "sps", "rwm", "hmc")),
    "skewt": dict(dimension=10, iterations=100_000, burnin=100, thinning=10,
                  replicates=5, reference_size=1_000_000, nu=1.0, tuner=True,
                  methods=("scs", "hmc")),
    "logistic": dict(dimension=5, iterations=100_000, burnin=2_000,
                     thinning=10, replicates=3, reference_size=10,
                     nu=2.0, tuner=True, methods=("scs", "hmc")),
}
_PAPER = {
    "cauchy": dict(dimension=100, iterations=500_000, burnin=10_000,
                   thinning=10, replicates=3, reference_size=0, nu=1.0,
                   tuner=False, methods=("scs", "sps", "rwm", "hmc")),
    "skewt": dict(dimension=100, iterations=500_000, burnin=100, thinning=50,
                  replicates=10, reference_size=10_000_000, nu=1.0,
                  tuner=True, methods=("scs", "hmc")),
    "logistic": dict(dimension=20, iterations=5_000_000, burnin=100,
                     thinning=500, replicates=20, reference_size=10,
                     nu=2.0, tuner=True, methods=("scs", "hmc")),
}
_PAPER["robit"] = _PAPER["logistic"]
_DESK["robit"] = _DESK["logistic"]
_PAPER["custom"] = _PAPER["logistic"]
_DESK["custom"] = _DESK["logistic"]

_PAPER_N_OBS = 50
_DESK_N_OBS = 30


def resolve(config: ExperimentConfig) -> ResolvedExperiment:
    config.validate()
    table = _PAPER if config.paper_scale else _DESK
    base = table[config.preset]

    def pick(name, default):
        v = getattr(config, name)
        return default if v is None else v

    iterations = pick("iterations", base["iterations"])
    burnin = pick("burnin", base["burnin"])
    if iterations <= burnin:
        raise ConfigError("iterations must exceed burnin")
    regression = config.preset in ("logistic", "robit", "custom")
    # the skew-t protocol fixes both step sizes at 0.1 instead of adapting
    fixed_step = config.preset == "skewt"
    hmc_iterations = iterations
    if regression and config.paper_scale:
        hmc_iterations = 1_000_000
    return ResolvedExperiment(
        preset=config.preset,
        dimension=pick("dimension", base["dimension"]),
        iterations=iterations,
        burnin=burnin,
        thinning=pick("thinning", base["thinning"]),
        replicates=pick("replicates", base["replicates"]),
        seed=config.seed,
        ell_o=config.ell_o,
        methods=base["methods"],
        nu=pick("nu", base["nu"]),
        link=pick("link", "robit" if config.preset == "robit" else "logit"),
        link_nu=config.link_nu,
        prior_nu=config.prior_nu,
        n_obs=pick("n_obs", _PAPER_N_OBS if config.paper_scale else _DESK_N_OBS),
        data_csv=config.data_csv,
        tuner_enabled=pick("tuner_enabled", base["tuner"]),
        tuner_steps=pick("tuner_steps", 2000 if config.paper_scale else 1000),
        tuner_batch=pick("tuner_batch", 2000 if config.paper_scale else 1000),
        tuner_lr=config.tuner_lr,
        h=config.h,
        leapfrog_steps=config.leapfrog_steps,
        target_accept=config.target_accept,
        reference_size=pick("reference_size", base["reference_size"]),
        hmc_iterations=hmc_iterations,
        fixed_step=fixed_step,
        out=Path(config.out),
        paper_scale=config.paper_scale,
    )


def build_target(resolved: ResolvedExperiment):
    """Target model plus (skewness, location) reference when meaningful."""
    d = resolved.dimension
    if resolved.preset == "cauchy":
        return mv_student_t(d, nu=1.0), None
    if resolved.preset == "skewt":
        alpha = np.zeros(d)
        alpha[0], alpha[1] = 100.0, -100.0
        xi = np.zeros(d)
        return skew_t(xi=xi, alpha_skew=alpha, nu=resolved.nu), (alpha, xi)
    if resolved.preset == "custom":
        data = load_regression_csv(resolved.data_csv, link=resolved.link,
                                   link_nu=resolved.link_nu,
                                   prior_nu=resolved.prior_nu)
        return binary_regression_posterior(data), None
    rng = np.random.default_rng(derive_chain_seed(resolved.seed, 999))
    data = generate_separable_data(resolved.n_obs, d, rng, link=resolved.link,
                                   link_nu=resolved.link_nu,
                                   prior_nu=resolved.prior_nu)
    return binary_regression_posterior(data), None


def sync_dimension(resolved: ResolvedExperiment, target) -> ResolvedExperiment:
    """Adopt the target's dimension (custom data may differ from preset)."""
    resolved.dimension = target.dim
    return resolved


def tuned_projection(resolved: ResolvedExperiment, target,
                     alignment_ref=None):
    """Projection parameters for the sphere kernels, tuned when enabled."""
    d = resolved.dimension
    report = None
    if resolved.tuner_enabled:
        opts = TuneOptions(mc_batch=resolved.tuner_batch,
                           steps=resolved.tuner_steps,
                           learning_rate=resolved.tuner_lr,
                           seed=derive_chain_seed(resolved.seed, 777))
        report = tune(target, resolved.ell_o, opts, alignment_ref=alignment_ref)
        h_o, mu, R = report.theta_bar
        params = make_params(d, h_o=h_o, ell_o=resolved.ell_o, mu=mu, R=R)
    else:
        params = make_params(d, ell_o=resolved.ell_o)
    return params, report


def default_init(resolved: ResolvedExperiment) -> np.ndarray:
    if resolved.preset in ("logistic", "robit", "custom"):
        return np.zeros(resolved.dimension)
    return np.ones(resolved.dimension)


def kernel_settings(resolved: ResolvedExperiment, method: str):
    """KernelConfig for one method under the preset's protocol."""
    if method == "hmc":
        h = resolved.h if resolved.h is not None else 0.1
        target_accept = (resolved.target_accept
                         if resolved.target_accept is not None
                         else HMC_TARGET_ACCEPT)
    else:
        h = resolved.h if resolved.h is not None else (
            0.1 if resolved.fixed_step else 0.5
        )
        target_accept = (resolved.target_accept
                         if resolved.target_accept is not None
                         else WALK_TARGET_ACCEPT)
    adapt = 0 if resolved.fixed_step else None
    return KernelConfig(kind=method, h=h,
                        leapfrog_steps=resolved.leapfrog_steps,
                        target_accept=target_accept, adapt_burnin=adapt)


def sphere_params_for(method: str, resolved: ResolvedExperiment,
                      tuned: ProjectionParams | None):
    if method == "scs":
        return tuned
    if method == "sps":
        d = resolved.dimension
        return make_params(d, ell_o=2.0, R=math.sqrt(d) / 2.0)
    return None


def reference_quantiles(resolved: ResolvedExperiment, target, coords, spec,
                        tuned_params):
    """Reference marginal quantiles per coordinate plus a description.

    Analytic for the Cauchy preset, exact-sampler draws for skew-t, and
    a ten-times-longer chain (with a second-seed agreement statistic)
    for the regression posteriors.
    """
    probs = np.asarray(spec.probs)
    if resolved.preset == "cauchy":
        q = np.tan(math.pi * (probs - 0.5))
        return {j: q for j in coords}, {"kind": "analytic", "size": 0}
    if resolved.preset == "skewt":
        rng = np.random.default_rng(derive_chain_seed(resolved.seed, 555))
        draws = target.exact_sample(rng, size=resolved.reference_size)
        refs = {j: np.quantile(draws[:, j], probs) for j in coords}
        return refs, {"kind": "exact_sampler", "size": resolved.reference_size}
    # regression: long-chain reference with a second-seed agreement check
    factor = max(int(resolved.reference_size), 2)
    params, _ = tuned_params
    iters = resolved.iterations * factor
    cfg = kernel_settings(resolved, "scs")
    refs = {}
    agreement = 0.0
    chains = [
        run_chain(cfg, params, target, default_init(resolved), iters,
                  burnin=resolved.burnin, thinning=resolved.thinning,
                  seed=derive_chain_seed(resolved.seed, 111 + k))
        for k in range(2)
    ]
    for j in coords:
        qa = empirical_quantiles(chains[0].samples[:, j], spec)
        qb = empirical_quantiles(chains[1].samples[:, j], spec)
        agreement = max(agreement,
                        float(np.max(relative_quantile_errors(qb, qa))))
        refs[j] = qa
    return refs, {"kind": "long_chain", "size": iters,
                  "agreement_max_rel_err": agreement}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every method of the preset and write QQ reports plus a summary.

    Returns the summary dictionary; artifacts land in ``out/<preset>/``.
    """
    resolved = resolve(config)
    out_dir = resolved.out / resolved.preset
    out_dir.mkdir(parents=True, exist_ok=True)
    target, alignment_ref = build_target(resolved)
    sync_dimension(resolved, target)
    tuned, tune_rep = tuned_projection(resolved, target, alignment_ref)
    spec = QuantileSpec()
    coords = tuple(range(min(4, resolved.dimension)))
    refs, ref_info = reference_quantiles(resolved, target, coords, spec,
                                         (tuned, tune_rep))

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "preset": resolved.preset,
        "seed": resolved.seed,
        "dimension": resolved.dimension,
        "iterations": resolved.iterations,
        "burnin": resolved.burnin,
        "thinning": resolved.thinning,
        "replicates": resolved.replicates,
        "ell_o": resolved.ell_o,
        "paper_scale": resolved.paper_scale,
        "reference": ref_info,
        "methods": {},
    }
    failures = []
    for m_idx, method in enumerate(resolved.methods):
        if method == "hmc" and not target.has_gradient:
            failures.append(method)
            continue
        cfg = kernel_settings(resolved, method)
        params = sphere_params_for(method, resolved, tuned)
        iters = (resolved.hmc_iterations if method == "hmc"
                 else resolved.iterations)
        t0 = time.perf_counter()
        chains = run_chains(cfg, params, target, default_init(resolved),
                            iters, burnin=resolved.burnin,
                            thinning=resolved.thinning,
                            seed=derive_chain_seed(resolved.seed, m_idx),
                            n_chains=resolved.replicates)
        wall = time.perf_counter() - t0
        reports = {j: qq_report(chains, j, refs[j], spec) for j in coords}
        qq_path = out_dir / f"{method}_qq.csv"
        write_qq_csv(qq_path, reports)
        rel = np.stack([reports[j].relative_errors for j in coords])
        tail_idx = [0, len(spec.probs) - 1]
        ess_vals = [ess(c.samples[:, j]) for c in chains for j in coords]
        summary["methods"][method] = {
            "acceptance_mean": float(np.mean([c.acceptance_rate
                                              for c in chains])),
            "max_rel_err": float(np.max(rel)),
            "tail_rel_err": float(np.max(rel[:, tail_idx])),
            "ess_median": float(np.median(ess_vals)),
            "wall_time_total": wall,
            "qq_csv": qq_path.name,
        }
    summary["failed_methods"] = failures
    if tune_rep is not None:
        summary["tuner"] = _tune_report_dict(tune_rep, resolved)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    validate_summary(summary)
    return summary


def validate_summary(summary: dict):
    """Schema check for experiment summaries (see README for the schema)."""
    required = {
        "schema_version": int, "preset": str, "seed": int, "dimension": int,
        "iterations": int, "burnin": int, "thinning": int, "replicates": int,
        "ell_o": float, "paper_scale": bool, "reference": dict,
        "methods": dict, "failed_methods": list,
    }
    for key, typ in required.items():
        if key not in summary:
            raise ValueError(f"summary missing key {key!r}")
        if not isinstance(summary[key], typ):
            raise ValueError(f"summary key {key!r} has wrong type")
    if summary["schema_version"] != SUMMARY_SCHEMA_VERSION:
        raise ValueError("unsupported summary schema version")
    ref = summary["reference"]
    if "kind" not in ref or ref["kind"] not in ("analytic", "exact_sampler",
                                                "long_chain"):
        raise ValueError("invalid reference description")
    method_keys = {"acceptance_mean", "max_rel_err", "tail_rel_err",
                   "ess_median", "wall_time_total", "qq_csv"}
    for name, entry in summary["methods"].items():
        missing = method_keys - set(entry)
        if missing:
            raise ValueError(f"method {name!r} summary missing {missing}")
    return summary


# --- single-chain sampling artifacts ----------------------------------------


def run_sample(config: ExperimentConfig) -> dict:
    """One chain of ``config.kernel``; writes samples.csv and report.json."""
    resolved = resolve(config)
    out_dir = resolved.out
    out_dir.mkdir(parents=True, exist_ok=True)
    target, alignment_ref = build_target(resolved)
    if config.kernel in ("scs", "sps"):
        tuned, _ = tuned_projection(resolved, target, alignment_ref)
        params = sphere_params_for(config.kernel, resolved, tuned)
    else:
        params = None
    cfg = kernel_settings(resolved, config.kernel)
    out = run_chain(cfg, params, target, default_init(resolved),
                    resolved.iterations, burnin=resolved.burnin,
                    thinning=resolved.thinning, seed=resolved.seed)
    write_samples_csv(out_dir / "samples.csv", out.samples,
                      burnin=resolved.burnin, thinning=resolved.thinning)
    report = {
        "kernel": config.kernel,
        "preset": resolved.preset,
        "dimension": resolved.dimension,
        "iterations": resolved.iterations,
        "burnin": resolved.burnin,
        "thinning": resolved.thinning,
        "seed": resolved.seed,
        "acceptance_rate": out.acceptance_rate,
        "step_size_final": float(out.step_size_trace[-1]),
        "ess": [float(ess(out.samples[:, j]))
                for j in range(out.samples.shape[1])],
        "wall_time": out.wall_time,
        "valid": out.valid,
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    return report


def write_samples_csv(path, samples, burnin=0, thinning=1):
    """Kept samples with their absolute iteration indices."""
    samples = np.asarray(samples)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter"] + [f"y_{j + 1}"
                                    for j in range(samples.shape[1])])
        for k in range(samples.shape[0]):
            it = burnin + (k + 1) * thinning
            writer.writerow([it] + [repr(float(v)) for v in samples[k]])


def load_samples_csv(path):
    """Read a samples.csv back as (iteration indices, sample matrix)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "iter" or not all(
            h == f"y_{j + 1}" for j, h in enumerate(header[1:])
        ):
            raise ValueError(f"unexpected samples CSV header {header!r}")
        rows = [row for row in reader if row]
    iters = np.array([int(r[0]) for r in rows])
    samples = np.array([[float(v) for v in r[1:]] for r in rows])
    return iters, samples


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- tuning artifacts --------------------------------------------------------


def _tune_report_dict(report, resolved) -> dict:
    h_o, mu, R = report.theta_bar
    data = {
        "theta_bar": {
            "h_o": [float(v) for v in h_o],
            "mu": [float(v) for v in mu],
            "R": float(R),
        },
        "ell_o": resolved.ell_o,
        "steps": int(report.objective_trace.size),
        "objective_trace": [float(v) for v in report.objective_trace],
        "grad_norm_trace": [float(v) for v in report.grad_norm_trace],
    }
    if report.alignment is not None:
        data["alignment"] = {
            "cosine_trace": [float(v) for v in report.alignment["cosine_trace"]],
            "mu_rel_trace": [float(v) for v in report.alignment["mu_rel_trace"]],
            "final_cosine": report.alignment["final_cosine"],
            "final_mu_rel": report.alignment["final_mu_rel"],
        }
    return data


def run_tune(config: ExperimentConfig) -> dict:
    """Tune the projection for the preset's target; writes tune.json."""
    resolved = resolve(config)
    out_dir = resolved.out
    out_dir.mkdir(parents=True, exist_ok=True)
    target, alignment_ref = build_target(resolved)
    opts = TuneOptions(mc_batch=resolved.tuner_batch,
                       steps=resolved.tuner_steps,
                       learning_rate=resolved.tuner_lr,
                       seed=resolved.seed)
    report = tune(target, resolved.ell_o, opts, alignment_ref=alignment_ref)
    data = _tune_report_dict(report, resolved)
    data["seed"] = resolved.seed
    data["preset"] = resolved.preset
    with open(out_dir / "tune.json", "w") as fh:
        json.dump(data, fh, indent=2)
    return data
