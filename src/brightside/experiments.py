"""Experiment presets and the three entry points that run them.

``ExperimentConfig`` is the one config type.  A field left ``None``
takes its preset default: ``resolve`` returns the same frozen class
filled in from ``_PRESET_TABLE``, which holds a desk row and a paper
row per preset (``paper_scale``: hundreds of dimensions, millions of
iterations; the desk rows finish in minutes) and the protocol values
that are not config fields.

Four presets reproduce the study designs: heavy-tailed Cauchy sampling
across four kernels, skew-t sampling with a tuned projection against
Hamiltonian Monte Carlo, and separable logistic / robit regression
posteriors; ``custom`` runs the regression protocol on a CSV written by
``targets.save_regression_csv``.  ``run_experiment`` compares the
preset's methods and writes ``<out>/<preset>/<method>_qq.csv`` and
``summary.json``; ``run_sample`` runs one chain of ``kernel`` and writes
``<out>/samples.csv`` and ``report.json``; ``run_tune`` runs the tuner
alone and writes ``<out>/tune.json``.  The three share one setup, so
one config gives them the same target, dimension and tuner seed.

All artifacts are plain CSV / JSON, deterministic for a fixed seed, and
re-readable (``diagnostics.read_qq_csv``, ``load_samples_csv``, json).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, replace
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
from .tuning import TuneOptions, TuneReport, tune

# Preset defaults as (desk row, paper row).  A key that names a config
# field fills that field where the config leaves it None.  The other
# keys are protocol values: ``methods`` compared by ``run_experiment``,
# ``hmc_iterations`` (None: the same as ``iterations``) and
# ``fixed_step``, which fixes both step sizes at 0.1 without adaptation.
# For the regression presets ``reference_size`` is the length factor of
# the long reference chains; ``nu`` is used by the skew-t target only.
_ALL_KERNELS = ("scs", "sps", "rwm", "hmc")
_LOGISTIC = (
    dict(dimension=5, iterations=100_000, burnin=2_000, thinning=10,
         replicates=3, reference_size=10, nu=2.0, tuner_enabled=True,
         tuner_steps=1000, tuner_batch=1000, n_obs=30, link="logit",
         methods=("scs", "hmc"), hmc_iterations=None, fixed_step=False),
    dict(dimension=20, iterations=5_000_000, burnin=100, thinning=500,
         replicates=20, reference_size=10, nu=2.0, tuner_enabled=True,
         tuner_steps=2000, tuner_batch=2000, n_obs=50, link="logit",
         methods=("scs", "hmc"), hmc_iterations=1_000_000, fixed_step=False),
)
_PRESET_TABLE = {
    "cauchy": (
        dict(dimension=10, iterations=100_000, burnin=2_000, thinning=10,
             replicates=3, reference_size=0, nu=1.0, tuner_enabled=False,
             tuner_steps=1000, tuner_batch=1000, n_obs=30, link="logit",
             methods=_ALL_KERNELS, hmc_iterations=None, fixed_step=False),
        dict(dimension=100, iterations=500_000, burnin=10_000, thinning=10,
             replicates=3, reference_size=0, nu=1.0, tuner_enabled=False,
             tuner_steps=2000, tuner_batch=2000, n_obs=50, link="logit",
             methods=_ALL_KERNELS, hmc_iterations=None, fixed_step=False),
    ),
    "skewt": (
        dict(dimension=10, iterations=100_000, burnin=100, thinning=10,
             replicates=5, reference_size=1_000_000, nu=1.0,
             tuner_enabled=True, tuner_steps=1000, tuner_batch=1000,
             n_obs=30, link="logit", methods=("scs", "hmc"),
             hmc_iterations=None, fixed_step=True),
        dict(dimension=100, iterations=500_000, burnin=100, thinning=50,
             replicates=10, reference_size=10_000_000, nu=1.0,
             tuner_enabled=True, tuner_steps=2000, tuner_batch=2000,
             n_obs=50, link="logit", methods=("scs", "hmc"),
             hmc_iterations=None, fixed_step=True),
    ),
    "logistic": _LOGISTIC,
    "robit": tuple(dict(row, link="robit") for row in _LOGISTIC),
    "custom": _LOGISTIC,
}
PRESETS = tuple(_PRESET_TABLE)
SUMMARY_SCHEMA_VERSION = 1
_BOOLS = (bool, np.bool_)
# (fields, accepted values, stored type, what the error asks for)
_TYPED_FIELDS = (
    (("ell_o", "tuner_lr", "link_nu", "prior_nu", "h", "nu"),
     lambda v: isinstance(v, numbers.Real), float, "a real number"),
    (("dimension", "iterations", "burnin", "thinning", "replicates", "seed",
      "n_obs", "tuner_steps", "tuner_batch", "leapfrog_steps", "reference_size"),
     lambda v: isinstance(v, numbers.Integral) and not isinstance(v, _BOOLS),
     int, "an integer"),
    (("tuner_enabled", "paper_scale"),
     lambda v: isinstance(v, _BOOLS), bool, "true or false"),
)


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """User-facing knobs; ``None`` means "use the preset default".

    The real-valued fields (``ell_o``, ``tuner_lr``, ``link_nu``,
    ``prior_nu``, ``h``, ``nu``) are stored as floats, so ``ell_o=1``
    means 1.0 everywhere downstream, the summary included.  The integer
    fields are stored as ``int`` (a numpy integer is converted) and the
    boolean fields as ``bool``; a value of another type raises
    ``ConfigError``.
    """

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

    def __post_init__(self):
        for names, accepts, stored, expected in _TYPED_FIELDS:
            for name in names:
                v = getattr(self, name)
                if v is None:
                    continue
                if not accepts(v):
                    raise ConfigError(f"{name} must be {expected}")
                object.__setattr__(self, name, stored(v))

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
        if self.kernel not in _ALL_KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        for names, least in ((("iterations", "burnin", "seed",
                               "reference_size"), 0),
                             (("dimension", "thinning", "replicates",
                               "tuner_steps", "tuner_batch",
                               "leapfrog_steps"), 1),
                             (("n_obs",), 2)):
            for name in names:
                v = getattr(self, name)
                if v is not None and v < least:
                    raise ConfigError(f"{name} must be at least {least}")
        if not 1.0 <= self.ell_o <= 2.0:
            raise ConfigError("ell_o must lie in [1, 2]")
        if self.preset == "custom" and self.data_csv is None:
            raise ConfigError("custom preset requires data_csv")
        if self.link is not None and self.link not in ("logit", "robit"):
            raise ConfigError(f"unknown link {self.link!r}")
        return self


def _preset_row(cfg: ExperimentConfig) -> dict:
    """The preset table row for the config's preset and scale."""
    return _PRESET_TABLE[cfg.preset][1 if cfg.paper_scale else 0]


def resolve(config: ExperimentConfig) -> ExperimentConfig:
    """Validate ``config`` and fill every ``None`` from the preset table."""
    config.validate()
    defaults = {name: value for name, value in _preset_row(config).items()
                if name in ExperimentConfig.__dataclass_fields__
                and getattr(config, name) is None}
    cfg = replace(config, **defaults)
    if cfg.iterations <= cfg.burnin:
        raise ConfigError("iterations must exceed burnin")
    return cfg


def build_target(cfg: ExperimentConfig):
    """Target model plus (skewness, location) reference when meaningful."""
    d = cfg.dimension
    if cfg.preset == "cauchy":
        return mv_student_t(d, nu=1.0), None
    if cfg.preset == "skewt":
        alpha = np.zeros(d)
        alpha[0], alpha[1] = 100.0, -100.0
        xi = np.zeros(d)
        return skew_t(xi=xi, alpha_skew=alpha, nu=cfg.nu), (alpha, xi)
    if cfg.preset == "custom":
        data = load_regression_csv(cfg.data_csv, link=cfg.link,
                                   link_nu=cfg.link_nu,
                                   prior_nu=cfg.prior_nu)
        return binary_regression_posterior(data), None
    rng = np.random.default_rng(derive_chain_seed(cfg.seed, 999))
    data = generate_separable_data(cfg.n_obs, d, rng, link=cfg.link,
                                   link_nu=cfg.link_nu,
                                   prior_nu=cfg.prior_nu)
    return binary_regression_posterior(data), None


def _setup(config: ExperimentConfig, subdir: str = ""):
    """Resolve, create ``out/subdir`` and build the target.

    Returns ``(cfg, out_dir, target, alignment_ref)``; ``cfg`` carries
    the target's dimension, which a custom data set sets.
    """
    cfg = resolve(config)
    out_dir = Path(cfg.out) / subdir
    out_dir.mkdir(parents=True, exist_ok=True)
    target, alignment_ref = build_target(cfg)
    return replace(cfg, dimension=target.dim), out_dir, target, alignment_ref


def _tune(cfg: ExperimentConfig, target, alignment_ref) -> TuneReport:
    """The tuner run shared by ``run_experiment`` and ``run_tune``."""
    opts = TuneOptions(mc_batch=cfg.tuner_batch, steps=cfg.tuner_steps,
                       learning_rate=cfg.tuner_lr,
                       seed=derive_chain_seed(cfg.seed, 777))
    return tune(target, cfg.ell_o, opts, alignment_ref=alignment_ref)


def tuned_projection(cfg: ExperimentConfig, target, alignment_ref=None):
    """Projection parameters for the sphere kernels, tuned when enabled.

    Returns ``(params, report)``; ``report`` is None without the tuner.
    """
    if not cfg.tuner_enabled:
        return make_params(cfg.dimension, ell_o=cfg.ell_o), None
    report = _tune(cfg, target, alignment_ref)
    h_o, mu, R = report.theta_bar
    params = make_params(cfg.dimension, h_o=h_o, ell_o=cfg.ell_o, mu=mu, R=R)
    return params, report


def default_init(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.preset in ("logistic", "robit", "custom"):
        return np.zeros(cfg.dimension)
    return np.ones(cfg.dimension)


def kernel_settings(cfg: ExperimentConfig, method: str) -> KernelConfig:
    """KernelConfig for one method under the preset's protocol."""
    fixed_step = _preset_row(cfg)["fixed_step"]
    if method == "hmc":
        h, target_accept = 0.1, HMC_TARGET_ACCEPT
    else:
        h, target_accept = (0.1 if fixed_step else 0.5), WALK_TARGET_ACCEPT
    return KernelConfig(
        kind=method, h=h if cfg.h is None else cfg.h,
        leapfrog_steps=cfg.leapfrog_steps,
        target_accept=(target_accept if cfg.target_accept is None
                       else cfg.target_accept),
        adapt_burnin=0 if fixed_step else None)


def sphere_params_for(method: str, cfg: ExperimentConfig,
                      tuned: ProjectionParams | None):
    if method == "scs":
        return tuned
    if method == "sps":
        d = cfg.dimension
        return make_params(d, ell_o=2.0, R=math.sqrt(d) / 2.0)
    return None


def reference_quantiles(cfg: ExperimentConfig, target, coords, spec,
                        tuned: ProjectionParams):
    """Reference marginal quantiles per coordinate plus a description.

    Analytic for the Cauchy preset, exact-sampler draws for skew-t, and
    a ``reference_size``-times-longer scs chain on the ``tuned``
    projection (with a second-seed agreement statistic) for the
    regression posteriors.
    """
    probs = np.asarray(spec.probs)
    if cfg.preset == "cauchy":
        q = np.tan(math.pi * (probs - 0.5))
        return {j: q for j in coords}, {"kind": "analytic", "size": 0}
    if cfg.preset == "skewt":
        rng = np.random.default_rng(derive_chain_seed(cfg.seed, 555))
        draws = target.exact_sample(rng, size=cfg.reference_size)
        refs = {j: np.quantile(draws[:, j], probs) for j in coords}
        return refs, {"kind": "exact_sampler", "size": cfg.reference_size}
    # regression: long-chain reference with a second-seed agreement check
    iters = cfg.iterations * max(int(cfg.reference_size), 2)
    kernel = kernel_settings(cfg, "scs")
    chains = [
        run_chain(kernel, tuned, target, default_init(cfg), iters,
                  burnin=cfg.burnin, thinning=cfg.thinning,
                  seed=derive_chain_seed(cfg.seed, 111 + k))
        for k in range(2)
    ]
    refs = {}
    agreement = 0.0
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
    ``summary.json`` is written only once the summary validates.
    """
    cfg, out_dir, target, alignment_ref = _setup(config, config.preset)
    row = _preset_row(cfg)
    tuned, tune_rep = tuned_projection(cfg, target, alignment_ref)
    spec = QuantileSpec()
    coords = tuple(range(min(4, cfg.dimension)))
    refs, ref_info = reference_quantiles(cfg, target, coords, spec, tuned)

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "preset": cfg.preset,
        "seed": cfg.seed,
        "dimension": cfg.dimension,
        "iterations": cfg.iterations,
        "burnin": cfg.burnin,
        "thinning": cfg.thinning,
        "replicates": cfg.replicates,
        "ell_o": cfg.ell_o,
        "paper_scale": cfg.paper_scale,
        "reference": ref_info,
        "methods": {},
    }
    failures = []
    for m_idx, method in enumerate(row["methods"]):
        if method == "hmc" and not target.has_gradient:
            failures.append(method)
            continue
        iters = cfg.iterations
        if method == "hmc" and row["hmc_iterations"] is not None:
            iters = row["hmc_iterations"]
        t0 = time.perf_counter()
        chains = run_chains(kernel_settings(cfg, method),
                            sphere_params_for(method, cfg, tuned), target,
                            default_init(cfg), iters, burnin=cfg.burnin,
                            thinning=cfg.thinning,
                            seed=derive_chain_seed(cfg.seed, m_idx),
                            n_chains=cfg.replicates)
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
        summary["tuner"] = _tune_report_dict(tune_rep, cfg)
    validate_summary(summary)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def validate_summary(summary: dict):
    """Check an experiment summary against the schema; return it.

    Schema version ``SUMMARY_SCHEMA_VERSION`` (1).  Required top-level
    keys: ``schema_version``, ``seed``, ``dimension``, ``iterations``,
    ``burnin``, ``thinning`` and ``replicates`` (int); ``preset`` (str);
    ``ell_o`` (float); ``paper_scale`` (bool); ``failed_methods`` (list
    of methods that could not run, e.g. hmc on a target without a
    gradient); ``reference`` (dict whose ``kind`` is ``analytic``,
    ``exact_sampler`` or ``long_chain``, next to its ``size``); and
    ``methods`` (dict keyed by method name, each entry holding
    ``acceptance_mean``, ``max_rel_err``, ``tail_rel_err``,
    ``ess_median``, ``wall_time_total`` in seconds and ``qq_csv``, the
    file name of its QQ table).  A tuned run adds ``tuner``, the
    ``tune.json`` fields without ``seed`` and ``preset``.  Raises
    ``ValueError`` on the first violation.
    """
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
    cfg, out_dir, target, alignment_ref = _setup(config)
    tuned = None
    if cfg.kernel == "scs":
        tuned, _ = tuned_projection(cfg, target, alignment_ref)
    out = run_chain(kernel_settings(cfg, cfg.kernel),
                    sphere_params_for(cfg.kernel, cfg, tuned), target,
                    default_init(cfg), cfg.iterations, burnin=cfg.burnin,
                    thinning=cfg.thinning, seed=cfg.seed)
    write_samples_csv(out_dir / "samples.csv", out.samples,
                      burnin=cfg.burnin, thinning=cfg.thinning)
    report = {
        "kernel": cfg.kernel,
        "preset": cfg.preset,
        "dimension": cfg.dimension,
        "iterations": cfg.iterations,
        "burnin": cfg.burnin,
        "thinning": cfg.thinning,
        "seed": cfg.seed,
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


# --- tuning artifacts --------------------------------------------------------


def _tune_report_dict(report: TuneReport, cfg: ExperimentConfig) -> dict:
    h_o, mu, R = report.theta_bar
    data = {
        "theta_bar": {
            "h_o": [float(v) for v in h_o],
            "mu": [float(v) for v in mu],
            "R": float(R),
        },
        "ell_o": cfg.ell_o,
        "steps": int(report.objective_trace.size),
        "objective_trace": [float(v) for v in report.objective_trace],
        "grad_norm_trace": [float(v) for v in report.grad_norm_trace],
        "h_o_rescaled": report.h_o_rescaled,
        "final_margin": report.final_margin,
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
    """Tune the projection for the preset's target; writes tune.json.

    The tuner runs as it does inside ``run_experiment`` (same seed), so
    both report the same ``theta_bar`` for one config.
    """
    cfg, out_dir, target, alignment_ref = _setup(config)
    data = _tune_report_dict(_tune(cfg, target, alignment_ref), cfg)
    data["seed"] = cfg.seed
    data["preset"] = cfg.preset
    with open(out_dir / "tune.json", "w") as fh:
        json.dump(data, fh, indent=2)
    return data
