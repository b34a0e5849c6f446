"""Variational selection of the projection parameters.

For a fixed observer latitude, the longitude, shift and scale are
chosen to minimize the KL divergence between the pushforward of the
uniform cap law and the target.  The objective is a Monte Carlo
average over uniform cap samples of

    -log J(x) - log pi(forward(x)),

which equals the divergence up to an additive constant (cap area and
target normalizer).  Gradients are reparameterized: the cap samples are
held fixed while the forward map and Jacobian move with the
parameters, so every term is differentiated in closed form; targets
without gradients fall back to central finite differences.  The scale
is optimized as log R to stay positive, and the longitude is radially
projected back into the observer ball after every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonfiniteGradient, ObserverOutsideBall, TuningFailed
from .geometry import (
    INTERIOR_MARGIN,
    ProjectionParams,
    cap_forward,
    sample_uniform_cap,
    validate_params,
)
from .targets import TargetModel


@dataclass(frozen=True)
class TuneOptions:
    """Optimizer settings; batch size and learning rate follow the
    defaults that work well for targets in the hundreds of dimensions."""

    mc_batch: int = 2000
    steps: int = 2000
    learning_rate: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    init: Optional[tuple] = None  # (h_o, mu, R)

    def __post_init__(self):
        if self.mc_batch < 1:
            raise ValueError("mc_batch must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TuneReport:
    """Optimized parameters with per-step traces.

    ``alignment`` is present when a skewness/location reference was
    supplied: a dict with per-step cosine and relative-distance traces
    plus their final values.
    """

    theta_bar: tuple
    objective_trace: np.ndarray
    grad_norm_trace: np.ndarray
    alignment: Optional[dict] = None


def _params_from(theta_bar, ell_o, d) -> ProjectionParams:
    h_o, mu, R = theta_bar
    return validate_params(
        ProjectionParams(h_o=np.asarray(h_o, dtype=float), ell_o=ell_o,
                         mu=np.asarray(mu, dtype=float), R=float(R), d=d)
    )


def kl_objective(theta_bar, ell_o, target: TargetModel, cap_samples) -> float:
    """Monte Carlo KL divergence (up to a constant) of the pushforward.

    Mean over the cap samples of -log J - log pi(forward point); exact
    cancellation of the two terms certifies a perfectly matched target.
    """
    return float(np.mean(kl_integrand(theta_bar, ell_o, target, cap_samples)))


def kl_integrand(theta_bar, ell_o, target: TargetModel, cap_samples) -> np.ndarray:
    """Per-sample values whose mean is ``kl_objective``."""
    cap_samples = np.asarray(cap_samples, dtype=float)
    p = _params_from(theta_bar, ell_o, cap_samples.shape[-1] - 1)
    y, log_jac, _, _ = cap_forward(cap_samples, p)
    return -log_jac - np.asarray(target.log_density(y), dtype=float)


def _analytic_gradient(theta_bar, ell_o, target, cap_samples):
    cap_samples = np.asarray(cap_samples, dtype=float)
    p = _params_from(theta_bar, ell_o, cap_samples.shape[-1] - 1)
    y, log_jac, tt, bracket = cap_forward(cap_samples, p)
    hx = cap_samples[:, :-1]
    lx = cap_samples[:, -1] + 1.0
    glp = np.asarray(target.grad_log_density(y), dtype=float)
    if not np.all(np.isfinite(glp)):
        raise NonfiniteGradient("target gradient is not finite on the batch")
    yhat = (y - p.mu) / p.R
    g_mu = -np.mean(glp, axis=0)
    g_R = -p.d / p.R - float(np.mean(np.sum(glp * yhat, axis=1)))
    # d(logJ)/d(h_o) = -hx/bracket; d(y)/d(h_o) = -R lx/tt per sample
    g_ho = (np.mean(hx / bracket[:, None], axis=0)
            + p.R * np.mean((lx / tt)[:, None] * glp, axis=0))
    objective = float(np.mean(-log_jac - target.log_density(y)))
    return objective, (g_ho, g_mu, g_R)


def _fd_gradient(theta_bar, ell_o, target, cap_samples, rel_step=1e-5):
    """Central differences on all 2d+1 coordinates, common cap samples."""
    h_o, mu, R = (np.asarray(theta_bar[0], dtype=float),
                  np.asarray(theta_bar[1], dtype=float), float(theta_bar[2]))
    d = h_o.shape[0]

    def evaluate(ho_v, mu_v, R_v):
        try:
            return kl_objective((ho_v, mu_v, R_v), ell_o, target, cap_samples)
        except ObserverOutsideBall:
            ho_v = project_params((ho_v, mu_v, R_v), ell_o)[0]
            return kl_objective((ho_v, mu_v, R_v), ell_o, target, cap_samples)

    def central(setter, value):
        eps = rel_step * (1.0 + abs(value))
        return (setter(value + eps) - setter(value - eps)) / (2.0 * eps)

    g_ho = np.zeros(d)
    for j in range(d):
        def at(v, j=j):
            ho_v = h_o.copy()
            ho_v[j] = v
            return evaluate(ho_v, mu, R)
        g_ho[j] = central(at, h_o[j])
    g_mu = np.zeros(d)
    for j in range(d):
        def at(v, j=j):
            mu_v = mu.copy()
            mu_v[j] = v
            return evaluate(h_o, mu_v, R)
        g_mu[j] = central(at, mu[j])
    g_R = central(lambda v: evaluate(h_o, mu, v), R)
    objective = evaluate(h_o, mu, R)
    return objective, (g_ho, g_mu, g_R)


def kl_gradient(theta_bar, ell_o, target: TargetModel, cap_samples):
    """Gradient of the Monte Carlo objective over (h_o, mu, R).

    Uses the closed-form chain rule when the target has a gradient,
    else central finite differences on the same batch.
    """
    if target.has_gradient:
        return _analytic_gradient(theta_bar, ell_o, target, cap_samples)[1]
    return _fd_gradient(theta_bar, ell_o, target, cap_samples)[1]


def project_params(theta_bar, ell_o):
    """Radially rescale the longitude back inside the observer ball.

    Projects onto twice the interior margin so the result validates
    even after the rescaling round-off, or onto h_o = 0 where that
    margin leaves no room.  At the stereographic latitude ell_o = 2 the
    only admissible longitude is h_o = 0; where no longitude is
    admissible it raises ``ObserverOutsideBall``.
    """
    h_o, mu, R = theta_bar
    h_o = np.asarray(h_o, dtype=float)
    mu, R = np.asarray(mu, dtype=float), float(R)
    if ell_o == 2.0:
        return np.zeros_like(h_o), mu, R
    limit = 1.0 - (ell_o - 1.0) ** 2 - INTERIOR_MARGIN
    if not (1.0 <= ell_o < 2.0 and limit >= 0.0):
        raise ObserverOutsideBall(
            f"no observer longitude is admissible at ell_o = {ell_o}")
    norm_sq = float(h_o @ h_o)
    if norm_sq > limit:
        target_sq = max(1.0 - (ell_o - 1.0) ** 2 - 2.0 * INTERIOR_MARGIN, 0.0)
        h_o = h_o * math.sqrt(target_sq / norm_sq)
    return h_o, mu, R


def alignment_metrics(theta_bar, alpha_skew, xi):
    """Cosine of (h_o, skewness) and location error of (mu, location).

    The location error is the root-mean-square coordinate distance
    |mu - xi| / sqrt(d), defined for every xi, including the zero
    location of the skew-t preset.  Only a zero skewness vector, which
    has no direction, raises.
    """
    h_o, mu, _ = theta_bar
    h_o = np.asarray(h_o, dtype=float)
    alpha_skew = np.asarray(alpha_skew, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n_h = np.linalg.norm(h_o)
    n_a = np.linalg.norm(alpha_skew)
    if n_a == 0.0:
        raise ValueError("skewness reference must be nonzero")
    cosine = 0.0 if n_h == 0.0 else float(h_o @ alpha_skew / (n_h * n_a))
    return cosine, float(np.linalg.norm(mu - xi) / math.sqrt(xi.shape[0]))


def tune(target: TargetModel, ell_o, opts: TuneOptions | None = None,
         alignment_ref=None) -> TuneReport:
    """Adam descent on the Monte Carlo KL objective.

    Each step draws a fresh uniform cap batch (stochastic gradients),
    updates (h_o, mu, log R) with Adam, and projects the longitude back
    into the observer ball.  Deterministic given ``opts.seed``.  Aborts
    after ten consecutive non-finite objective values.

    ``alignment_ref``, when given as (skewness vector, location
    vector), adds per-step alignment traces to the report.
    """
    opts = opts or TuneOptions()
    rng = np.random.default_rng(opts.seed)
    d = target.dim
    if opts.init is not None:
        h_o = np.asarray(opts.init[0], dtype=float).copy()
        mu = np.asarray(opts.init[1], dtype=float).copy()
        R = float(opts.init[2])
    else:
        h_o = np.zeros(d)
        mu = np.zeros(d)
        R = 1.0
    h_o, mu, R = project_params((h_o, mu, R), ell_o)
    _params_from((h_o, mu, R), ell_o, d)
    rho = math.log(R)

    n_par = 2 * d + 1
    m = np.zeros(n_par)
    v = np.zeros(n_par)
    b1, b2, eps = opts.adam_beta1, opts.adam_beta2, opts.adam_eps
    lr = opts.learning_rate

    objective_trace = np.empty(opts.steps)
    grad_norm_trace = np.empty(opts.steps)
    cosine_trace = np.empty(opts.steps) if alignment_ref is not None else None
    mu_rel_trace = np.empty(opts.steps) if alignment_ref is not None else None

    bad_streak = 0
    analytic = target.has_gradient
    for step in range(opts.steps):
        cap = sample_uniform_cap(d, ell_o, rng, size=opts.mc_batch)
        theta = (h_o, mu, R)
        try:
            if analytic:
                obj, (g_ho, g_mu, g_R) = _analytic_gradient(
                    theta, ell_o, target, cap
                )
            else:
                obj, (g_ho, g_mu, g_R) = _fd_gradient(theta, ell_o, target, cap)
        except NonfiniteGradient:
            obj = math.nan
            g_ho = g_mu = None
        objective_trace[step] = obj
        if not math.isfinite(obj) or g_ho is None or not (
            np.all(np.isfinite(g_ho)) and np.all(np.isfinite(g_mu))
            and math.isfinite(g_R)
        ):
            bad_streak += 1
            grad_norm_trace[step] = math.nan
            if bad_streak >= 10:
                raise TuningFailed(
                    f"objective non-finite for {bad_streak} consecutive steps "
                    f"(last finite parameters: R={R:.4g})"
                )
            if cosine_trace is not None:
                cos, rel = alignment_metrics(theta, *alignment_ref)
                cosine_trace[step] = cos
                mu_rel_trace[step] = rel
            continue
        bad_streak = 0

        grad = np.concatenate([g_ho, g_mu, [g_R * R]])  # d/d(rho) = R d/dR
        grad_norm_trace[step] = float(np.linalg.norm(grad))
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        t = step + 1
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        h_o = h_o - update[:d]
        mu = mu - update[d:2 * d]
        rho = rho - update[2 * d]
        R = math.exp(rho)
        h_o, mu, R = project_params((h_o, mu, R), ell_o)

        if cosine_trace is not None:
            cos, rel = alignment_metrics((h_o, mu, R), *alignment_ref)
            cosine_trace[step] = cos
            mu_rel_trace[step] = rel

    alignment = None
    if alignment_ref is not None:
        alignment = {
            "cosine_trace": cosine_trace,
            "mu_rel_trace": mu_rel_trace,
            "final_cosine": float(cosine_trace[-1]),
            "final_mu_rel": float(mu_rel_trace[-1]),
        }
    return TuneReport(
        theta_bar=(h_o, mu, R),
        objective_trace=objective_trace,
        grad_norm_trace=grad_norm_trace,
        alignment=alignment,
    )
