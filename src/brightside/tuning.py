"""Variational selection of the projection parameters.

For a fixed observer latitude, the longitude, shift and scale are
chosen to minimize the KL divergence between the pushforward of the
uniform cap law and the target.  The objective is a Monte Carlo
average over uniform cap samples of

    -log J(x) - log pi(forward(x)),

which equals the divergence up to an additive constant (cap area and
target normalizer).  Each step's batch is the next ``mc_batch``
consecutive bright rows of the tuner's stream (``geometry._bright_rows``,
the sampler behind ``sample_uniform_cap``): the bright rows one step
draws past its batch open the next, so the first batch is
``sample_uniform_cap(d, ell_o, default_rng(seed), size=mc_batch)``.
Gradients are reparameterized: the cap samples are held fixed while the
forward map and Jacobian move with the parameters, so every term is
differentiated in closed form (``_objective_and_gradient``), from one
``log_density_and_grad`` call per step that gives the objective and the
target gradient on the batch together.  ``tune`` raises ValueError
for a target without a gradient before it draws anything.  The scale
is optimized as log R to stay positive, and the longitude is radially
projected back into the observer ball after every update; the report
counts those projections and gives the final observer's margin to the
ball's edge.

``TuneOptions.steps`` is a maximum: the tuner stops once its objective
has stopped falling.  After every ``STOP_WINDOW`` steps, from step
``2 * STOP_WINDOW`` on, it compares the mean objective of the last
window with the mean of the window before it, and stops when the drop
is no more than ``STOP_Z`` standard errors of the difference of the two
means.  A window pair that holds a non-finite value never stops the
run.  The rule only reads the recorded objective values and draws
nothing, so a run stopped at step k returns exactly the first k steps
of the run without the rule, and ``TuneReport.converged`` says which
way it ended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonfiniteGradient, ObserverOutsideBall, TuningFailed, _require_integer
from .geometry import INTERIOR_MARGIN, _bright_rows, cap_forward, make_params
from .targets import TargetModel

# Adam moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Stopping rule.  A window of 25 steps averages the per-step Monte Carlo
# noise of the objective down to a fifth of its spread, yet is short
# enough that the first check (step 50) comes soon after Adam's early
# transient and a flat stretch is caught within 25 steps.  One standard
# error is a lenient bar: where the objective is flat, noise alone
# clears it at one check in six, so a flat run stops within a few
# checks; where the expected drop per window is two standard errors or
# more, a check stops the run about one time in six.
STOP_WINDOW = 25
STOP_Z = 1.0


@dataclass(frozen=True)
class TuneOptions:
    """Optimizer settings; batch size and learning rate follow the
    defaults that work well for targets in the hundreds of dimensions.

    ``steps`` is at most the number of steps run: the tuner stops
    earlier once its objective has stopped falling (see the module
    docstring).  ``mc_batch`` and ``steps`` are integers >= 1 and
    ``seed`` an integer >= 0 (none of them a bool), and
    ``learning_rate`` is positive and finite, else building the options
    raises ValueError.
    """

    mc_batch: int = 2000
    steps: int = 2000
    learning_rate: float = 0.01
    seed: int = 0
    init: Optional[tuple] = None  # (h_o, mu, R)

    def __post_init__(self):
        _require_integer("mc_batch", self.mc_batch, 1)
        _require_integer("steps", self.steps, 1)
        _require_integer("seed", self.seed, 0)
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")


@dataclass
class TuneReport:
    """Optimized parameters with per-step traces.

    ``converged`` is True when the stopping rule ended the run and
    False when it ran all ``TuneOptions.steps`` steps.  Every trace,
    the alignment traces included, has one entry per step run, so its
    length is the number of steps the run took.

    ``h_o_rescaled`` counts the steps whose update ``project_params``
    pulled back into the observer ball; ``final_margin`` is
    1 - |h_o|^2 - (ell_o - 1)^2 at the final observer, near
    ``INTERIOR_MARGIN`` when the tuner drove it to the ball's edge.
    ``alignment`` is present when a skewness/location reference was
    supplied: a dict with per-step cosine and relative-distance traces
    plus their final values.
    """

    theta_bar: tuple
    objective_trace: np.ndarray
    grad_norm_trace: np.ndarray
    h_o_rescaled: int
    final_margin: float
    converged: bool
    alignment: Optional[dict] = None


def _objective_and_gradient(theta_bar, ell_o, target, cap_samples):
    """(objective, (g_ho, g_mu, g_R)) by the closed-form chain rule.

    With hx, z_d the cap samples' longitude and latitude, lx = z_d + 1,
    t and bracket from ``cap_forward``, g = grad log pi(y) and
    yhat = (y - mu) / R, the batch means are sums over the n samples:

        g_ho = (hx^T (1 / bracket) + R g^T (lx / t)) / n,
        g_mu = -sum g / n,
        g_R  = -d / R - <g, yhat> / n   (over all n d entries),

    each one matrix-vector or dot product.  yhat is formed, not expanded
    as sum <g, y> - <sum g, mu>, which cancels where |mu| >> R.  Raises
    ``NonfiniteGradient`` where the target's gradient is not finite.
    """
    cap_samples = np.asarray(cap_samples, dtype=float)
    n = cap_samples.shape[0]
    h_o, mu, R = theta_bar
    p = make_params(cap_samples.shape[-1] - 1, h_o=h_o, ell_o=ell_o, mu=mu, R=R)
    y, log_jac, tt, bracket = cap_forward(cap_samples, p)
    logp, glp = target.log_density_and_grad(y)
    glp = np.asarray(glp, dtype=float)
    if not np.all(np.isfinite(glp)):
        raise NonfiniteGradient("target gradient is not finite on the batch")
    yhat = y - p.mu
    yhat /= p.R
    g_mu = -glp.sum(axis=0) / n
    g_R = -p.d / p.R - float(np.vecdot(glp.ravel(), yhat.ravel())) / n
    # d(logJ)/d(h_o) = -hx/bracket; d(y)/d(h_o) = -R lx/t per sample
    lx = cap_samples[:, -1] + 1.0
    lx /= tt
    g_ho = (cap_samples[:, :-1].T @ (1.0 / bracket) + p.R * (glp.T @ lx)) / n
    objective = -float((log_jac + logp).sum()) / n
    return objective, (g_ho, g_mu, g_R)


def _objective_flat(trace) -> bool:
    """True when the mean of the last ``STOP_WINDOW`` values of ``trace``
    is no more than ``STOP_Z`` standard errors of the difference below
    the mean of the window before; False while either holds a
    non-finite value."""
    prev, last = trace[-2 * STOP_WINDOW:-STOP_WINDOW], trace[-STOP_WINDOW:]
    if not (np.all(np.isfinite(prev)) and np.all(np.isfinite(last))):
        return False
    drop = float(prev.mean() - last.mean())
    se = math.sqrt((prev.var(ddof=1) + last.var(ddof=1)) / STOP_WINDOW)
    return drop <= STOP_Z * se


def project_params(theta_bar, ell_o):
    """Radially rescale the longitude back inside the observer ball.

    Projects onto twice the interior margin so the result validates
    even after the rescaling round-off, or onto h_o = 0 where that
    margin leaves no room.  At the stereographic latitude ell_o = 2 the
    only admissible longitude is h_o = 0; where no longitude is
    admissible it raises ``ObserverOutsideBall``.  The arrays returned
    are new, never the caller's.
    """
    h_o, mu, R = theta_bar
    h_o, mu, R = np.array(h_o, dtype=float), np.array(mu, dtype=float), float(R)
    if ell_o == 2.0:
        return np.zeros_like(h_o), mu, R
    limit = 1.0 - (ell_o - 1.0) ** 2 - INTERIOR_MARGIN
    if not (1.0 <= ell_o < 2.0 and limit >= 0.0):
        raise ObserverOutsideBall(
            f"no observer longitude is admissible at ell_o = {ell_o}")
    norm_sq = float(h_o.dot(h_o))
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
    cosine = 0.0 if n_h == 0.0 else float(h_o.dot(alpha_skew) / (n_h * n_a))
    return cosine, float(np.linalg.norm(mu - xi) / math.sqrt(xi.shape[0]))


def tune(target: TargetModel, ell_o, opts: TuneOptions | None = None,
         alignment_ref=None) -> TuneReport:
    """Adam descent on the Monte Carlo KL objective.

    Each step takes a fresh uniform cap batch, the next bright rows of
    the tuner's stream (stochastic gradients), updates (h_o, mu, log R)
    with Adam, and projects the longitude back into the observer ball.
    Deterministic given ``opts.seed``.  A step whose objective or
    gradient is not finite is skipped: the parameters and Adam's moments
    stay as they are, and Adam's bias correction counts applied updates
    only.  Aborts after ten consecutive non-finite objective values.
    Stops before ``opts.steps`` once the objective has stopped falling
    (see the module docstring); the traces then end at the last step
    run.  A target without a gradient raises ValueError before the
    first draw.

    ``alignment_ref``, when given as (skewness vector, location
    vector), adds per-step alignment traces to the report.
    """
    if not target.has_gradient:
        raise ValueError("the tuner requires a target gradient")
    opts = opts or TuneOptions()
    rng = np.random.default_rng(opts.seed)
    d = target.dim
    start = opts.init if opts.init is not None else (np.zeros(d), np.zeros(d), 1.0)
    h_o, mu, R = project_params(start, ell_o)
    make_params(d, h_o=h_o, ell_o=ell_o, mu=mu, R=R)  # a bad start raises here
    rho = math.log(R)

    n_par = 2 * d + 1
    m = np.zeros(n_par)
    v = np.zeros(n_par)
    lr = opts.learning_rate

    objective_trace = np.empty(opts.steps)
    grad_norm_trace = np.empty(opts.steps)
    cosine_trace = np.empty(opts.steps) if alignment_ref is not None else None
    mu_rel_trace = np.empty(opts.steps) if alignment_ref is not None else None

    spare = np.empty((0, d + 1))
    bad_streak = 0
    h_o_rescaled = 0
    applied = 0  # Adam's bias-correction step counts applied updates only
    converged = False
    for step in range(opts.steps):
        cap, spare, _ = _bright_rows(rng, spare, opts.mc_batch, ell_o - 1.0)
        try:
            obj, (g_ho, g_mu, g_R) = _objective_and_gradient(
                (h_o, mu, R), ell_o, target, cap)
            grad = np.concatenate([g_ho, g_mu, [g_R * R]])  # d/d(rho) = R d/dR
        except NonfiniteGradient:
            obj, grad = math.nan, None
        objective_trace[step] = obj
        if math.isfinite(obj) and np.all(np.isfinite(grad)):
            bad_streak = 0
            grad_norm_trace[step] = float(np.linalg.norm(grad))
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            applied += 1
            m_hat = m / (1.0 - ADAM_BETA1**applied)
            v_hat = v / (1.0 - ADAM_BETA2**applied)
            update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            rho = rho - update[2 * d]
            h_step = h_o - update[:d]
            h_o, mu, R = project_params(
                (h_step, mu - update[d:2 * d], math.exp(rho)), ell_o)
            h_o_rescaled += not np.array_equal(h_o, h_step)
        else:
            bad_streak += 1
            grad_norm_trace[step] = math.nan
            if bad_streak >= 10:
                raise TuningFailed(
                    f"objective non-finite for {bad_streak} consecutive steps "
                    f"(last finite parameters: R={R:.4g})"
                )
        if cosine_trace is not None:
            cosine_trace[step], mu_rel_trace[step] = alignment_metrics(
                (h_o, mu, R), *alignment_ref)
        n = step + 1
        if (n % STOP_WINDOW == 0 and n >= 2 * STOP_WINDOW
                and _objective_flat(objective_trace[:n])):
            converged = True
            break

    # n: the steps run, all of them unless the rule stopped the run
    objective_trace = objective_trace[:n]
    grad_norm_trace = grad_norm_trace[:n]
    alignment = None
    if alignment_ref is not None:
        cosine_trace, mu_rel_trace = cosine_trace[:n], mu_rel_trace[:n]
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
        h_o_rescaled=h_o_rescaled,
        final_margin=1.0 - float(h_o.dot(h_o)) - (ell_o - 1.0) ** 2,
        converged=converged,
        alignment=alignment,
    )
