"""Built-in target distributions.

Every target exposes an unnormalized ``log_density`` that is finite and
positive everywhere, an analytic ``grad_log_density`` where one exists,
and an ``exact_sample`` where a direct sampler is available.  Densities
accept arrays of shape (..., d) and return (...); normalizing constants
are dropped throughout since Metropolis ratios and KL objectives only
need densities up to a constant.

A target with a gradient also answers ``log_density_and_grad``, the
value and the gradient at the same points from one call, for the
callers that need both (the tuner's step, the end of an HMC
trajectory).  By default it makes the two separate calls; the skew t
overrides it so the t log-CDF serves both, with results bit-identical
to the separate calls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInput
from .geometry import (
    ProjectionParams,
    _incomplete_beta,
    log_jacobian,
    validate_params,
)


class TargetModel:
    """Behavioral contract for a sampling target.

    Subclasses set ``dim`` and implement ``log_density``; they may
    implement ``grad_log_density`` and ``exact_sample``.  All methods
    must be pure and re-entrant.  ``log_density_and_grad(y)`` returns
    ``(log_density(y), grad_log_density(y))``; the default makes those
    two calls, and an override must return the same values bit for bit.
    """

    dim: int
    grad_log_density = None
    exact_sample = None

    def log_density(self, y):
        raise NotImplementedError

    def log_density_and_grad(self, y):
        return self.log_density(y), self.grad_log_density(y)

    @property
    def has_gradient(self) -> bool:
        return self.grad_log_density is not None

    @property
    def has_exact_sampler(self) -> bool:
        return self.exact_sample is not None


def sub_cauchy_probe(target: TargetModel, seed=0, n_rays=1000, r_max=1e6,
                     n_radii=31) -> bool:
    """True when log pi(y) + (d+1)/2 * log(1+|y|^2) stops growing in the tail.

    Evaluates the bound statistic on ``n_rays`` random directions at
    geometrically spaced radii and compares its maximum over the last
    decade of radii against the previous decade.
    """
    rng = np.random.default_rng(seed)
    d = target.dim
    u = rng.standard_normal((n_rays, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = np.geomspace(1.0, r_max, n_radii)
    stat_max = np.empty(n_radii)
    for k, r in enumerate(radii):
        y = r * u
        g = target.log_density(y) + (d + 1) / 2.0 * math.log1p(r * r)
        stat_max[k] = np.max(g)
    last = radii > r_max / 10.0
    prev = (radii > r_max / 100.0) & ~last
    m_last = float(np.max(stat_max[last]))
    m_prev = float(np.max(stat_max[prev]))
    return m_last <= m_prev + 1e-6 * (1.0 + abs(m_prev))


# --- student t --------------------------------------------------------------


def student_t_cdf(t, nu):
    """CDF of the univariate Student t with ``nu`` degrees of freedom.

    Closed forms for nu = 1 (arctangent) and nu = 2 (algebraic); the
    general case reduces to the regularized incomplete beta function,
    and a 0-d ``t`` there runs in plain Python floats.  Monotone in t
    and exact at t = 0 for every nu.
    """
    if not nu > 0:
        raise DomainError(f"degrees of freedom must be positive, got {nu}")
    t_arr = np.asarray(t, dtype=float)
    if nu == 1:
        out = 0.5 + np.arctan(t_arr) / math.pi
    elif nu == 2:
        out = 0.5 * (1.0 + t_arr / np.sqrt(2.0 + t_arr * t_arr))
    elif t_arr.ndim == 0:
        t = float(t_arr)
        half_tail = 0.5 * _incomplete_beta(nu / (nu + t * t), nu / 2.0, 0.5, False)
        return 1.0 - half_tail if t > 0.0 else half_tail
    else:
        x = nu / (nu + t_arr * t_arr)
        half_tail = 0.5 * _incomplete_beta(x, nu / 2.0, 0.5, False)
        out = np.where(t_arr > 0.0, 1.0 - half_tail, half_tail)
    return float(out) if t_arr.ndim == 0 else out


def student_t_log_cdf(t, nu):
    """log of the Student t CDF, stable deep into both tails.

    For t >= 0 it returns log1p(-F(-t)), so the upper tail keeps its
    precision as 1 - F vanishes.  Outside the nu = 1 and nu = 2 closed
    forms, one incomplete-beta call serves both signs: it returns
    log I_x for t < 0 and I_x for t >= 0, with x = nu / (nu + t^2) and
    F(-|t|) = I_x / 2.  Each element stops at its own convergence, and
    a 0-d ``t`` runs in plain Python floats, so a point gets the same
    value alone as inside a batch.
    """
    if not nu > 0:
        raise DomainError(f"degrees of freedom must be positive, got {nu}")
    t_arr = np.asarray(t, dtype=float)
    if nu != 1 and nu != 2:
        if t_arr.ndim == 0:
            t = float(t_arr)
            v = _incomplete_beta(nu / (nu + t * t), nu / 2.0, 0.5, t < 0.0)
            return math.log(0.5) + v if t < 0.0 else float(np.log1p(-0.5 * v))
        neg = t_arr < 0.0
        v = _incomplete_beta(nu / (nu + t_arr * t_arr), nu / 2.0, 0.5, neg)
        return np.where(neg, math.log(0.5) + v, np.log1p(-0.5 * v))
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    a = np.abs(t_arr)
    # F(-|t|) in forms free of cancellation
    if nu == 1:
        # arctan(t) + pi/2 = arctan2(1, -t) for t <= 0
        lower = np.arctan2(1.0, a) / math.pi
    else:
        # rationalized form of (1 + t/sqrt(2+t^2))/2 for t <= 0
        s = np.sqrt(2.0 + a * a)
        prod = s * (s + a)
        lower = 1.0 / prod
    out = np.log1p(-lower)
    neg = t_arr < 0.0
    if nu == 1:
        # lower is 0 at t = -inf, whose log is -inf as for every other nu
        with np.errstate(divide="ignore"):
            out[neg] = np.log(lower[neg])
    else:
        out[neg] = -np.log(prod[neg])
    return float(out[0]) if scalar else out


def student_t_log_pdf(t, nu):
    """Normalized log density of the univariate Student t."""
    if not nu > 0:
        raise DomainError(f"degrees of freedom must be positive, got {nu}")
    t_arr = np.asarray(t, dtype=float)
    const = (math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
             - 0.5 * math.log(nu * math.pi))
    return const - (nu + 1.0) / 2.0 * np.log1p(t_arr * t_arr / nu)


# --- multivariate student t / Cauchy ----------------------------------------


class MultivariateStudentT(TargetModel):
    """Isotropic multivariate Student t; nu = 1 is the Cauchy."""

    def __init__(self, d, nu, loc=0.0, scale=1.0):
        if not nu > 0:
            raise DomainError(f"degrees of freedom must be positive, got {nu}")
        if not scale > 0:
            raise DomainError(f"scale must be positive, got {scale}")
        self.dim = int(d)
        self.nu = float(nu)
        self.loc = np.broadcast_to(np.asarray(loc, dtype=float), (self.dim,)).copy()
        self.scale = float(scale)

    def log_density(self, y):
        z = (np.asarray(y, dtype=float) - self.loc) / self.scale
        q = np.sum(z * z, axis=-1)
        return -(self.nu + self.dim) / 2.0 * np.log1p(q / self.nu)

    def grad_log_density(self, y):
        z = (np.asarray(y, dtype=float) - self.loc) / self.scale
        q = np.sum(z * z, axis=-1)
        coef = -(self.nu + self.dim) / (self.scale * (self.nu + q))
        return coef[..., None] * z

    def exact_sample(self, rng, size=None):
        n = 1 if size is None else int(size)
        g = rng.standard_normal((n, self.dim))
        v = rng.chisquare(self.nu, size=n) / self.nu
        out = self.loc + self.scale * g / np.sqrt(v)[:, None]
        return out[0] if size is None else out


def mv_student_t(d, nu, loc=0.0, scale=1.0) -> MultivariateStudentT:
    """Isotropic multivariate Student t target (nu = 1: Cauchy)."""
    return MultivariateStudentT(d, nu, loc=loc, scale=scale)


# --- multivariate skew t ----------------------------------------------------


@dataclass(frozen=True)
class SkewTParams:
    """Location, skewness and degrees of freedom; identity scale matrix."""

    xi: np.ndarray
    alpha_skew: np.ndarray
    nu: float

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha_skew, dtype=float))
        if xi.shape != alpha.shape:
            raise ValueError("xi and alpha_skew must share a shape")
        if not self.nu > 0:
            raise DomainError(f"degrees of freedom must be positive, got {self.nu}")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "alpha_skew", alpha)
        object.__setattr__(self, "nu", float(self.nu))

    @property
    def dim(self) -> int:
        return self.xi.shape[0]


def skew_t_log_density(y, params: SkewTParams):
    """Unnormalized log density of the skew t with identity scale.

    log t-kernel(z) + log T_{nu+d}(a' z * sqrt((nu+d)/(nu+|z|^2))) with
    z = y - xi; the CDF factor is the normalized Student t CDF, so a
    zero skewness vector shifts the symmetric t log density by exactly
    log(1/2).
    """
    d = params.dim
    nu = params.nu
    z = np.asarray(y, dtype=float) - params.xi
    q = np.sum(z * z, axis=-1)
    s = (z @ params.alpha_skew) * np.sqrt((nu + d) / (nu + q))
    return (-(nu + d) / 2.0 * np.log1p(q / nu)
            + student_t_log_cdf(s, nu + d))


def skew_t_log_density_and_grad(y, params: SkewTParams):
    """``skew_t_log_density`` and its analytic gradient from one pass.

    The t log-CDF at the skewing argument serves both the value and the
    pdf/CDF ratio of the gradient, so the incomplete beta runs once;
    the value repeats ``skew_t_log_density``'s operations in its order.
    """
    d = params.dim
    nu = params.nu
    m = nu + d
    z = np.asarray(y, dtype=float) - params.xi
    q = np.sum(z * z, axis=-1)
    g = np.sqrt(m / (nu + q))
    za = z @ params.alpha_skew
    s = za * g
    log_cdf = student_t_log_cdf(s, m)
    # hazard-style ratio pdf/CDF of the t with m degrees of freedom
    ratio = np.exp(student_t_log_pdf(s, m) - log_cdf)
    grad_kernel = -(m / (nu + q))[..., None] * z
    grad_s = g[..., None] * (params.alpha_skew
                             - (za / (nu + q))[..., None] * z)
    return (-m / 2.0 * np.log1p(q / nu) + log_cdf,
            grad_kernel + ratio[..., None] * grad_s)


def skew_t_grad_log_density(y, params: SkewTParams):
    """Analytic gradient of ``skew_t_log_density``."""
    return skew_t_log_density_and_grad(y, params)[1]


def skew_t_exact_sample(params: SkewTParams, rng, size=None):
    """Draw from the skew t via its chi-square / selection representation.

    V ~ chi2_nu / nu; U ~ N(0, I); W ~ N(0, 1); Z = U when W <= a'U,
    else -U; returns xi + Z / sqrt(V).
    """
    n = 1 if size is None else int(size)
    d = params.dim
    v = rng.chisquare(params.nu, size=n) / params.nu
    u = rng.standard_normal((n, d))
    w = rng.standard_normal(n)
    keep = w <= u @ params.alpha_skew
    z = np.where(keep[:, None], u, -u)
    out = params.xi + z / np.sqrt(v)[:, None]
    return out[0] if size is None else out


class SkewT(TargetModel):
    """Multivariate skew t target with identity scale matrix."""

    def __init__(self, params: SkewTParams):
        self.params = params
        self.dim = params.dim

    def log_density(self, y):
        return skew_t_log_density(y, self.params)

    def grad_log_density(self, y):
        return skew_t_grad_log_density(y, self.params)

    def log_density_and_grad(self, y):
        return skew_t_log_density_and_grad(y, self.params)

    def exact_sample(self, rng, size=None):
        return skew_t_exact_sample(self.params, rng, size=size)


def skew_t(xi, alpha_skew, nu) -> SkewT:
    return SkewT(SkewTParams(xi=xi, alpha_skew=alpha_skew, nu=nu))


# --- binary regression ------------------------------------------------------


@dataclass(frozen=True)
class RegressionData:
    """Standardized design matrix, binary responses and prior settings.

    ``link`` is "logit" or "robit"; ``link_nu`` is the degrees of
    freedom of the robit link's t CDF.  The prior is independent
    Student t on each coefficient with the given scale and degrees of
    freedom.
    """

    X: np.ndarray
    y: np.ndarray
    link: str = "logit"
    link_nu: float = 2.0
    prior_scale: float = 2.5
    prior_nu: float = 2.0

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have matching row counts")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("responses must be binary 0/1")
        if self.link not in ("logit", "robit"):
            raise ValueError(f"unknown link {self.link!r}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def generate_separable_data(n, d, rng, link="logit", link_nu=2.0,
                            prior_scale=2.5, prior_nu=2.0) -> RegressionData:
    """Gaussian covariates with responses split by the sign of the first one.

    The raw data are perfectly separated by the first coordinate; the
    columns are then standardized to mean 0 and standard deviation 0.5.
    """
    if n < 2 or d < 1:
        raise EmptyInput("need n >= 2 and d >= 1")
    X = rng.standard_normal((n, d))
    y = (X[:, 0] > 0.0).astype(float)
    X = standardize_columns(X)
    return RegressionData(X=X, y=y, link=link, link_nu=link_nu,
                          prior_scale=prior_scale, prior_nu=prior_nu)


def standardize_columns(X, target_sd=0.5) -> np.ndarray:
    """Center columns and rescale them to the given standard deviation."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    if np.any(sd == 0.0):
        raise ValueError("constant column cannot be standardized")
    return (X - mean) / sd * target_sd


def _sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


class BinaryRegressionPosterior(TargetModel):
    """Unnormalized posterior of binary regression with Student t priors."""

    def __init__(self, data: RegressionData):
        self.data = data
        self.dim = data.dim

    def _log_cdf_pair(self, u):
        """(log F(u), log(1 - F(u))), with the complement via CDF symmetry."""
        if self.data.link == "logit":
            return -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u)
        nu = self.data.link_nu
        return student_t_log_cdf(u, nu), student_t_log_cdf(-u, nu)

    def log_density(self, beta):
        beta = np.asarray(beta, dtype=float)
        u = beta @ self.data.X.T
        log_f, log_1mf = self._log_cdf_pair(u)
        ll = np.sum(self.data.y * log_f + (1.0 - self.data.y) * log_1mf, axis=-1)
        b = beta / self.data.prior_scale
        lp = -(self.data.prior_nu + 1.0) / 2.0 * np.sum(
            np.log1p(b * b / self.data.prior_nu), axis=-1
        )
        return ll + lp

    def grad_log_density(self, beta):
        beta = np.asarray(beta, dtype=float)
        u = beta @ self.data.X.T
        if self.data.link == "logit":
            coef = self.data.y - _sigmoid(u)
        else:
            nu = self.data.link_nu
            log_pdf = student_t_log_pdf(u, nu)
            log_f, log_1mf = self._log_cdf_pair(u)
            coef = (self.data.y * np.exp(log_pdf - log_f)
                    - (1.0 - self.data.y) * np.exp(log_pdf - log_1mf))
        grad_ll = coef @ self.data.X
        s2 = self.data.prior_scale**2
        grad_lp = -(self.data.prior_nu + 1.0) * beta / (
            self.data.prior_nu * s2 + beta * beta
        )
        return grad_ll + grad_lp


def binary_regression_posterior(data: RegressionData) -> BinaryRegressionPosterior:
    return BinaryRegressionPosterior(data)


def save_regression_csv(data: RegressionData, path):
    """Write the design matrix and responses as x_1..x_d, y with a header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j + 1}" for j in range(data.dim)] + ["y"])
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.X[i]] + [int(data.y[i])])


def load_regression_csv(path, link="logit", link_nu=2.0, prior_scale=2.5,
                        prior_nu=2.0) -> RegressionData:
    """Read a data set written by ``save_regression_csv``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "y" or not all(
            h == f"x_{j + 1}" for j, h in enumerate(header[:-1])
        ):
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [[float(v) for v in row] for row in reader if row]
    arr = np.asarray(rows, dtype=float)
    return RegressionData(X=arr[:, :-1], y=arr[:, -1], link=link,
                          link_nu=link_nu, prior_scale=prior_scale,
                          prior_nu=prior_nu)


# --- pullback of the uniform cap law ----------------------------------------


class UniformCapPullback(TargetModel):
    """Target whose pullback to the sphere is exactly uniform: pi = 1/J.

    Useful as a fixed point of the sampler: every proposal is accepted
    and the chain's latitude occupancy must match cap band areas.
    """

    def __init__(self, params: ProjectionParams):
        self.params = validate_params(params)
        self.dim = params.d

    def log_density(self, y):
        return -log_jacobian(y, self.params)


def uniform_cap_pullback(params: ProjectionParams) -> UniformCapPullback:
    return UniformCapPullback(params)
