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
trajectory).  By default it makes the two separate calls; every
built-in target with a gradient overrides it with one pass that shares
the work of both (the squared radius, the t log-CDF, the regression's
linear predictor and link), with results bit-identical to the separate
calls.  Row reductions are ``np.vecdot``, which costs a fraction of
``np.sum`` over a product at the sizes the kernels use.  A single
point of the multivariate t (and so of the skew t) takes its squared
radius as the plain float ``z.dot(z)``, the same BLAS dot with the
same bits as ``np.vecdot``, and its gradient coefficient as a float;
the chains evaluate one point at a time, where numpy-scalar arithmetic
would cost more than the dot.

The skew t is the multivariate t at ``loc = xi`` and unit scale times
a skewing factor of at most 2, so for nu >= 1 it is sub-Cauchy;
``SkewT`` subclasses ``MultivariateStudentT`` and adds only that factor.
Its gradient is one pass: at unit scale the t kernel's z term and the
factor's share a coefficient, so with m = nu + d, skewing argument s and
pdf/CDF ratio r it is ((-m - r s) / (nu + |z|^2)) z + (r g) a, one
product over the points with z and one with the skewness vector a.

The t log-CDF and its pdf/CDF ratio are ``special._t_log_cdf_ratio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import _read_table, _write_table
from .errors import DomainError, EmptyInput, _require_dimension
from .special import _check_dof, _t_log_cdf_ratio


class TargetModel:
    """Behavioral contract for a sampling target.

    Subclasses set ``dim`` and implement ``log_density``; they may
    implement ``grad_log_density``, which the tuner and hmc need and
    scs, sps and rwm do not, and ``exact_sample``.  All methods
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


# --- multivariate student t / Cauchy ----------------------------------------


class MultivariateStudentT(TargetModel):
    """Isotropic multivariate Student t; nu = 1 is the Cauchy.

    Raises DomainError unless d >= 1, nu and scale are finite and
    positive and loc is a finite scalar or vector, and ValueError unless
    d is an integer (not a bool).
    """

    def __init__(self, d, nu, loc=0.0, scale=1.0):
        _require_dimension(d)
        _check_dof(nu)
        if not 0 < scale < math.inf:
            raise DomainError(f"scale must be finite and positive, got {scale}")
        loc = np.asarray(loc, dtype=float)
        if loc.ndim > 1 or not np.all(np.isfinite(loc)):
            raise DomainError(f"loc must be a finite scalar or vector, got {loc}")
        self.dim = int(d)
        self.nu = float(nu)
        self.loc = np.broadcast_to(loc, (self.dim,)).copy()
        self.loc.flags.writeable = False  # so _identity cannot go stale
        self.scale = float(scale)
        # (y - 0) / 1 is y bit for bit, so the standard target skips both
        self._identity = not np.any(self.loc) and self.scale == 1.0

    def _standardized(self, y):
        """z = (y - loc) / scale and its squared norm q = |z|^2, a float
        for one point (``z.dot(z)`` has ``np.vecdot``'s bits)."""
        z = np.asarray(y, dtype=float)
        if not self._identity:
            z = (z - self.loc) / self.scale
        return z, float(z.dot(z)) if z.ndim == 1 else np.vecdot(z, z)

    def _value(self, q):
        return -(self.nu + self.dim) / 2.0 * np.log1p(q / self.nu)

    def _grad(self, z, q):
        coef = -(self.nu + self.dim) / (self.scale * (self.nu + q))
        return coef * z if z.ndim == 1 else coef[..., None] * z

    def log_density(self, y):
        return self._value(self._standardized(y)[1])

    def grad_log_density(self, y):
        return self._grad(*self._standardized(y))

    def log_density_and_grad(self, y):
        z, q = self._standardized(y)
        return self._value(q), self._grad(z, q)

    def exact_sample(self, rng, size=None):
        n = 1 if size is None else int(size)
        g = rng.standard_normal((n, self.dim))
        v = rng.chisquare(self.nu, size=n) / self.nu
        # loc + scale * g / sqrt(v), in place
        g *= self.scale
        g /= np.sqrt(v)[:, None]
        g += self.loc
        return g[0] if size is None else g


def mv_student_t(d, nu, loc=0.0, scale=1.0) -> MultivariateStudentT:
    """Isotropic multivariate Student t target (nu = 1: Cauchy)."""
    return MultivariateStudentT(d, nu, loc=loc, scale=scale)


# --- multivariate skew t ----------------------------------------------------


class SkewT(MultivariateStudentT):
    """Multivariate skew t with identity scale matrix (Azzalini & Capitanio).

    The density is 2 t_nu(z) T_{nu+d}(a'z sqrt((nu+d)/(nu+|z|^2))) with
    z = y - xi: the base class's t kernel at ``loc = xi`` and unit scale
    times a skewing factor in (0, 2), so for nu >= 1 it is sub-Cauchy.
    The factor's T is the normalized t CDF, so a zero skewness vector
    shifts the t log density by exactly log(1/2).  ``alpha_skew`` must
    share the shape (d,) of ``xi``, and both must be finite.  Each row
    of a batch has the value and gradient bits of its point alone,
    whatever the batch size.
    """

    def __init__(self, xi, alpha_skew, nu):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        super().__init__(xi.shape[0], nu, loc=xi)
        alpha = np.atleast_1d(np.asarray(alpha_skew, dtype=float))
        if alpha.shape != self.loc.shape or not np.all(np.isfinite(alpha)):
            raise DomainError("xi and alpha_skew must share a shape, and "
                              "alpha_skew must be finite")
        self.alpha_skew = alpha
        self._m = self.nu + self.dim

    def _skewing(self, y):
        """z, q = |z|^2, nu + q, g = sqrt(m / (nu + q)), the skewing
        argument s = a'z g, and log T_m(s) with the pdf/CDF ratio r of
        T_m at s, with m = nu + d.  a'z is a row reduction (``z.dot`` for
        one point), not a matrix-vector product, whose rows depend on
        the batch size."""
        z, q = self._standardized(y)
        nq = self.nu + q
        g = np.sqrt(self._m / nq)
        az = z.dot(self.alpha_skew) if z.ndim == 1 else np.vecdot(z, self.alpha_skew)
        s = az * g
        return (z, q, nq, g, s, *_t_log_cdf_ratio(s, self._m))

    def log_density(self, y):
        z, q, _, _, _, log_cdf, _ = self._skewing(y)
        return self._value(q) + log_cdf

    def _skewed_grad(self, y):
        """q, log T_m(s) and the gradient.  One evaluation of the t
        log-CDF at the skewing argument gives both the value and the
        gradient's pdf/CDF ratio r.  The gradient is the t kernel's
        -m / (nu + q) z plus r times that of s, g a - s / (nu + q) z; at
        unit scale, which the skew t always has, the two z terms share a
        coefficient, so it is taken in one pass over the points as
        ((-m - r s) / (nu + q)) z + (r g) a."""
        z, q, nq, g, s, log_cdf, ratio = self._skewing(y)
        grad = ((-self._m - ratio * s) / nq)[..., None] * z
        grad += (ratio * g)[..., None] * self.alpha_skew
        return q, log_cdf, grad

    def log_density_and_grad(self, y):
        q, log_cdf, grad = self._skewed_grad(y)
        return self._value(q) + log_cdf, grad

    def grad_log_density(self, y):
        # not self.log_density_and_grad: a subclass may build that from this
        return self._skewed_grad(y)[2]

    def exact_sample(self, rng, size=None):
        """Draw via the chi-square / selection representation.

        V ~ chi2_nu / nu; U ~ N(0, I); W ~ N(0, 1); Z = U when W <= a'U,
        else -U; returns xi + Z / sqrt(V), built in place in U's array.
        The sign goes on sqrt(V), so U is divided once ((-u) / r and
        u / (-r) are the same double), and xi = 0 adds nothing, which
        changes no bits except that a -0.0 coordinate keeps its sign.
        """
        n = 1 if size is None else int(size)
        v = rng.chisquare(self.nu, size=n) / self.nu
        u = rng.standard_normal((n, self.dim))
        w = rng.standard_normal(n)
        root = np.sqrt(v, out=v)
        np.negative(root, out=root, where=~(w <= u @ self.alpha_skew))
        u /= root[:, None]
        if not self._identity:
            u += self.loc
        return u[0] if size is None else u


def skew_t(xi, alpha_skew, nu) -> SkewT:
    """Multivariate skew t target at location ``xi`` with skewness ``alpha_skew``."""
    return SkewT(xi, alpha_skew, nu)


# --- binary regression ------------------------------------------------------


@dataclass(frozen=True)
class RegressionData:
    """Standardized design matrix, binary responses and prior settings.

    ``link`` is "logit" or "robit"; ``link_nu`` is the degrees of
    freedom of the robit link's t CDF.  The prior is independent
    Student t on each coefficient with the given scale and degrees of
    freedom.  ``X`` must be finite, and the scale and the two degrees of
    freedom finite and positive, or construction raises ``DomainError``.
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
        if not np.all(np.isfinite(X)):
            raise DomainError("X must be finite")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("responses must be binary 0/1")
        if self.link not in ("logit", "robit"):
            raise ValueError(f"unknown link {self.link!r}")
        for name in ("link_nu", "prior_scale", "prior_nu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive, got {value}")
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
        self._positive = data.y == 1.0
        self._columns = np.ascontiguousarray(data.X.T)

    def _log_lik_terms(self, u):
        """Each observation's log-likelihood, the signed predictor and,
        for a robit link, the pdf/CDF ratio of its t there (None for
        logit).

        log F(u) where y = 1 and log(1 - F(u)) = log F(-u) where y = 0:
        the link's (log F, log 1-F) pair, each half only where a
        response uses it, so the t log-CDF of a robit link runs once
        over the observations and gives the ratio with it.
        """
        s = np.where(self._positive, u, -u)
        if self.data.link == "logit":
            return -np.logaddexp(0.0, -s), s, None
        log_lik, ratio = _t_log_cdf_ratio(s, self.data.link_nu)
        return log_lik, s, ratio

    def _evaluate(self, beta, value, grad):
        """``(log density, gradient)`` from one pass; an unwanted part is None.

        u = beta X' and the link's log-likelihood terms are computed once
        for both parts; the logit gradient needs only u.  u and the
        gradient's sum over observations are ``np.vecdot`` rows, one dot
        per observation and one per coefficient, so a batch row has the
        bits of its point alone, which a matrix product of the whole batch
        does not give.
        """
        data = self.data
        beta = np.asarray(beta, dtype=float)
        u = np.vecdot(beta[..., None, :], data.X)
        if value or data.link == "robit":
            log_lik, _, ratio = self._log_lik_terms(u)
        log_p = grad_p = None
        if value:
            b = beta / data.prior_scale
            log_p = log_lik.sum(axis=-1) - (data.prior_nu + 1.0) / 2.0 * (
                np.log1p(b * b / data.prior_nu).sum(axis=-1))
        if grad:
            if data.link == "logit":
                coef = data.y - _sigmoid(u)
            else:
                # d log F(s) / du = +-pdf(s) / F(s), with s = +-u
                coef = np.where(self._positive, ratio, -ratio)
            s2 = data.prior_scale**2
            grad_p = np.vecdot(coef[..., None, :], self._columns)
            grad_p -= (data.prior_nu + 1.0) * beta / (data.prior_nu * s2 + beta * beta)
        return log_p, grad_p

    def log_density(self, beta):
        return self._evaluate(beta, True, False)[0]

    def grad_log_density(self, beta):
        return self._evaluate(beta, False, True)[1]

    def log_density_and_grad(self, beta):
        return self._evaluate(beta, True, True)


def binary_regression_posterior(data: RegressionData) -> BinaryRegressionPosterior:
    return BinaryRegressionPosterior(data)


def _regression_header(width):
    return (*(f"x_{j}" for j in range(1, width)), "y")


def save_regression_csv(data: RegressionData, path):
    """Write the design matrix and responses as x_1..x_d, y with a header."""
    _write_table(path, _regression_header(data.dim + 1),
                 ((*x, int(y)) for x, y in zip(data.X, data.y)))


def load_regression_csv(path, link="logit", link_nu=2.0, prior_scale=2.5,
                        prior_nu=2.0) -> RegressionData:
    """Read a data set written by ``save_regression_csv``; a file without
    a data row raises ``EmptyInput``."""
    _, rows = _read_table(path, "regression", _regression_header)
    if not rows:
        raise EmptyInput(f"regression CSV {path} holds no data rows")
    arr = np.asarray(rows, dtype=float)
    return RegressionData(X=arr[:, :-1], y=arr[:, -1], link=link,
                          link_nu=link_nu, prior_scale=prior_scale,
                          prior_nu=prior_nu)
