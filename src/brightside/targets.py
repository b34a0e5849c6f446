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

Outside its nu = 1 and nu = 2 closed forms the t log-CDF (the skew t's
factor, the robit link) rests on the incomplete beta of ``geometry``.
All its per-pair work is cached there, and a call looks up the pair
(nu/2, 1/2) once.  A 0-d argument and batches of up to
``_BETA_SMALL_BATCH`` points run the 0-d path once per point, each
with that lookup: the 10-chain ensembles and one robit chain pass such
batches.  ``SkewT`` calls that path, and the t log-pdf, past the
degrees-of-freedom check its construction made.  Larger batches, the
tuner's among them, vectorize the series side of the incomplete beta.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EmptyInput, _require_dimension
from .geometry import _beta_pair, _incomplete_beta, _incomplete_beta_scalar


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


# --- student t --------------------------------------------------------------


# Up to this many points the t log-CDF loops the per-point incomplete
# beta rather than vectorizing its series side.  On skew-t batches drawn
# from the target (d = 10 and 100, so m = 11 and 101, skewness 100 and
# -100 on two coordinates; numpy 2.4, median over 20 batches of the best
# of 5 x 20 calls, loop and vectorized interleaved, per-cell middle of
# three runs on a 2-core x86-64 VM), loop with the pair looked up once
# per call and numpy's log, log1p and exp bound once against vectorized,
# in us:
#   points       8         16         24         32         40        128
#   d = 10   13 vs 41  28 vs 48  40 vs 49  54 vs 55  63 vs 55  203 vs 87
#   d = 100  15 vs 47  32 vs 57  47 vs 60  60 vs 73  81 vs 82  250 vs 164
# The loop still wins at 32 points at both d; at 40 it loses at d = 10
# and ties at d = 100, so the limit stays at 32.
_BETA_SMALL_BATCH = 32


def _check_dof(nu):
    # NaN and infinity fail too; the t at nu = inf is the normal, not a t
    if not 0.0 < nu < math.inf:
        raise DomainError(f"degrees of freedom must be finite and positive, got {nu}")


def student_t_log_cdf(t, nu):
    """log of the Student t CDF, stable deep into both tails.

    For t >= 0 it returns log1p(-F(-t)), so the upper tail keeps its
    precision as 1 - F vanishes.  Outside the nu = 1 and nu = 2 closed
    forms, one incomplete-beta evaluation serves both signs: it returns
    log I_x for t < 0 and I_x for t >= 0, with x = nu / (nu + t^2) and
    F(-|t|) = I_x / 2.  The pair (nu/2, 1/2) is looked up once per call
    (``geometry._beta_pair``).  A 0-d ``t`` and batches of up to
    ``_BETA_SMALL_BATCH`` points take the 0-d path once per
    point, so each row is its point alone by construction; a larger
    batch vectorizes the series points of the incomplete beta, with the
    same operations, and sends the rest through the per-point
    evaluation.  Each point takes either the fixed series or a continued
    fraction run to its own convergence, so a point gets the same value
    alone as inside a batch.
    """
    _check_dof(nu)
    return _t_log_cdf(np.asarray(t, dtype=float), float(nu))


def _t_log_cdf(t, nu):
    """``student_t_log_cdf`` at a float array or numpy scalar ``t``, for a
    ``nu`` already checked."""
    if nu != 1 and nu != 2:
        if t.size <= _BETA_SMALL_BATCH:
            # the 0-d path once per point, with the pair looked up once
            pair = _beta_pair(nu / 2.0, 0.5)
            log_half = math.log(0.5)
            log1p = np.log1p
            out = []
            for tv in t.ravel().tolist():
                neg = tv < 0.0
                v = _incomplete_beta_scalar(nu / (nu + tv * tv), pair, neg)
                out.append(log_half + v if neg else float(log1p(-0.5 * v)))
            return out[0] if t.ndim == 0 else np.array(out, dtype=float).reshape(t.shape)
        neg = t < 0.0
        v = _incomplete_beta(nu / (nu + t * t), nu / 2.0, 0.5, neg)
        return np.where(neg, math.log(0.5) + v, np.log1p(-0.5 * v))
    scalar = t.ndim == 0
    t_arr = np.atleast_1d(t)
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
    _check_dof(nu)
    return _t_log_pdf(np.asarray(t, dtype=float), nu)


def _t_log_pdf(t, nu):
    """``student_t_log_pdf`` for a ``nu`` already checked."""
    return _t_log_pdf_const(nu) - (nu + 1.0) / 2.0 * np.log1p(t * t / nu)


@lru_cache(maxsize=16)
def _t_log_pdf_const(nu):
    """log of the t density's normalizing constant, once per nu."""
    return (math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
            - 0.5 * math.log(nu * math.pi))


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
        argument s = a'z g and log T_m(s), with m = nu + d.  a'z is a
        row reduction (``z.dot`` for one point), not a matrix-vector
        product, whose rows depend on the batch size."""
        z, q = self._standardized(y)
        nq = self.nu + q
        g = np.sqrt(self._m / nq)
        az = z.dot(self.alpha_skew) if z.ndim == 1 else np.vecdot(z, self.alpha_skew)
        s = az * g
        return z, q, nq, g, s, _t_log_cdf(s, self._m)

    def log_density(self, y):
        z, q, _, _, _, log_cdf = self._skewing(y)
        return self._value(q) + log_cdf

    def _skewed_grad(self, y):
        """q, log T_m(s) and the gradient.  The t log-CDF at the skewing
        argument serves both the value and the pdf/CDF ratio r of the
        gradient, so the incomplete beta runs once.  The gradient is the
        t kernel's -m / (nu + q) z plus r times that of s,
        g a - s / (nu + q) z; at unit scale, which the skew t always has,
        the two z terms share a coefficient, so it is taken in one pass
        over the points as ((-m - r s) / (nu + q)) z + (r g) a."""
        z, q, nq, g, s, log_cdf = self._skewing(y)
        ratio = np.exp(_t_log_pdf(s, self._m) - log_cdf)
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

    def _log_lik_terms(self, u):
        """Each observation's log-likelihood and the signed predictor.

        log F(u) where y = 1 and log(1 - F(u)) = log F(-u) where y = 0:
        the link's (log F, log 1-F) pair, each half only where a
        response uses it, so the t log-CDF of a robit link runs once
        over the observations.
        """
        s = np.where(self._positive, u, -u)
        if self.data.link == "logit":
            return -np.logaddexp(0.0, -s), s
        return student_t_log_cdf(s, self.data.link_nu), s

    def _evaluate(self, beta, value, grad):
        """``(log density, gradient)`` from one pass; an unwanted part is None.

        u = beta X' and the link's log-likelihood terms are computed once
        for both parts; the logit gradient needs only u.
        """
        data = self.data
        beta = np.asarray(beta, dtype=float)
        u = beta @ data.X.T
        if value or data.link == "robit":
            log_lik, s = self._log_lik_terms(u)
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
                ratio = np.exp(student_t_log_pdf(s, data.link_nu) - log_lik)
                coef = np.where(self._positive, ratio, -ratio)
            s2 = data.prior_scale**2
            grad_p = coef @ data.X - (data.prior_nu + 1.0) * beta / (
                data.prior_nu * s2 + beta * beta)
        return log_p, grad_p

    def log_density(self, beta):
        return self._evaluate(beta, True, False)[0]

    def grad_log_density(self, beta):
        return self._evaluate(beta, False, True)[1]

    def log_density_and_grad(self, beta):
        return self._evaluate(beta, True, True)


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
    """Read a data set written by ``save_regression_csv``; a file without
    a data row raises ``EmptyInput``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header:
            raise EmptyInput(f"regression CSV {path} is empty")
        if header[-1] != "y" or not all(
            h == f"x_{j + 1}" for j, h in enumerate(header[:-1])
        ):
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise EmptyInput(f"regression CSV {path} holds no data rows")
    arr = np.asarray(rows, dtype=float)
    return RegressionData(X=arr[:, :-1], y=arr[:, -1], link=link,
                          link_nu=link_nu, prior_scale=prior_scale,
                          prior_nu=prior_nu)
