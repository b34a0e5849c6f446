"""Geometry of the sub-Cauchy projection family.

Conventions
-----------
Sphere points are unit vectors: they live on the unit sphere S^d in
R^{d+1}, centered at the origin, and are stored as plain numpy arrays of
shape (..., d+1).  Functions that take sphere points rely on |x| = 1
(to rounding); ``scp_inverse`` renormalizes its lifts.  The projection
plane is tangent to the sphere at the south pole (0, ..., 0, -1); plane
points have shape (..., d).

The observer sits inside the sphere and is split into a longitude
``h_o`` (first d coordinates) and a latitude ``ell_o``, measured so
that ``ell_o = 1`` is the sphere center and ``ell_o = 2`` the north
pole.  In origin-centered coordinates the observer's vertical position
is ``ell_o - 1``.  A sphere point ``z`` is on the *bright side* when
``z[d] < ell_o - 1``; the line through the observer and ``z`` then
meets the plane in exactly one point, which defines the projection.
``ell_o = 2`` with ``h_o = 0`` recovers classical stereographic
projection, whose dark side degenerates to the north pole.

A plane point ``y`` is rescaled to ``yhat = (y - mu) / R`` before the
geometric solve, so ``(mu, R)`` shift and scale the projection without
moving the sphere.  The latitude of a sphere point on the chord from
the observer to ``(yhat, 0)`` is controlled by the chord scale ``M``,
the positive root of a quadratic; all Jacobians are evaluated in log
space so that dimensions in the hundreds remain representable.

``ProjectionParams`` is valid by construction (see its docstring for
what building one raises), so no function that takes one checks it.

``cap_forward`` is the one evaluation of the forward map and its
log-Jacobian from sphere points, for single states and for batches.
Its log-Jacobian bracket is 1 - <o, x>, with o = (h_o, ell_o - 1) the
observer: the unit-sphere form of <h_x - h_o, h_x> - t z_d, one dot
product per point and at least 1 - |o| > 0.  A centered projection
(h_o = 0, mu = 0) skips the shift terms of the map.

The regularized incomplete beta I_x(a, b) behind ``cap_ratio_exact``
and the Student t CDFs of ``targets`` sums a fixed 12-term power series
near x = 0, up to an edge per (a, b) where the dropped terms are proven
below half an ulp, and a continued fraction above it.  All the per-pair
work is done once per pair and cached as a ``_BetaPair``: for both
orderings (a, b) and (b, a), the fraction's coefficients, the series
coefficients, the edge and log B, and the swap threshold and log a.  A
caller looks the pair up once (``_beta_pair``) and hands it to the one
evaluation of a point, ``_incomplete_beta_scalar``, in plain floats; so
do the small batches of the t log-CDF in ``targets``, which loop that
evaluation.  A batch here vectorizes only its series side, with the
same operations, and sends every other point through that evaluation.

Every uniform point of the bright cap comes from one sampler,
``_bright_rows``: ``sample_uniform_cap``, the tuner's batches and the
independence move's pilot and tries.  A caller that carries its spare
bright rows from call to call takes consecutive bright rows of its
stream.

All functions broadcast over leading axes and are pure; sampling takes
an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryWithoutSymmetry,
    DarkSidePoint,
    DomainError,
    NonfiniteInput,
    NonpositiveScale,
    ObserverOutsideBall,
    _require_dimension,
    _require_integer,
)

# Margin keeping the observer strictly interior, so the chord-scale
# quadratic's constant term stays strictly negative.
INTERIOR_MARGIN = 1e-9


@dataclass(frozen=True)
class ProjectionParams:
    """Observer, shift and scale defining one sub-Cauchy projection.

    Valid by construction, whether built directly, by ``make_params``
    or by ``dataclasses.replace``; ``h_o`` and ``mu`` are read-only
    copies.  Construction raises ValueError if h_o or mu does not
    broadcast to shape (d,) or d is not an integer >= 1 (a bool
    included), NonfiniteInput on NaN or infinity,
    NonpositiveScale if R <= 0, BoundaryWithoutSymmetry if ell_o = 2
    with h_o != 0, and ObserverOutsideBall unless 1 <= ell_o < 2 and
    |h_o|^2 + (ell_o-1)^2 <= 1 - INTERIOR_MARGIN.

    Attributes
    ----------
    h_o : ndarray, shape (d,)
        Observer longitude.
    ell_o : float
        Observer latitude in [1, 2].
    mu : ndarray, shape (d,)
        Shift applied in target space.
    R : float
        Positive scale applied in target space.
    d : int
        Ambient dimension of the target space; inferred from ``h_o``
        when not given.
    """

    h_o: np.ndarray
    ell_o: float
    mu: np.ndarray
    R: float
    d: int | None = None

    def __post_init__(self):
        h_o = np.array(self.h_o, dtype=float, ndmin=1)
        mu = np.array(self.mu, dtype=float, ndmin=1)
        d = h_o.shape[0] if self.d is None else self.d
        _require_integer("dimension d", d, 1)
        if h_o.shape[0] == 1 and d > 1:
            h_o = np.full(d, h_o[0])
        if mu.shape[0] == 1 and d > 1:
            mu = np.full(d, mu[0])
        if h_o.shape != (d,) or mu.shape != (d,):
            raise ValueError(
                f"h_o and mu must have shape ({d},); got {h_o.shape} and {mu.shape}"
            )
        ell_o, R = float(self.ell_o), float(self.R)
        if not (np.all(np.isfinite(h_o)) and np.all(np.isfinite(mu))
                and math.isfinite(ell_o) and math.isfinite(R)):
            raise NonfiniteInput("projection parameters must be finite")
        if R <= 0.0:
            raise NonpositiveScale(f"scale R must be positive, got {R}")
        s = float(np.dot(h_o, h_o)) + (ell_o - 1.0) ** 2
        if ell_o == 2.0:
            if np.any(h_o != 0.0):
                raise BoundaryWithoutSymmetry(
                    "ell_o = 2 is admissible only with h_o = 0"
                )
        elif not 1.0 <= ell_o < 2.0:
            raise ObserverOutsideBall(
                f"observer latitude must lie in [1, 2], got {ell_o}"
            )
        elif s > 1.0 - INTERIOR_MARGIN:
            raise ObserverOutsideBall(
                f"|h_o|^2 + (ell_o-1)^2 = {s:.12g} exceeds 1 - {INTERIOR_MARGIN}"
            )
        h_o.flags.writeable = mu.flags.writeable = False
        object.__setattr__(self, "h_o", h_o)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "ell_o", ell_o)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "d", int(d))

    @cached_property
    def _log_jac_const(self) -> float:
        """d*log R + d*log ell_o, the state-free part of the cap log-Jacobian."""
        return self.d * math.log(self.R) + self.d * math.log(self.ell_o)

    @cached_property
    def _observer(self) -> np.ndarray:
        """The observer o = (h_o, ell_o - 1) in origin-centered coordinates."""
        return np.append(self.h_o, self.ell_o - 1.0)

    @cached_property
    def _centered(self) -> bool:
        """h_o = 0 and mu = 0, so ``cap_forward`` skips both terms.

        Their products are +0.0 and subtracting +0.0 is exact, so the skip
        changes no bits except that a -0.0 coordinate of y keeps its sign,
        where adding mu = +0.0 would make it +0.0.
        """
        return not (np.any(self.h_o) or np.any(self.mu))


def make_params(d, h_o=0.0, ell_o=1.0, mu=0.0, R=1.0) -> ProjectionParams:
    """Keyword constructor of ``ProjectionParams``, broadcasting scalars to dimension d."""
    return ProjectionParams(h_o=h_o, ell_o=ell_o, mu=mu, R=R, d=d)


def cap_forward(x, p: ProjectionParams):
    """Forward map and log-Jacobian at bright-side unit sphere points.

    Returns the tuple (y, log_jac, t, bracket), with h_x = x[..., :d],
    z_d = x[..., d], t = ell_o - 1 - z_d and s = R / t:

        y = h_x * (ell_o s) - h_o * ((z_d + 1) s) + mu,
        bracket = 1 - <o, x>,  o = (h_o, ell_o - 1) the observer,
        log_jac = d*log R + d*log ell_o + log(bracket) - (d+1)*log t,

    the log-Jacobian at y = forward(x) with the chord scale M = t/ell_o
    read off the sphere point, so no root is solved.
    The bracket is <h_x - h_o, h_x> - t z_d rewritten by |h_x|^2 =
    1 - z_d^2, so it is at least 1 - |o| > 0 and takes one dot product.
    t and bracket feed the tuner's closed-form gradient in h_o.  A
    centered projection (h_o = 0, mu = 0, see ``ProjectionParams._centered``)
    skips the h_o and mu terms.  A 1-d ``x`` is one point with t and
    bracket plain floats; otherwise the leading axes are a batch.  Both
    take the same elementwise steps, so a batch row's y has the bits of
    its single point.  Raises DarkSidePoint if any point is at or above
    the observer latitude, where the chord never reaches the plane.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        zd = float(x[-1])
        t = (p.ell_o - 1.0) - zd
        if t <= 0.0:
            raise DarkSidePoint("point at or above observer latitude")
        s = p.R / t
        y = x[:-1] * (p.ell_o * s)
        if p._centered:
            bracket = 1.0 - (p.ell_o - 1.0) * zd
        else:
            y -= p.h_o * ((zd + 1.0) * s)
            y += p.mu
            bracket = 1.0 - float(x.dot(p._observer))
        log_jac = p._log_jac_const + math.log(bracket) - (p.d + 1.0) * math.log(t)
        return y, log_jac, t, bracket
    zd = x[..., -1]
    t = (p.ell_o - 1.0) - zd
    if (t <= 0.0).any():
        raise DarkSidePoint("point at or above observer latitude")
    s = p.R / t
    y = x[..., :-1] * (p.ell_o * s)[..., None]
    if p._centered:
        bracket = 1.0 - (p.ell_o - 1.0) * zd
    else:
        y -= p.h_o * ((zd + 1.0) * s)[..., None]
        y += p.mu
        bracket = 1.0 - x @ p._observer
    # the single point's sum, d log R + d log ell_o + log(bracket) - (d+1) log t,
    # built in place in the same order
    log_jac = np.log(bracket)
    log_jac += p._log_jac_const
    log_t = np.log(t)
    log_t *= p.d + 1.0
    log_jac -= log_t
    return y, log_jac, t, bracket


def scp_forward(x, p: ProjectionParams) -> np.ndarray:
    """Project bright-side sphere points onto the target space.

    The ``y`` of ``cap_forward``; raises DarkSidePoint on the dark side.
    """
    return cap_forward(x, p)[0]


def solve_chord_scale(y, p: ProjectionParams):
    """Chord scale M placing ``y`` back on the sphere, as (M, A, B, C).

    M solves A*M**2 + 2*B*M + C = 0 with w = yhat - h_o, A = |w|^2 +
    ell_o^2, B = <w, h_o> - ell_o*(ell_o - 1) and the float C = |h_o|^2 +
    ell_o^2 - 2*ell_o.  Uses the conjugate root form M = -C / (B +
    sqrt(B^2 - A*C)) when B > 0, which avoids the catastrophic
    cancellation of the textbook (-B + sqrt(...)) / A form.  A valid
    ``ProjectionParams`` gives C = |h_o|^2 + (ell_o-1)^2 - 1 <= 0 < A, so
    B^2 - A*C >= B^2 >= 0, in floating point too.  Raises NonfiniteInput
    for a non-finite ``y``, and DomainError where B^2 - A*C overflows,
    from |w| near 1e154 on: the root there is 0 (a dark point) or NaN.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonfiniteInput("plane point must be finite")
    C = float(np.dot(p.h_o, p.h_o)) + p.ell_o**2 - 2.0 * p.ell_o
    with np.errstate(over="ignore", invalid="ignore"):
        yhat = (y - p.mu) / p.R
        w = yhat - p.h_o
        A = np.sum(w * w, axis=-1) + p.ell_o**2
        B = w @ p.h_o - p.ell_o * (p.ell_o - 1.0)
        disc = B * B - A * C
    if not np.all(np.isfinite(disc)):
        raise DomainError("plane point too far from mu for the chord solve")
    root = np.sqrt(disc)
    denom = B + root
    # np.where evaluates both branches; at ell_o = 2, h_o = 0 (C = 0,
    # B = -2) denom is 0 on the discarded one and -C/denom would be 0/0
    safe_denom = np.where(denom > 0.0, denom, 1.0)
    M = np.where(B > 0.0, -C / safe_denom, (-B + root) / A)
    return M, A, B, C


def scp_inverse(y, p: ProjectionParams) -> np.ndarray:
    """Lift target-space points onto the bright side of the sphere.

    h_x = M*yhat + (1-M)*h_o and ell_x = (1-M)*ell_o, renormalized to
    unit length.  The lift is bright in exact arithmetic, but far out,
    where 1 - M rounds to 1, it can land on the observer latitude or an
    ulp above it, which ``cap_forward`` rejects as dark; at ell_o = 2
    that is the north pole (see ``kernels.run_chain``).  Raises as
    ``solve_chord_scale`` does.
    """
    y = np.asarray(y, dtype=float)
    M = solve_chord_scale(y, p)[0]
    yhat = (y - p.mu) / p.R
    hx = M[..., None] * yhat + (1.0 - M[..., None]) * p.h_o
    zd = (1.0 - M) * p.ell_o - 1.0
    z = np.concatenate([hx, zd[..., None]], axis=-1)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def log_jacobian_at_cap_point(x, p: ProjectionParams):
    """Log Jacobian evaluated directly at a bright-side sphere point.

    The ``log_jac`` of ``cap_forward``.
    """
    return cap_forward(x, p)[1]


def sample_uniform_cap(d, ell_o, rng, size=None, with_rejection_stats=False):
    """Draw uniform samples from the bright side of the sphere.

    The first ``size`` bright rows of ``rng`` (``_bright_rows``): rows of
    d + 1 standard normals normalized onto the sphere, kept in order
    while their last coordinate is below ell_o - 1.  The bright side is
    at least half the sphere for ell_o >= 1, so each round draws twice
    the rows still missing, and one round almost always suffices.

    Returns a (d+1,) point for ``size=None``, else a (size, d+1) array.
    A ``d`` below 1 raises DomainError; a ``d`` that is not an integer,
    or a ``size`` that is not an integer >= 0 (a bool included in
    both), raises ValueError.
    With ``with_rejection_stats=True`` also returns the rows drawn and
    the bright rows among them, the unused spare included, so the
    empirical rejection fraction is 1 - accepted/raw.
    """
    _require_dimension(d)
    if not 1.0 <= ell_o <= 2.0:
        raise ObserverOutsideBall(f"ell_o must lie in [1, 2], got {ell_o}")
    n = 1 if size is None else size
    _require_integer("size", n, 0)
    out, spare, raw = _bright_rows(rng, np.empty((0, d + 1)), n, ell_o - 1.0)
    if size is None:
        out = out[0]
    if with_rejection_stats:
        return out, raw, n + len(spare)
    return out


def _bright_rows(rng, rows, count, threshold):
    """``rows`` topped up from ``rng`` to ``count`` bright rows, as
    (rows, spare, drawn): the one sampler of the uniform bright cap.

    Rows of d + 1 normals are normalized and kept, in order, while their
    last coordinate is below ``threshold`` = ell_o - 1; ``drawn`` counts
    the rows drawn.  The bright rows past ``count`` are the spare: passed
    back as ``rows``, it makes consecutive calls take consecutive bright
    rows of the stream, the same bits as one call for all of them.
    """
    drawn = 0
    while len(rows) < count:
        # the bright side is at least half the sphere
        g = rng.standard_normal((2 * (count - len(rows)), rows.shape[1]))
        drawn += len(g)
        g /= np.sqrt(np.vecdot(g, g))[:, None]
        rows = np.concatenate((rows, g[g[:, -1] < threshold]))
    return rows[:count], rows[count:], drawn


def cap_ratio_exact(d, ell_o) -> float:
    """Exact surface fraction of the dark side of the sphere.

    For ell_o in (1, 2] this is (1/2) * I_x(d/2, 1/2) with
    x = 1 - (ell_o - 1)^2, the half accounting for the restriction to
    positive latitudes; ell_o = 1 gives exactly one hemisphere.  A ``d``
    below 1 raises DomainError, one that is not an integer ValueError.
    """
    _require_dimension(d)
    if not 1.0 <= ell_o <= 2.0:
        raise DomainError(f"ell_o must lie in [1, 2], got {ell_o}")
    if ell_o == 1.0:
        return 0.5
    s = ell_o - 1.0
    x = 1.0 - s * s
    return 0.5 * float(regularized_incomplete_beta(x, d / 2.0, 0.5))


# --- regularized incomplete beta -------------------------------------------

_BETA_EPS = 1e-15
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 500
# Terms of the power series summed at or below a pair's series edge.
_BETA_SERIES_TERMS = 12
_np_log, _np_log1p, _np_exp = np.log, np.log1p, np.exp


class _BetaTerms(NamedTuple):
    """What I_x(a, b) needs of one ordered shape pair, computed once.

    ``num1[m] * x / den1[m]`` and ``num2[m] * x / den2[m]`` are the odd
    and even coefficients of the continued fraction's step m (index 0
    unused), up to the ``_BETA_MAXIT`` the tables were built for.
    ``coefs`` are the series coefficients (a+b)_k / (a+1)_k for
    k < ``_BETA_SERIES_TERMS``, highest degree first, and ``edge`` is the
    largest x at which the truncated series is used.
    """

    a: float
    b: float
    lbeta: float
    num1: tuple
    den1: tuple
    num2: tuple
    den2: tuple
    coefs: tuple
    edge: float


class _BetaPair(NamedTuple):
    """What I_x(a, b) needs of one shape pair at any x, looked up once.

    ``threshold`` is (a+1) / (a+b+2), above which x is reflected to
    1 - x and (b, a); ``terms`` and ``reflected`` are the ``_BetaTerms``
    of (a, b) and of (b, a).
    """

    threshold: float
    log_a: float
    terms: _BetaTerms
    reflected: _BetaTerms


def _beta_pair(a, b):
    """The ``_BetaPair`` of the floats (a, b), with fraction tables up to
    ``_BETA_MAXIT``: one cache lookup, made once per call by a caller that
    evaluates many points.  Raises DomainError unless a and b are finite
    and positive."""
    # keyed on _BETA_MAXIT too, so the cached tables always reach it
    return _cached_beta_pair(a, b, _BETA_MAXIT)


@lru_cache(maxsize=16)
def _cached_beta_pair(a, b, maxit):
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    return _BetaPair((a + 1.0) / (a + b + 2.0), math.log(a),
                     _beta_terms(a, b, maxit), _beta_terms(b, a, maxit))


def _beta_terms(a, b, maxit):
    """The ``_BetaTerms`` of (a, b), with fraction tables up to step ``maxit``.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * sum_k (a+b)_k / (a+1)_k x^k
    (DLMF 8.17.8).  The term ratio is x (a+b+k) / (a+1+k), which for
    k >= K is at most r x with r = max(1, (a+b+K) / (a+1+K)), so the terms
    dropped after the first K sum to at most c_K x^K / (1 - r x).  The
    edge is the largest x where that bound is below half an ulp of 1 (the
    sum is at least 1), less a relative 1e-12 for the rounding of c_K and
    of the test itself; found by bisection over the doubles.
    """
    m = np.arange(1.0, maxit + 1.0)
    m2 = 2.0 * m
    qab = a + b
    qap = a + 1.0
    # the same operations, in the same order, as the fraction's formulas
    # m (b - m) x / ((a - 1 + 2m)(a + 2m)) and
    # -(a + m)(a + b + m) x / ((a + 2m)(a + 1 + 2m))
    tables = [(0.0, *v.tolist()) for v in (
        m * (b - m), ((a - 1.0) + m2) * (a + m2),
        -(a + m) * (qab + m), (a + m2) * (qap + m2))]
    k_terms = _BETA_SERIES_TERMS
    coefs = [1.0]
    for k in range(k_terms):
        coefs.append(coefs[-1] * (qab + k) / (qap + k))
    c_k = coefs.pop()
    r = max(1.0, (qab + k_terms) / (qap + k_terms))
    bound = 0.5 * math.ulp(1.0) * (1.0 - 1e-12)
    lo, hi = 0.0, 1.0 / r
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if c_k * mid**k_terms <= bound * (1.0 - r * mid):
            lo = mid
        else:
            hi = mid
    return _BetaTerms(a, b, _log_beta(a, b), *tables, tuple(reversed(coefs)), lo)


def _stirling_remainder(z):
    """ln Gamma(z) - [(z - 1/2) ln z - z + ln(2 pi) / 2], four terms.

    The first omitted term, 1 / (1188 z^9), is below 1e-20 for z >= 85.
    """
    w = 1.0 / (z * z)
    return (((-1.0 / 1680.0 * w + 1.0 / 1260.0) * w - 1.0 / 360.0) * w
            + 1.0 / 12.0) / z


def _log_beta(a, b):
    """log B(a, b), symmetric in its arguments bit for bit.

    While Gamma(a + b) is finite, the log of the gamma quotient: the
    difference lgamma(a) - lgamma(a + b) of two large logs cancels, and
    costs I_x a relative 2.6e-14 at (50.5, 1/2), where the quotient's
    log is off by 1e-16.  From a + b = 171 on, where Gamma(a + b)
    overflows, lgamma(lo) plus ln Gamma(hi) - ln Gamma(hi + lo) taken as
    one Stirling difference, so the large logs never meet (the idea of
    ``algdiv`` in DiDonato & Morris, ACM TOMS 708): within 3e-16
    relative from (170.5, 1/2) to (5e5, 1/2), where the lgamma
    difference is off by 2.3e-14 to 1.2e-10.
    """
    lo, hi = min(a, b), max(a, b)
    if a + b >= 171.0:
        ratio = (-lo * math.log(hi) - (hi + lo - 0.5) * math.log1p(lo / hi) + lo
                 + _stirling_remainder(hi) - _stirling_remainder(hi + lo))
        return math.lgamma(lo) + ratio
    if lo > 1e-300:
        beta = math.gamma(hi) / math.gamma(a + b) * math.gamma(lo)
        if 0.0 < beta < math.inf:
            return math.log(beta)
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_series(x, coefs):
    """The truncated series sum by Horner's rule at a float.

    Each step is one multiply and one add, the steps that
    ``_incomplete_beta`` takes in place on a batch's series side, so an
    array element gets the bits its float gets.
    """
    s = 0.0
    for c in coefs:
        s = s * x + c
    return s


def _betacf_scalar(x, t):
    """Continued fraction for the incomplete beta (modified Lentz), one point.

    For one ordered pair's terms ``t``; converges for x < (a+1)/(a+b+2),
    and stops at step m once |delta - 1| < ``_BETA_EPS``.
    """
    dd = 1.0 - (t.a + t.b) * x / (t.a + 1.0)
    if abs(dd) < _BETA_FPMIN:
        dd = _BETA_FPMIN
    dd = 1.0 / dd
    h = dd
    c = 1.0
    num1, den1, num2, den2 = t.num1, t.den1, t.num2, t.den2
    for m in range(1, _BETA_MAXIT + 1):
        aa = num1[m] * x / den1[m]
        dd = 1.0 + aa * dd
        if abs(dd) < _BETA_FPMIN:
            dd = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        dd = 1.0 / dd
        h = h * dd * c
        aa = num2[m] * x / den2[m]
        dd = 1.0 + aa * dd
        if abs(dd) < _BETA_FPMIN:
            dd = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        dd = 1.0 / dd
        delta = dd * c
        h = h * delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise DomainError("incomplete beta continued fraction failed to converge")


def _incomplete_beta_scalar(x, pair, log):
    """I_x(a, b), or its log where ``log`` is true, at one float x.

    ``pair`` is the ``_beta_pair`` of (a, b), which a caller looks up once
    for all its points.  The one evaluation of a point: every point of
    every batch that is not on the vectorized series side comes here.
    log, log1p and exp are numpy's rather than ``math``'s: on SIMD builds
    the two differ in the last bit on up to a few arguments in a hundred,
    and numpy's give the series side of a batch the bits a point gets
    here.  They are bound once, as module names, since a loop over
    points calls this once per point.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0, 1]")
    swap = x > pair.threshold
    if swap:
        xs, t = 1.0 - x, pair.reflected
    else:
        xs, t = x, pair.terms
    if not 0.0 < xs < 1.0:
        # x is 0 or 1, where I is exact
        if log:
            return 0.0 if x == 1.0 else -math.inf
        return x
    lfront = t.a * float(_np_log(xs)) + t.b * float(_np_log1p(-xs)) - t.lbeta
    if xs <= t.edge:
        cf = _beta_series(xs, t.coefs)
    else:
        cf = _betacf_scalar(xs, t)
    if log and not swap:
        return lfront + float(_np_log(cf)) - pair.log_a
    value = float(_np_exp(lfront)) * cf / t.a
    # clamp to [0, 1]; comparisons cost less than min and max
    if value < 0.0:
        value = 0.0
    elif value > 1.0:
        value = 1.0
    if log:
        return float(_np_log1p(-value))
    return 1.0 - value if swap else value


def _incomplete_beta(x, a, b, log):
    """I_x(a, b) where ``log`` is false, log I_x(a, b) where it is true.

    ``log`` broadcasts against ``x``, so one call can return the value
    for some elements and its log for others.  The symmetry reduction
    I_x(a, b) = 1 - I_{1-x}(b, a) is applied where x > (a+1)/(a+b+2),
    so the sum below runs in its rapidly convergent region.  Where the
    reduction applies the reflected value is small, so its log1p
    complement is accurate; elsewhere the log is taken of the series or
    fraction form directly, which stays finite far below
    double-precision range.

    The reduced x meets one of two forms of the same factor.  At or
    below the pair's series edge (0.005 to 0.05 for the pairs
    (nu/2, 1/2) and (1/2, nu/2) of the Student t) it is a fixed
    ``_BETA_SERIES_TERMS``-term power series, whose dropped tail is
    proven below half an ulp; above it, the continued fraction.
    Everything that depends only on (a, b) is computed once per pair
    and cached (``_beta_pair``); a call looks it up once for all its
    points.

    There is one per-point path, ``_incomplete_beta_scalar``, in plain
    floats.  A 0-d ``x`` returns its float; a batch vectorizes only the
    series side: the interior points at or below their swap group's
    edge, one swap group at a time, each with its pair's scalar
    coefficients in an in-place Horner loop and the other operations of
    the per-point path in the same order.  Every other point (x = 0 or
    1, and the fraction side) goes through the per-point path.  So a
    point gets the same bits alone and in any batch.
    """
    pair = _beta_pair(float(a), float(b))
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return _incomplete_beta_scalar(float(x), pair, bool(log))
    if np.shape(log) != x.shape:
        log = np.broadcast_to(np.asarray(log, dtype=bool), x.shape)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise DomainError("x must lie in [0, 1]")
    swap = x > pair.threshold
    xs = np.where(swap, 1.0 - x, x)
    series = (xs > 0.0) & (xs <= np.where(swap, pair.reflected.edge, pair.terms.edge))
    out = np.empty_like(x)
    rest = ~series
    out[rest] = [_incomplete_beta_scalar(xv, pair, lv)
                 for xv, lv in zip(x[rest].tolist(), log[rest].tolist())]
    for reflected, t, group in ((False, pair.terms, series & ~swap),
                                (True, pair.reflected, series & swap)):
        if not group.any():
            continue
        xi = xs[group]
        li = log[group]
        lfront = t.a * np.log(xi) + t.b * np.log1p(-xi) - t.lbeta
        # _beta_series in place: its first step, 0 * x + c, is c
        cf = np.full_like(xi, t.coefs[0])
        for c in t.coefs[1:]:
            cf *= xi
            cf += c
        value = np.exp(lfront)
        value *= cf
        value /= t.a
        np.clip(value, 0.0, 1.0, out=value)
        if reflected:
            res = 1.0 - value
            res[li] = np.log1p(-value[li])
        else:
            res = value
            res[li] = lfront[li] + np.log(cf[li]) - pair.log_a
        out[group] = res
    return out


def regularized_incomplete_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b).

    The symmetry reduction I_x(a, b) = 1 - I_{1-x}(b, a) is applied when
    x > (a+1)/(a+b+2).  The reduced x then takes a 12-term power series
    near 0 (at or below an edge computed per (a, b), where the dropped
    terms are proven below half an ulp) and the continued fraction
    elsewhere, in its rapidly convergent region.  Accepts scalar or
    array x; a and b are positive scalars, and a 0-d x returns a float.
    Each point is computed by one plain-float path; a batch vectorizes
    only its series side, with the same operations.  The series is a
    fixed sum and each point's fraction stops when its own
    |delta - 1| < 1e-15, so a point gets the same value alone and in any
    batch.
    """
    return _incomplete_beta(x, a, b, False)


def log_regularized_incomplete_beta(x, a, b):
    """log I_x(a, b), stable for values far below double-precision range.

    Uses the log of the series or continued-fraction form directly when
    x is in the convergent region, else the log1p complement of the
    reflected value.  Intended for deep lower tails (e.g. heavy-tail CDF
    logs), which is where the 12-term series serves.  Evaluated as
    ``regularized_incomplete_beta`` is: one plain-float path per point,
    with a batch vectorizing only its series side; a 0-d x
    returns a float.  A point gets the same value alone and in any batch.
    """
    return _incomplete_beta(x, a, b, True)
