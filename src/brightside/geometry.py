"""Geometry of the sub-Cauchy projection family.

Conventions
-----------
Sphere points live on the unit sphere S^d in R^{d+1}, centered at the
origin and stored as plain numpy arrays of shape (..., d+1).  The
projection plane is tangent to the sphere at the south pole
(0, ..., 0, -1); plane points have shape (..., d).

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

``cap_forward`` is the one evaluation of the forward map and its
log-Jacobian from sphere points, for single states and for batches.

All functions broadcast over leading axes and are pure; sampling takes
an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryWithoutSymmetry,
    DarkSidePoint,
    DomainError,
    NegativeDiscriminant,
    NonfiniteInput,
    NonpositiveScale,
    ObserverOutsideBall,
)

# Margin keeping the observer strictly interior, so the chord-scale
# quadratic's constant term stays strictly negative.
INTERIOR_MARGIN = 1e-9

# Round-off slack below which a negative discriminant is clamped to 0.
DISCRIMINANT_SLACK = 1e-12


@dataclass(frozen=True)
class ProjectionParams:
    """Observer, shift and scale defining one sub-Cauchy projection.

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
        Ambient dimension of the target space.
    """

    h_o: np.ndarray
    ell_o: float
    mu: np.ndarray
    R: float
    d: int = field(default=0)

    def __post_init__(self):
        h_o = np.atleast_1d(np.asarray(self.h_o, dtype=float))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        d = self.d if self.d else h_o.shape[0]
        if h_o.shape[0] == 1 and d > 1:
            h_o = np.full(d, h_o[0])
        if mu.shape[0] == 1 and d > 1:
            mu = np.full(d, mu[0])
        if h_o.shape != (d,) or mu.shape != (d,):
            raise ValueError(
                f"h_o and mu must have shape ({d},); got {h_o.shape} and {mu.shape}"
            )
        object.__setattr__(self, "h_o", h_o)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "ell_o", float(self.ell_o))
        object.__setattr__(self, "R", float(self.R))
        object.__setattr__(self, "d", int(d))

    @cached_property
    def _log_jac_const(self) -> float:
        """d*log R + d*log ell_o, the state-free part of the cap log-Jacobian."""
        return self.d * math.log(self.R) + self.d * math.log(self.ell_o)


def make_params(d, h_o=0.0, ell_o=1.0, mu=0.0, R=1.0) -> ProjectionParams:
    """Build validated projection parameters, broadcasting scalars to dimension d."""
    return validate_params(ProjectionParams(h_o=h_o, ell_o=ell_o, mu=mu, R=R, d=d))


class ChordScale(NamedTuple):
    """Chord scale M with the quadratic coefficients it solves.

    M satisfies A*M**2 + 2*B*M + C = 0, equivalently
    A*M**2 + 2*B*M + |h_o|^2 + (ell_o - 1)^2 = 1, with
    A = |yhat - h_o|^2 + ell_o^2,
    B = <yhat - h_o, h_o> - ell_o*(ell_o - 1),
    C = |h_o|^2 + ell_o^2 - 2*ell_o.
    """

    M: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: float


def sphere_point(z) -> np.ndarray:
    """Renormalize ``z`` onto the unit sphere (rowwise for batches)."""
    z = np.asarray(z, dtype=float)
    norm = np.linalg.norm(z, axis=-1, keepdims=True)
    if np.any(norm == 0.0) or not np.all(np.isfinite(norm)):
        raise NonfiniteInput("cannot normalize zero or non-finite vector")
    return z / norm


def validate_params(p: ProjectionParams) -> ProjectionParams:
    """Check the observer-ball constraint, scale positivity and finiteness.

    The observer must satisfy |h_o|^2 + (ell_o-1)^2 <= 1 - INTERIOR_MARGIN,
    except for the single boundary case ell_o = 2 with h_o = 0 (classical
    stereographic projection).
    """
    if not (np.all(np.isfinite(p.h_o)) and np.all(np.isfinite(p.mu))
            and math.isfinite(p.ell_o) and math.isfinite(p.R)):
        raise NonfiniteInput("projection parameters must be finite")
    if p.R <= 0.0:
        raise NonpositiveScale(f"scale R must be positive, got {p.R}")
    if p.ell_o == 2.0:
        if np.any(p.h_o != 0.0):
            raise BoundaryWithoutSymmetry(
                "ell_o = 2 is admissible only with h_o = 0"
            )
        return p
    if not 1.0 <= p.ell_o < 2.0:
        raise ObserverOutsideBall(
            f"observer latitude must lie in [1, 2], got {p.ell_o}"
        )
    s = float(np.dot(p.h_o, p.h_o)) + (p.ell_o - 1.0) ** 2
    if s > 1.0 - INTERIOR_MARGIN:
        raise ObserverOutsideBall(
            f"|h_o|^2 + (ell_o-1)^2 = {s:.12g} exceeds 1 - {INTERIOR_MARGIN}"
        )
    return p


def cap_forward(x, p: ProjectionParams):
    """Forward map and log-Jacobian at bright-side sphere points.

    Returns the tuple (y, log_jac, t, bracket), with h_x = x[..., :d],
    z_d = x[..., d] and t = ell_o - 1 - z_d:

        y = R * (ell_o * h_x - (z_d + 1) * h_o) / t + mu,
        bracket = <h_x - h_o, h_x> - t * z_d,
        log_jac = d*log R + d*log ell_o + log(bracket) - (d+1)*log t,

    which is ``log_jacobian(y, p)`` free of the root solve (M = t/ell_o).
    t and bracket feed the tuner's closed-form gradient in h_o.  A 1-d
    ``x`` is one point and runs in plain floats; otherwise the leading
    axes are a batch.  Raises DarkSidePoint if any point is at or above
    the observer latitude, where the chord never reaches the plane.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        zd = x[-1]
        t = (p.ell_o - 1.0) - zd
        if t <= 0.0:
            raise DarkSidePoint("point at or above observer latitude")
        hx = x[:-1]
        y = (p.ell_o * hx - (zd + 1.0) * p.h_o) * (p.R / t) + p.mu
        bracket = (hx - p.h_o) @ hx - t * zd
        log_jac = p._log_jac_const + math.log(bracket) - (p.d + 1.0) * math.log(t)
        return y, log_jac, t, bracket
    hx = x[..., :-1]
    zd = x[..., -1]
    t = (p.ell_o - 1.0) - zd
    if np.any(t <= 0.0):
        raise DarkSidePoint("point at or above observer latitude")
    y = ((p.ell_o * hx - (zd + 1.0)[..., None] * p.h_o) * (p.R / t)[..., None]
         + p.mu)
    bracket = np.sum((hx - p.h_o) * hx, axis=-1) - t * zd
    log_jac = p._log_jac_const + np.log(bracket) - (p.d + 1.0) * np.log(t)
    return y, log_jac, t, bracket


def scp_forward(x, p: ProjectionParams) -> np.ndarray:
    """Project bright-side sphere points onto the target space.

    The ``y`` of ``cap_forward``; raises DarkSidePoint on the dark side.
    """
    return cap_forward(x, p)[0]


def solve_chord_scale(y, p: ProjectionParams) -> ChordScale:
    """Solve for the chord scale M placing ``y`` back on the sphere.

    Uses the conjugate root form M = -C / (B + sqrt(B^2 - A*C)) when
    B > 0, which avoids the catastrophic cancellation of the textbook
    (-B + sqrt(...)) / A form; discriminants within DISCRIMINANT_SLACK
    below zero are clamped to zero.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonfiniteInput("plane point must be finite")
    yhat = (y - p.mu) / p.R
    w = yhat - p.h_o
    A = np.sum(w * w, axis=-1) + p.ell_o**2
    B = w @ p.h_o - p.ell_o * (p.ell_o - 1.0)
    C = float(np.dot(p.h_o, p.h_o)) + p.ell_o**2 - 2.0 * p.ell_o
    disc = B * B - A * C
    if np.any(disc < -DISCRIMINANT_SLACK):
        raise NegativeDiscriminant(
            "chord-scale quadratic has complex roots; observer invalid"
        )
    root = np.sqrt(np.maximum(disc, 0.0))
    denom = B + root
    # np.where evaluates both branches; at ell_o = 2, h_o = 0 (C = 0,
    # B = -2) denom is 0 on the discarded one and -C/denom would be 0/0
    safe_denom = np.where(denom > 0.0, denom, 1.0)
    M = np.where(B > 0.0, -C / safe_denom, (-B + root) / A)
    return ChordScale(M=M, A=A, B=B, C=C)


def scp_inverse(y, p: ProjectionParams) -> np.ndarray:
    """Lift target-space points onto the bright side of the sphere.

    h_x = M*yhat + (1-M)*h_o and ell_x = (1-M)*ell_o; the result is
    renormalized to unit length and always lies strictly on the bright
    side for finite y.
    """
    y = np.asarray(y, dtype=float)
    M = solve_chord_scale(y, p).M
    yhat = (y - p.mu) / p.R
    hx = M[..., None] * yhat + (1.0 - M[..., None]) * p.h_o
    zd = (1.0 - M) * p.ell_o - 1.0
    z = np.concatenate([hx, zd[..., None]], axis=-1)
    return sphere_point(z)


def log_jacobian(y, p: ProjectionParams) -> np.ndarray:
    """Log Jacobian determinant of the forward projection at ``y``.

    log J = d*log R + log(M*|w|^2 + <w, h_o> + ell_o - ell_o^2*(1-M))
            - d*log M - log ell_o,  with w = yhat - h_o,
    evaluated without ever forming M**d.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonfiniteInput("plane point must be finite")
    scale = solve_chord_scale(y, p)
    M = scale.M
    yhat = (y - p.mu) / p.R
    w = yhat - p.h_o
    inner = (M * np.sum(w * w, axis=-1) + w @ p.h_o
             + p.ell_o - p.ell_o**2 * (1.0 - M))
    return (p.d * math.log(p.R) + np.log(inner)
            - p.d * np.log(M) - math.log(p.ell_o))


def log_jacobian_at_cap_point(x, p: ProjectionParams):
    """Log Jacobian evaluated directly at a bright-side sphere point.

    The ``log_jac`` of ``cap_forward``: equal to
    ``log_jacobian(scp_forward(x, p), p)`` but free of the root solve.
    """
    return cap_forward(x, p)[1]


def sample_uniform_cap(d, ell_o, rng, size=None, with_rejection_stats=False):
    """Draw uniform samples from the bright side of the sphere.

    A standard (d+1)-dimensional Gaussian is normalized onto the sphere
    and rejected while its last coordinate is at or above ell_o - 1.
    The accepted fraction is at least 1/2 for ell_o >= 1, so the
    expected number of raw draws per sample is at most 2.

    Returns a (d+1,) point for ``size=None``, else a (size, d+1) array.
    With ``with_rejection_stats=True`` also returns the raw and accepted
    draw counts (before truncating the final chunk), so the empirical
    rejection fraction is 1 - accepted/raw.
    """
    if not 1.0 <= ell_o <= 2.0:
        raise ObserverOutsideBall(f"ell_o must lie in [1, 2], got {ell_o}")
    n = 1 if size is None else int(size)
    threshold = ell_o - 1.0
    chunks = []
    got = 0
    raw = 0
    while got < n:
        m = 2 * (n - got) + 8
        g = rng.standard_normal((m, d + 1))
        raw += m
        z = g / np.linalg.norm(g, axis=1, keepdims=True)
        keep = z[:, d] < threshold
        accepted = z[keep]
        chunks.append(accepted)
        got += accepted.shape[0]
    out = np.concatenate(chunks, axis=0)[:n]
    if size is None:
        out = out[0]
    if with_rejection_stats:
        return out, raw, got
    return out


def cap_ratio_exact(d, ell_o) -> float:
    """Exact surface fraction of the dark side of the sphere.

    For ell_o in (1, 2] this is (1/2) * I_x(d/2, 1/2) with
    x = 1 - (ell_o - 1)^2, the half accounting for the restriction to
    positive latitudes; ell_o = 1 gives exactly one hemisphere.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 1.0 <= ell_o <= 2.0:
        raise DomainError(f"ell_o must lie in [1, 2], got {ell_o}")
    if ell_o == 1.0:
        return 0.5
    s = ell_o - 1.0
    x = 1.0 - s * s
    return 0.5 * float(regularized_incomplete_beta(x, d / 2.0, 0.5))


def cap_ratio_bound(d, ell_o) -> float:
    """Chernoff-style upper bound on the dark-side surface fraction.

    (e^{1/2} / 2) * sqrt(d+1) * (1 - (ell_o-1)^2)^{(d-1)/2}; may exceed
    1 in low dimensions, where it is vacuous but still an upper bound.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not 1.0 <= ell_o <= 2.0:
        raise DomainError(f"ell_o must lie in [1, 2], got {ell_o}")
    s = ell_o - 1.0
    return 0.5 * math.exp(0.5) * math.sqrt(d + 1.0) * (1.0 - s * s) ** ((d - 1) / 2.0)


# --- regularized incomplete beta -------------------------------------------

_BETA_EPS = 1e-15
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 500


def _lbeta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf_scalar(x, a, b):
    """Continued fraction for the incomplete beta (modified Lentz), one point.

    Plain-float twin of ``_betacf``: the same operations in the same
    order, so a point gets the same bits here as in a batch.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    dd = 1.0 - qab * x / qap
    if abs(dd) < _BETA_FPMIN:
        dd = _BETA_FPMIN
    dd = 1.0 / dd
    h = dd
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        dd = 1.0 + aa * dd
        if abs(dd) < _BETA_FPMIN:
            dd = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        dd = 1.0 / dd
        h = h * dd * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def _betacf(x, a, b):
    """Continued fraction for the incomplete beta (modified Lentz).

    Elementwise over 1-d arrays, with a and b per element; converges
    for x < (a+1)/(a+b+2).  Each element stops at its own convergence
    and leaves the working arrays, so its value does not depend on the
    rest of the batch.
    """
    out = np.empty_like(x)
    idx = np.arange(x.shape[0])
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    dd = 1.0 - qab * x / qap
    dd = np.where(np.abs(dd) < _BETA_FPMIN, _BETA_FPMIN, dd)
    dd = 1.0 / dd
    h = dd.copy()
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        dd = 1.0 + aa * dd
        dd = np.where(np.abs(dd) < _BETA_FPMIN, _BETA_FPMIN, dd)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _BETA_FPMIN, _BETA_FPMIN, c)
        dd = 1.0 / dd
        h = h * dd * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        dd = 1.0 + aa * dd
        dd = np.where(np.abs(dd) < _BETA_FPMIN, _BETA_FPMIN, dd)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _BETA_FPMIN, _BETA_FPMIN, c)
        dd = 1.0 / dd
        delta = dd * c
        h = h * delta
        done = np.abs(delta - 1.0) < _BETA_EPS
        if done.any():
            out[idx[done]] = h[done]
            live = ~done
            if not live.any():
                return out
            idx, x, a, b, qab, qap, qam, c, dd, h = (
                v[live] for v in (idx, x, a, b, qab, qap, qam, c, dd, h))
    raise DomainError("incomplete beta continued fraction failed to converge")


def _incomplete_beta_scalar(x, a, b, log):
    """Plain-float twin of ``_incomplete_beta`` for one point.

    log, log1p and exp are numpy's rather than ``math``'s: on SIMD
    builds the two differ in the last bit on up to a few arguments in a
    hundred, and numpy's give a point the bits it gets inside a batch.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0, 1]")
    lbeta = _lbeta(a, b)
    swap = x > (a + 1.0) / (a + b + 2.0)
    xs, ar, br = (1.0 - x, b, a) if swap else (x, a, b)
    if not 0.0 < xs < 1.0:
        # x is 0 or 1, where I is exact
        if log:
            return 0.0 if x == 1.0 else -math.inf
        return x
    lfront = ar * float(np.log(xs)) + br * float(np.log1p(-xs)) - lbeta
    cf = _betacf_scalar(xs, ar, br)
    if log and not swap:
        return lfront + float(np.log(cf)) - math.log(a)
    value = min(max(float(np.exp(lfront)) * cf / ar, 0.0), 1.0)
    if log:
        return float(np.log1p(-value))
    return 1.0 - value if swap else value


def _incomplete_beta(x, a, b, log):
    """I_x(a, b) where ``log`` is false, log I_x(a, b) where it is true.

    ``log`` broadcasts against ``x``, so one call can return the value
    for some elements and its log for others.  The symmetry reduction
    I_x(a, b) = 1 - I_{1-x}(b, a) is applied where x > (a+1)/(a+b+2),
    so the continued fraction runs once, in its rapidly convergent
    region, over every interior element.  Where the reduction applies
    the reflected value is small, so its log1p complement is accurate;
    elsewhere the log is taken of the continued-fraction form directly,
    which stays finite far below double-precision range.  A single
    point takes the plain-float twin; a 0-d ``x`` returns a float.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        value = _incomplete_beta_scalar(float(x.flat[0]), a, b, bool(log))
        return value if x.ndim == 0 else np.full(x.shape, value)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise DomainError("x must lie in [0, 1]")
    log = np.broadcast_to(np.asarray(log, dtype=bool), x.shape)
    swap = x > (a + 1.0) / (a + b + 2.0)
    xs = np.where(swap, 1.0 - x, x)
    # x is 0 or 1 off the interior, where I is exact
    out = np.where(log, np.where(x == 1.0, 0.0, -np.inf), x)
    inner = (xs > 0.0) & (xs < 1.0)
    if not inner.any():
        return out
    xi = xs[inner]
    si = swap[inner]
    li = log[inner]
    ai = np.where(si, b, a)
    bi = np.where(si, a, b)
    lfront = ai * np.log(xi) + bi * np.log1p(-xi) - _lbeta(a, b)
    cf = _betacf(xi, ai, bi)
    value = np.clip(np.exp(lfront) * cf / ai, 0.0, 1.0)
    res = np.where(si, 1.0 - value, value)
    if li.any():
        reflected = li & si
        res[reflected] = np.log1p(-value[reflected])
        direct = li & ~si
        res[direct] = lfront[direct] + np.log(cf[direct]) - math.log(a)
    out[inner] = res
    return out


def regularized_incomplete_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation with the symmetry reduction
    I_x(a, b) = 1 - I_{1-x}(b, a) applied when x > (a+1)/(a+b+2), so
    the fraction is always used in its rapidly convergent region.
    Accepts scalar or array x; a and b are positive scalars.  A single
    point runs in plain Python floats, and a 0-d x returns a float.
    Each element's fraction stops when its own |delta - 1| < 1e-15, so
    an element gets the same value alone, on the single-point path and
    in any batch.
    """
    return _incomplete_beta(x, a, b, False)


def log_regularized_incomplete_beta(x, a, b):
    """log I_x(a, b), stable for values far below double-precision range.

    Uses the log of the continued-fraction form directly when x is in
    the convergent region, else the log1p complement of the reflected
    value.  Intended for deep lower tails (e.g. heavy-tail CDF logs).
    A single point runs in plain Python floats, and a 0-d x returns a
    float.  Each element's fraction stops when its own
    |delta - 1| < 1e-15, so an element gets the same value alone, on
    the single-point path and in any batch.
    """
    return _incomplete_beta(x, a, b, True)
