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

The incomplete beta behind ``cap_ratio_exact`` is that of ``special``.

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
from functools import cached_property

import numpy as np

from . import special
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

# the log ``cap_forward`` takes for one point, as for a batch
_np_log = np.log


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
    take the same elementwise steps, their logs are numpy's (``math.log``
    differs from it in the last bit at a few arguments in a thousand),
    and a batch takes <o, x> per row (``np.vecdot``, the point's dot),
    so a batch row's y, log_jac, t and bracket have the bits of its
    single point.  Raises DarkSidePoint if any point is at or above the
    observer latitude, where the chord never reaches the plane.
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
        log_jac = (p._log_jac_const + float(_np_log(bracket))
                   - (p.d + 1.0) * float(_np_log(t)))
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
        bracket = 1.0 - np.vecdot(x, p._observer)
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
        B = np.vecdot(w, p.h_o) - p.ell_o * (p.ell_o - 1.0)
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
    that is the north pole (see ``kernels.run_chain``).  Every step is
    elementwise or per row, so a batch row's lift has the bits of its
    point alone.  Raises as ``solve_chord_scale`` does.
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


# the incomplete beta of ``special``, bound here too: ``bench/layers.py``
# imports both names from this module
regularized_incomplete_beta = special.regularized_incomplete_beta
log_regularized_incomplete_beta = special.log_regularized_incomplete_beta


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
    return 0.5 * regularized_incomplete_beta(x, d / 2.0, 0.5)
