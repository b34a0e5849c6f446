"""The regularized incomplete beta and the Student t log-CDF.

The package needs one special function, the regularized incomplete beta
I_x(a, b), and mostly at the Student t pair (nu/2, 1/2): it is the dark
fraction ``geometry.cap_ratio_exact``, the skew t's factor and the
robit link.

I_x(a, b) sums a fixed 12-term power series near x = 0, up to an edge
per (a, b) where the dropped terms are proven below half an ulp, and a
continued fraction above it.  All the per-pair work is done once per
pair and cached as a ``_BetaPair``: for both orderings (a, b) and
(b, a), the fraction's coefficients, the series coefficients, the edge
and log B, and the swap threshold and log a.  A caller looks the pair up
once (``_beta_pair``) and hands it to the one evaluation of a point,
``_incomplete_beta_scalar``, in plain floats; a batch runs that
evaluation once per point.  The front factor x^a (1-x)^b / B(a, b) takes
a 1/2 exponent, that of every Student t pair, as a square root: correctly
rounded in plain floats and in numpy alike, and one transcendental call
fewer than exp(b log1p(-x)).

Outside its nu = 1 and nu = 2 closed forms the t log-CDF rests on
I_x(nu/2, 1/2) at x = nu / (nu + t^2), built from the same pair: the
series (``_beta_series``, ``_beta_series_array``) and the fraction
(``_betacf_scalar``).  One evaluation per point gives both log T and the
pdf/CDF ratio r = t / T that the skew-t and robit gradients need: the t
pdf is the incomplete beta's own front factor over |t|, so r costs a
division or two rather than a second pass over the points.  A 0-d
argument runs that evaluation once, and batches of up to
``_BETA_SMALL_BATCH`` points (the 10-chain ensembles, one robit chain)
run it in one loop with the constants of nu bound once; larger batches,
the tuner's among them, vectorize its series side through the same
branch formulas.  ``targets.SkewT`` and the robit link call
``_t_log_cdf_ratio`` past the degrees-of-freedom check their
construction made.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# --- regularized incomplete beta -------------------------------------------

_BETA_EPS = 1e-15
_BETA_FPMIN = 1e-300
# ``_beta_pair`` caches fraction tables this long: a change at run time
# needs ``_beta_pair.cache_clear()``
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


@lru_cache(maxsize=16)
def _beta_pair(a, b):
    """The ``_BetaPair`` of the floats (a, b), with fraction tables up to
    ``_BETA_MAXIT``: one cache lookup, made once per call by a caller that
    evaluates many points.  Raises DomainError unless a and b are finite
    and positive."""
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    return _BetaPair((a + 1.0) / (a + b + 2.0), math.log(a),
                     _beta_terms(a, b, _BETA_MAXIT), _beta_terms(b, a, _BETA_MAXIT))


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
    ``_beta_series_array`` takes in place on a batch's series side, so
    an array element gets the bits its float gets.
    """
    s = 0.0
    for c in coefs:
        s = s * x + c
    return s


def _beta_series_array(x, coefs):
    """``_beta_series`` at every element of an array, in place of one
    array: its first step, 0 * x + c, is c, and each later step the
    same multiply and add, so an element gets the bits of its float."""
    s = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        s *= x
        s += c
    return s


def _front(xs, t):
    """x^a (1-x)^b / B(a, b) at the reduced float x, as (lpow, root) with
    the factor exp(lpow) * root.

    A 1/2 exponent is taken as a square root, which is correctly rounded
    and makes one transcendental call fewer; root is 1 where neither
    exponent is 1/2.
    """
    if t.b == 0.5:
        return t.a * float(_np_log(xs)) - t.lbeta, math.sqrt(1.0 - xs)
    if t.a == 0.5:
        return t.b * float(_np_log1p(-xs)) - t.lbeta, math.sqrt(xs)
    return t.a * float(_np_log(xs)) + t.b * float(_np_log1p(-xs)) - t.lbeta, 1.0


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
    for all its points.  The one evaluation of a point, alone or in a
    batch.  log, log1p and exp are numpy's rather than ``math``'s, as
    throughout this module: on SIMD builds the two differ in the last bit
    on up to a few arguments in a hundred, and the t log-CDF's vectorized
    series side needs numpy's to give a point's bits.  They are bound
    once, as module names, since a loop over points calls this once per
    point.
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
    lpow, root = _front(xs, t)
    if xs <= t.edge:
        cf = _beta_series(xs, t.coefs)
    else:
        cf = _betacf_scalar(xs, t)
    if log and not swap:
        return lpow + float(_np_log(root * cf)) - pair.log_a
    value = float(_np_exp(lpow)) * root * cf / t.a
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

    The symmetry reduction I_x(a, b) = 1 - I_{1-x}(b, a) is applied where
    x > (a+1)/(a+b+2), so the sum below runs in its rapidly convergent
    region.  Where the reduction applies the reflected value is small,
    so its log1p complement is accurate; elsewhere the log is taken of
    the series or fraction form directly, which stays finite far below
    double-precision range.

    The reduced x meets one of two forms of the same factor.  At or
    below the pair's series edge (0.005 to 0.05 for the pairs
    (nu/2, 1/2) and (1/2, nu/2) of the Student t) it is a fixed
    ``_BETA_SERIES_TERMS``-term power series, whose dropped tail is
    proven below half an ulp; above it, the continued fraction.
    Everything that depends only on (a, b) is computed once per pair
    and cached (``_beta_pair``); a call looks it up once for all its
    points.  A 0-d ``x`` returns its float, and a batch runs
    ``_incomplete_beta_scalar`` once per point, so a point gets the same
    bits alone and in any batch.
    """
    pair = _beta_pair(float(a), float(b))
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return _incomplete_beta_scalar(float(x), pair, log)
    return np.array([_incomplete_beta_scalar(v, pair, log)
                     for v in x.ravel().tolist()]).reshape(x.shape)


def regularized_incomplete_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b).

    The symmetry reduction I_x(a, b) = 1 - I_{1-x}(b, a) is applied when
    x > (a+1)/(a+b+2).  The reduced x then takes a 12-term power series
    near 0 (at or below an edge computed per (a, b), where the dropped
    terms are proven below half an ulp) and the continued fraction
    elsewhere, in its rapidly convergent region.  Accepts scalar or
    array x; a and b are positive scalars, and a 0-d x returns a float.
    Each point is computed by one plain-float path: the series is a
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
    ``regularized_incomplete_beta`` is, one plain-float path per point;
    a 0-d x returns a float.  A point gets the same value alone and in
    any batch.
    """
    return _incomplete_beta(x, a, b, True)


# --- student t --------------------------------------------------------------


# Up to this many points the t log-CDF and its pdf/CDF ratio run one
# per-point loop rather than vectorizing the series side.  On skew-t
# batches drawn from the target (d = 10 and 100, so m = 11 and 101,
# skewness 100 and -100 on two coordinates; numpy 2.4, per batch the best
# of 3 x 20 calls of each, loop and vectorized interleaved, median over
# 20 batches of the ratio of the loop's time to the vectorized time, on
# a 2-core x86-64 VM):
#   points      8     16     24     28     32     36     40    128
#   d = 10    0.36   0.60   0.83   0.96   1.06   1.21   1.29   2.66
#   d = 100   0.38   0.62   0.82   0.85   0.93   0.99   1.05   1.55
# At 32 points that is 127 against 121 us at d = 10 and 152 against
# 162 us at d = 100.  The two cross near 30 points at d = 10 and near 36
# at d = 100, so the limit stays at 32.
_BETA_SMALL_BATCH = 32


def _check_dof(nu):
    # NaN and infinity fail too; the t at nu = inf is the normal, not a t
    if not 0.0 < nu < math.inf:
        raise DomainError(f"degrees of freedom must be finite and positive, got {nu}")


def student_t_log_cdf(t, nu):
    """log of the Student t CDF, stable deep into both tails.

    For t >= 0 it returns log1p(-F(-t)), so the upper tail keeps its
    precision as 1 - F vanishes.  Outside the nu = 1 and nu = 2 closed
    forms it rests on the incomplete beta I_x(nu/2, 1/2), with
    x = nu / (nu + t^2) and F(-|t|) = I_x / 2, whose per-pair work is
    looked up once per call (``_t_log_cdf_ratio``).  Each point takes
    either the fixed series or a continued fraction run to its own
    convergence, in the same operations alone, in a small batch's loop
    and on a large batch's vectorized series side, so a point gets the
    same value alone as inside any batch.  It stays finite for every
    finite t, also where t^2 overflows.
    """
    _check_dof(nu)
    return _t_log_cdf_ratio(np.asarray(t, dtype=float), float(nu))[0]


def _t_log_cdf_ratio(t, nu):
    """log T_nu(t) and the pdf/CDF ratio r = t_nu(t) / T_nu(t) from one
    evaluation, at a float array or numpy scalar ``t`` for a ``nu``
    already checked; two floats for a 0-d ``t``.

    Outside the closed forms both come from one incomplete-beta pass per
    point.  Up to ``_BETA_SMALL_BATCH`` points run one loop, with the
    constants of nu bound once: the upper-tail series branch, which most
    skew-t arguments take, is tested first and summed inline, and every
    other point goes to ``_t_point``.  A larger batch vectorizes the
    series side, the points with 0 < x <= the pair's series edge, through
    the same branch formulas (``_t_upper``, ``_t_lower``); the rest take
    ``_t_point``.
    """
    if nu == 1 or nu == 2:
        return _t_closed_forms(t, nu)
    k = _t_constants(nu)
    if t.ndim == 0:
        return _t_point(float(t), k)
    if t.size <= _BETA_SMALL_BATCH:
        nu, edge, coefs = k.nu, k.edge, k.coefs
        log_cdf, ratio = [], []
        for tv in t.ravel().tolist():
            x = nu / (nu + tv * tv)
            if 0.0 < x <= edge and tv >= 0.0:
                cf = 0.0
                for c in coefs:
                    cf = cf * x + c
                v, r = _t_upper(x, tv, cf, k)
            else:
                v, r = _t_point(tv, k)
            log_cdf.append(v)
            ratio.append(r)
        return np.array(log_cdf).reshape(t.shape), np.array(ratio).reshape(t.shape)
    flat = t.ravel()
    with np.errstate(over="ignore"):
        x = nu / (nu + flat * flat)
    series = (x > 0.0) & (x <= k.edge)
    log_cdf = np.empty_like(flat)
    ratio = np.empty_like(flat)
    rest = ~series
    if rest.any():
        log_cdf[rest], ratio[rest] = np.array([_t_point(tv, k) for tv in flat[rest].tolist()]).T
    for side, branch in ((series & (flat >= 0.0), _t_upper), (series & (flat < 0.0), _t_lower)):
        if side.any():
            xs = x[side]
            cf = _beta_series_array(xs, k.coefs)
            log_cdf[side], ratio[side] = branch(xs, flat[side], cf, k, np.asarray, np.sqrt)
    return log_cdf.reshape(t.shape), ratio.reshape(t.shape)


_LOG_HALF = math.log(0.5)


class _TConstants(NamedTuple):
    """What the t log-CDF needs of nu, looked up once per call: a = nu/2,
    log B(a, 1/2) and log B(a, 1/2) + log nu, the series edge and
    coefficients of the pair (a, 1/2), its ``_BetaPair``, and
    r(0) = 2 t_nu(0)."""

    nu: float
    a: float
    lbeta: float
    lbeta_nu: float
    edge: float
    coefs: tuple
    pair: _BetaPair
    r_zero: float


@lru_cache(maxsize=16)
def _t_constants(nu):
    pair = _beta_pair(nu / 2.0, 0.5)
    t = pair.terms
    return _TConstants(nu, t.a, t.lbeta, t.lbeta + math.log(nu), t.edge, t.coefs,
                       pair, 2.0 * math.exp(-t.lbeta) / math.sqrt(nu))


# The two branches below the symmetry threshold, x = nu / (nu + t^2) at
# most (a+1) / (a+3/2), where I_x(a, 1/2) = front cf / a with
# front = x^a sqrt(1-x) / B(a, 1/2) and cf the series or the continued
# fraction; the t pdf is front / |t|.  Each takes a float (with float
# and math.sqrt) or an array (with np.asarray and np.sqrt): log, log1p
# and exp are numpy's either way and the square root is correctly
# rounded in both, so an array element gets the bits of its float.


def _t_upper(x, tv, cf, k, real=float, sqrt=math.sqrt):
    """log T and r for tv >= 0: T = 1 - I/2 = 1 - front cf / nu, and
    r = front / (tv T)."""
    front = real(_np_exp(k.a * real(_np_log(x)) - k.lbeta)) * sqrt(1.0 - x)
    half = front * cf / k.nu
    return real(_np_log1p(-half)), front / (tv * (1.0 - half))


def _t_lower(x, tv, cf, k, real=float, sqrt=math.sqrt):
    """log T and r for tv < 0: log T = log(front cf / nu), taken in logs
    so that it stays finite far below the double range, and
    r = nu / (|tv| cf), which needs no exp and cannot underflow."""
    return (k.a * real(_np_log(x)) - k.lbeta_nu + real(_np_log(sqrt(1.0 - x) * cf)),
            -k.nu / (tv * cf))


def _t_point(tv, k):
    """log T_nu(tv) and r at one float ``tv``; ``k`` is ``_t_constants(nu)``.

    Below the symmetry threshold the series (at or below the edge, where
    |tv| is beyond about 4.5 sqrt(nu)) or the continued fraction feeds
    ``_t_upper`` or ``_t_lower``.  Above it (|tv| small) the reflected
    pair (1/2, a) runs at y = tv^2 / (nu + tv^2), formed directly rather
    than as 1 - x, which would cancel: I_x(a, 1/2) = 1 - v with
    v = 2 front cf, front = y^(1/2) (1-y)^a / B(a, 1/2) = |tv| pdf, so
    T = (1 +- v) / 2 on the upper (lower) tail and r = 2 front / (|tv| (1 +- v)).
    At tv = 0 (or tv^2 below the smallest double) r = 2 t_nu(0).  Where
    x = 0, as where tv^2 overflows, the upper tail's T is 1 to rounding;
    the lower tail's log T is ``_t_lower``'s with sqrt(1-x) and the
    series at 1 and log x = log nu - 2 log|tv| - log1p(nu / tv^2), which
    stays finite for a finite tv, and r is its limit nu / |tv|, 0 at
    -inf.  NaN raises ``DomainError``.
    """
    x = k.nu / (k.nu + tv * tv)
    if 0.0 < x <= k.edge:
        cf = _beta_series(x, k.coefs)
    elif 0.0 < x <= k.pair.threshold:
        cf = _betacf_scalar(x, k.pair.terms)
    elif x == 0.0:
        if tv > 0.0:
            return 0.0, 0.0
        log_x = math.log(k.nu) - 2.0 * math.log(-tv) - math.log1p(k.nu / (tv * tv))
        return k.a * log_x - k.lbeta_nu, -k.nu / tv
    elif not x <= 1.0:
        raise DomainError(f"t log-CDF argument must not be NaN, got {tv}")
    else:
        tt = tv * tv
        y = tt / (k.nu + tt)
        if y == 0.0:
            return _LOG_HALF, k.r_zero
        t = k.pair.reflected
        cf = _beta_series(y, t.coefs) if y <= t.edge else _betacf_scalar(y, t)
        front = float(_np_exp(k.a * float(_np_log1p(-y)) - k.lbeta)) * math.sqrt(y)
        v = 2.0 * front * cf
        if tv < 0.0:
            v = -v
        return _LOG_HALF + float(_np_log1p(v)), 2.0 * front / (abs(tv) * (1.0 + v))
    return _t_upper(x, tv, cf, k) if tv >= 0.0 else _t_lower(x, tv, cf, k)


def _t_closed_forms(t, nu):
    """``_t_log_cdf_ratio`` at nu = 1 and nu = 2, in forms free of
    cancellation, overflow and, but at t = -inf, of 0 / 0."""
    scalar = t.ndim == 0
    t_arr = np.atleast_1d(t)
    a = np.abs(t_arr)
    neg = t_arr < 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        if nu == 1:
            # arctan(t) + pi/2 = arctan2(1, -t) for t <= 0
            theta = np.arctan2(1.0, a)
            lower = theta / math.pi
            # r = 1 / ((1 + t^2) pi T), with pi T = theta or pi - theta
            pi_cdf = np.where(neg, theta, math.pi - theta)
            ratio = 1.0 / (pi_cdf + a * (a * pi_cdf))
        else:
            # rationalized form of (1 + t/sqrt(2+t^2))/2 for t <= 0
            s = np.sqrt(2.0 + a * a)
            prod = s * (s + a)
            lower = 1.0 / prod
            # the pdf is 1 / h^3, with h = sqrt(2 + t^2) formed by hypot
            h = np.hypot(a, math.sqrt(2.0))
            ratio = np.where(neg, (1.0 + a / h) / h, 1.0 / (h * h * h * (1.0 - lower)))
    # a * 0 or inf / inf is NaN at t = -inf, where r tends to 0
    ratio[a == math.inf] = 0.0
    out = np.log1p(-lower)
    if nu == 1:
        # lower is 0 at t = -inf, whose log is -inf as for every other nu
        with np.errstate(divide="ignore"):
            out[neg] = np.log(lower[neg])
    else:
        out[neg] = -np.log(prod[neg])
        # where s (s + |t|) overflows at a finite t, its log is taken as
        # 2 log h + log1p(|t| / h), without the product
        far = neg & (prod == math.inf) & (a < math.inf)
        out[far] = -(2.0 * np.log(h[far]) + np.log1p(a[far] / h[far]))
    if scalar:
        return float(out[0]), float(ratio[0])
    return out, ratio

