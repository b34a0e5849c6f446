"""Reference functions the tests judge the package by.

Nothing in the package calls these: the Student t CDF (the package
needs only its log), the KS distance of a sample to a CDF, and the
target whose pullback to the sphere is the uniform cap law.
"""

import math

import numpy as np

from brightside.errors import EmptyInput
from brightside.geometry import ProjectionParams, _incomplete_beta, log_jacobian
from brightside.targets import TargetModel, _check_dof


def student_t_cdf(t, nu):
    """CDF of the univariate Student t with ``nu`` degrees of freedom.

    Closed forms for nu = 1 (arctangent) and nu = 2 (algebraic); the
    general case reduces to the regularized incomplete beta function,
    and a 0-d ``t`` there runs in plain Python floats.  Monotone in t
    and exact at t = 0 for every nu.
    """
    _check_dof(nu)
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


def ks_statistic(samples, cdf) -> float:
    """Sup distance between the empirical CDF and ``cdf``.

    Both one-sided gaps are evaluated at the sorted sample points, so a
    single observation at the reference median scores exactly 1/2.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n == 0:
        raise EmptyInput("need at least one sample")
    s = np.sort(samples)
    F = np.asarray(cdf(s), dtype=float)
    if F.shape != s.shape:
        F = np.array([float(cdf(v)) for v in s])
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - F), np.max(F - (grid - 1.0 / n))))


class UniformCapPullback(TargetModel):
    """Target whose pullback to the sphere is exactly uniform: pi = 1/J.

    Useful as a fixed point of the sampler: every proposal is accepted
    and the chain's latitude occupancy must match cap band areas.
    """

    def __init__(self, params: ProjectionParams):
        self.params = params
        self.dim = params.d

    def log_density(self, y):
        return -log_jacobian(y, self.params)


def uniform_cap_pullback(params: ProjectionParams) -> UniformCapPullback:
    return UniformCapPullback(params)
