"""Reference functions the tests judge the package by.

Nothing in the package calls these: the Student t CDF (the package
needs only its log), the KS distance of a sample to a CDF, the
log-Jacobian of the projection from the chord solve at a plane point
(a second derivation that ``geometry.cap_forward`` is checked against),
the target whose pullback to the sphere is the uniform cap law, the
skew t's gradient summed as its two terms (the package reassociates
them into one pass), and central finite differences of the tuner's
objective.
"""

import math

import numpy as np

from brightside.errors import EmptyInput
from brightside.geometry import (
    ProjectionParams,
    _incomplete_beta,
    make_params,
    solve_chord_scale,
)
from brightside.kernels import _pullback
from brightside.targets import SkewT, TargetModel, _check_dof, _t_log_pdf
from brightside.tuning import project_params


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


def log_jacobian(y, p: ProjectionParams) -> np.ndarray:
    """Log Jacobian determinant of the forward projection at ``y``.

    log J = d*log R + log(M*|w|^2 + <w, h_o> + ell_o - ell_o^2*(1-M))
            - d*log M - log ell_o,  with w = yhat - h_o.
    The middle bracket is A*M + B, and since M is the root of
    A*M^2 + 2*B*M + C = 0 taken by ``solve_chord_scale``, A*M + B =
    sqrt(B^2 - A*C), its discriminant; so log J = d*log R +
    log sqrt(B^2 - A*C) - d*log M - log ell_o takes no second pass over
    ``y`` and never forms M**d.
    """
    M, A, B, C = solve_chord_scale(y, p)
    return (p.d * math.log(p.R) + 0.5 * np.log(B * B - A * C)
            - p.d * np.log(M) - math.log(p.ell_o))


def skew_t_grad_two_term(target: SkewT, y):
    """The skew t's gradient as the t kernel's plus r times the skewing
    argument's, and per element the largest magnitude among its terms.

    With z = y - xi, m = nu + d, g = sqrt(m / (nu + |z|^2)) and
    s = a'z g, the gradient is -m / (nu + |z|^2) z + r (g a -
    s / (nu + |z|^2) z), r being the pdf/CDF ratio of T_m at s.  Near
    s = -inf, r s tends to -m and the two z terms cancel, so a sum of
    the same terms in another order can differ by a few ulps of the
    largest of the three, not of the result.
    """
    z, q, nq, g, s, log_cdf = target._skewing(y)
    ratio = np.exp(_t_log_pdf(s, target._m) - log_cdf)
    kernel = target._grad(z, q)
    skew_a = (ratio * g)[..., None] * target.alpha_skew
    skew_z = (ratio * s / nq)[..., None] * z
    largest = np.maximum(np.abs(kernel), np.maximum(np.abs(skew_a), np.abs(skew_z)))
    grad_s = g[..., None] * target.alpha_skew - (s / nq)[..., None] * z
    return kernel + ratio[..., None] * grad_s, largest


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


def fd_tuner_gradient(theta_bar, ell_o, target, cap_samples, rel_step=1e-5):
    """(g_ho, g_mu, g_R) of the tuner's objective by central differences.

    The objective is the batch mean of -log pi(F(x)) - log J(x) over the
    common ``cap_samples``; all 2d + 1 coordinates are perturbed, one at
    a time, by ``rel_step * (1 + |value|)``.
    """
    theta = np.concatenate([np.asarray(theta_bar[0], dtype=float),
                            np.asarray(theta_bar[1], dtype=float),
                            [float(theta_bar[2])]])
    d = theta.size // 2

    def objective(th):
        # a perturbed h_o may leave the observer ball (at ell_o = 2, any h_o != 0)
        h_o, mu, R = project_params((th[:d], th[d:2 * d], th[-1]), ell_o)
        p = make_params(d, h_o=h_o, ell_o=ell_o, mu=mu, R=R)
        return -float(np.mean(_pullback(cap_samples, p, target)[1]))

    grad = np.empty_like(theta)
    for j, value in enumerate(theta):
        eps = rel_step * (1.0 + abs(value))
        up, down = theta.copy(), theta.copy()
        up[j], down[j] = value + eps, value - eps
        grad[j] = (objective(up) - objective(down)) / (2.0 * eps)
    return grad[:d], grad[d:2 * d], float(grad[-1])
