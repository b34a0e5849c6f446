"""Markov transition kernels and the chain runner.

The headline kernel runs random-walk Metropolis on the bright side of
the sphere: a Gaussian tangent-space proposal is projected back onto
the sphere, proposals that land on the dark side are relocated along
the proposal great circle by a deterministic stepping-out walk, and
the usual accept/reject uses the target density times the projection
Jacobian from ``geometry.cap_forward``.  The stereographic sampler is
the same kernel at latitude 2 (where the dark side is a single point
and stepping-out never fires); plain random-walk Metropolis and
Hamiltonian Monte Carlo baselines run directly in target space.  Each
transition is written once, as a function of the state and that
step's draws: ``sphere_step`` (scs, sps), ``hmc_step`` and, in the chain
loop behind ``run_chain`` and ``run_chains``, the rwm step and the scs
independence move.  All four call one test, ``metropolis``: accept where
the proposal's log density lp' is finite and log u < lp' - lp, with
log 0 = -inf, so no kernel moves to a NaN or +inf density.

Every ``KernelConfig.independence_every``-th scs step (t % k == 0, k = 3
by default, 0 for none) is an independence move instead, with multiple
tries (Liu, Liang & Wong, JASA 2000): it draws K uniform points of the
bright cap, picks try j with probability w_j / W, where w = pi(F(x)) J(x)
is the pullback weight and W the tries' total, and accepts it when
log u < log W - log(W - w_j + w), w the state's weight; lp = log w is
the log density plus log-Jacobian that ``sphere_step`` carries, so the
test is log u < log W - logaddexp(log(W - w_j), lp), and on accepting
lp becomes log w_j.  At K = 1 that is log u < lp_j - lp, Metropolis-
Hastings with the pullback as target under the uniform cap law.  A try
at NaN or +-inf has weight 0 and is never picked, and a move whose
tries all have weight 0 is rejected.  Under the
sub-Cauchy hypothesis the pullback is bounded, so the move alone is
uniformly ergodic (Mengersen & Tweedie 1996), and a fixed cycle of it
with SCS keeps SCS's uniform ergodicity.  sps does not take the move:
at ell_o = 2 the image of the uniform sphere has tails ~ |y|^(-2d),
lighter than a Cauchy's |y|^(-(d+1)), so pi over that law is
unbounded.  The step-size recursion reads the SCS steps only.

K is chosen per chain before its first step, so the chain stays
Markov: the chain weighs ``PILOT_POINTS`` uniform cap points, and with
rho Kish's relative ESS (sum w)^2 / (n sum w^2) of those weights,
K = clip(floor(1 / rho), 1, ``MAX_TRIES``).  Where the weights are
nearly flat (rho > 1/2, the untuned Cauchy) one try is accepted often
and K = 1; where they are uneven (the tuned skew t, rho ~ 0.15-0.25)
more tries raise the acceptance for a few more density evaluations per
move.

All randomness comes from one generator, ``_draws``: each step's
``z``, standard normals shaped like the state (the tangent step, the
rwm step or the HMC momentum), ``u``, one uniform per chain for the
Metropolis test, and at an independence step the picked try.  Chain
seed s spawns four generators, ``SeedSequence(s).spawn(4)``, whose
first three are those of ``spawn(3)``.  Every step consumes one normal
row of the first and one uniform of the second, used or not (an
independence step leaves its normal row unused).  The third feeds the
tries: the tries of move j are the bright rows jK to jK + K - 1 of its
stream, drawn by the cap's one sampler, ``geometry._bright_rows``.  The
fourth draws the pilot's points, ``sample_uniform_cap`` of that stream,
then one uniform per move, which picks its try.  The steps come in
blocks of k * ``_DRAW_BLOCK`` steps, which hold ``_DRAW_BLOCK`` moves:
one call per stream reads a block's draws, and since the tries do not
depend on the state, one ``_pullback`` (one ``cap_forward`` and one
density call) evaluates every chain's tries at the block's first move,
and ``_pick`` gives each move its pick, log W and log(W - w_j); the
step itself costs one ``metropolis`` call.  The pilots of all chains
take one more ``_pullback`` as the first step is drawn.  Every sphere
density, the start's and each proposal's included, is a ``_pullback``.
numpy's generators give the same draws however a stream is chunked, so
which points a chain tries and picks does not depend on the block size
or the ensemble.

``sphere_step``, ``hmc_step`` and ``metropolis``, and the geometry
under them (``propose_tangent``, ``leapfrog``), work over a leading
chain axis: a state of shape (d,) (d+1 on the sphere) is one chain,
(n, d) is n chains with their own draws and step sizes, stepped with
one batched density call per transition.  An HMC transition with L
leapfrog steps makes L - 1 gradient calls and, at the proposal, one
fused ``log_density_and_grad`` call, which serves both the acceptance
test and the next trajectory's first kick.  The leapfrog carries the
velocity v = eps p, so a step is a kick v += eps^2 g and a drift
y += v, one array pass fewer than the momentum form; one chain's
acceptance test runs in plain floats, and an ensemble's row by row.
An ensemble's ``metropolis`` selects rows in place: it copies each
rejected row of the state into the arrays the transition made for its
proposal (the tangent step and its image and density, the HMC end
point, an independence step's picked try) and returns those as the new
state.  It never writes into the state it was handed, the caller's
start, or an array a target returned, so HMC selects its end-point
density and gradient into new arrays.
Stepping-out is written for one pair only
(``stepping_out``); an ensemble steps its dark rows out one at a time
through it.  ``run_chains`` runs hmc replicas, and scs and sps replicas
from ``SPHERE_ENSEMBLE_MIN_CHAINS`` up, as one ensemble; other replicas
run one after another.  A chain reads the same draws alone as in an
ensemble, so replica i depends only on ``(seed, i)`` and its start and
matches ``run_chain`` with its derived seed to round-off.
A product of two vectors is ``a.dot(b)`` and an ensemble's row products
are ``np.vecdot``; no kernel uses ``@``.  ``a @ b`` reaches the same
BLAS dot with the same bits, but through matmul's dispatch: at d = 100
it costs about 0.7 us a call against 0.4 us, and a one-chain scs step
takes two such products, four when it steps out.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import (
    ChainAborted,
    DarkSidePoint,
    DegenerateProposal,
    NonfiniteInput,
    _require_integer,
)
from .geometry import (
    ProjectionParams,
    _bright_rows,
    cap_forward,
    sample_uniform_cap,
    scp_inverse,
)
from .targets import TargetModel

KERNEL_KINDS = ("scs", "sps", "rwm", "hmc")

# preferred average acceptance rates: 0.234 for the random-walk type
# kernels, 0.8 for HMC
WALK_TARGET_ACCEPT = 0.234
HMC_TARGET_ACCEPT = 0.8

# The batched sphere transition has a fixed cost per step that the
# shared density call pays back only from several chains.  Sequential
# over ensemble time of scs chains with the default independence move
# (600 iterations, 100 burn-in, ell_o 1.1, the skew t tuned; median of
# 11 interleaved pairs, range over two runs, 2-core x86-64 VM, numpy
# 2.4.6):
#   chains   skew t d = 10   Cauchy d = 10   Cauchy d = 100
#   4          1.06-1.09       0.87-0.90       0.86-0.87
#   5          1.27-1.33       1.00-1.06       0.89-0.95
#   6          1.41-1.44       1.11-1.12       1.07-1.25
# so the two still break even at about 5 chains: the skew t gains from
# 4, the Cauchy at d = 10 from 5 and at d = 100 from 6.
SPHERE_ENSEMBLE_MIN_CHAINS = 5

# moves (steps, for a chain without the move) per block of draws; the
# draws do not depend on it
_DRAW_BLOCK = 64

# The independence move's rule: before its first step a chain weighs
# PILOT_POINTS uniform bright-cap points, and the relative ESS rho of
# their weights sets its tries per move to clip(floor(1 / rho), 1,
# MAX_TRIES).  Each try costs a cap point and a density evaluation, so
# the rule spends them only where the weights are uneven enough for the
# picked try to be accepted more often.
PILOT_POINTS = 256
MAX_TRIES = 8


@dataclass(frozen=True)
class KernelConfig:
    """Kernel selection plus step-size, adaptation and move settings.

    ``adapt_burnin`` counts the initial iterations during which the
    step size follows the Robbins-Monro recursion; ``None`` adapts for
    the whole burn-in of the run, ``0`` keeps the step size fixed.  The
    recursion reads SCS steps only, indexed by their own count.

    ``independence_every`` = k makes scs step t an independence move
    to the pick of K uniform bright-cap tries whenever t % k == 0 (see
    the module docstring, which gives the rule for K); 0 gives pure SCS,
    bit for bit as before the move existed.  The default 3 takes two SCS
    steps per move: on the tuned d = 10 skew t with a single try, 2 made
    the bench's 5-standard-error tail checks fail now and then (a chain
    that jumps to a far, heavy point of the pullback stays there longer
    than its ESS shows), and 3 did not.  Only scs reads it: sps, rwm and
    hmc ignore it.
    """

    kind: str
    h: float = 0.5
    leapfrog_steps: int = 10
    target_accept: float = WALK_TARGET_ACCEPT
    adapt_burnin: Optional[int] = None
    independence_every: int = 3

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}")
        object.__setattr__(self, "kind", kind)
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"h must be a positive finite step size, got {self.h}")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target acceptance must lie in (0, 1)")
        for name, least in (("leapfrog_steps", 1 if kind == "hmc" else 0),
                            ("adapt_burnin", 0), ("independence_every", 0)):
            value = getattr(self, name)
            if not (name == "adapt_burnin" and value is None):
                _require_integer(name, value, least)


@dataclass
class ChainOutput:
    """Kept samples plus run diagnostics.

    ``acceptance_rate`` is the accepted fraction of all post burn-in
    steps (of all steps when ``burnin = 0``), SCS and independence steps
    together.  ``independence_acceptance`` is that fraction over the
    independence steps alone, NaN when the chain took none after burn-in
    (the move is off, or the kernel is not scs).  ``independence_tries``
    is the chain's K, the tries per independence move, and
    ``pilot_relative_ess`` the relative ESS of its pilot's pullback
    weights that set K (in (0, 1], or 0 when no pilot weight is
    positive); they are 0 and NaN when the chain takes no move.
    ``step_size_trace`` holds the step size after each adapted
    iteration, an independence step repeating the value before it, then
    the final one.
    """

    samples: np.ndarray
    acceptance_rate: float
    step_size_trace: np.ndarray
    seed: int
    wall_time: float
    valid: bool = True
    independence_acceptance: float = math.nan
    independence_tries: int = 0
    pilot_relative_ess: float = math.nan


def propose_tangent(x, h, z) -> np.ndarray:
    """Gaussian tangent-space step projected back onto the sphere.

    One point ``x`` of shape (d+1,) with a scalar ``h``, or n points of
    shape (n, d+1) with ``h`` of shape (n,); ``z`` holds standard
    normals shaped like ``x``.  Step sizes must be positive, as
    ``KernelConfig`` and the runner's clamp keep them.  The step moves x
    by h z less its radial part, to w = (1 - h<x, z>) x + h z.  It is
    built in place as w / h = (1/h - <x, z>) x + z, which saves the array
    h z and normalizes to the same point, and divided by its own computed
    norm.  The closed form sqrt(1 + h^2 (|z|^2 - <x, z>^2)) is not used
    for that norm: rounding can make its root's argument negative at
    large h, and over chained steps it lets |x| drift from 1.  One
    point's products are ``ndarray.dot``, which has the bits of ``@``
    for two vectors at half its call cost.
    """
    if x.ndim == 1:
        w = x * (1.0 / h - float(x.dot(z)))
        w += z
        w /= math.sqrt(w.dot(w))
        return w
    w = x * (1.0 / h - np.vecdot(x, z))[:, None]
    w += z
    w /= np.sqrt(np.vecdot(w, w))[:, None]
    return w


def stepping_out(x, x_prime, ell_o) -> np.ndarray:
    """Walk K arcs of length alpha along the great circle, landing bright.

    Takes one bright ``x`` and one dark ``x_prime``, each of shape (d+1,).
    With c = <x, x'> and s^2 = 1 - c^2, u = (x' - c x)/s is the unit
    tangent at x toward x' and alpha = acos(c) the arc to x'.  At the
    angle theta from x the circle's latitude is A cos(theta - phi), with
    A = hypot(x_lat, u_lat), and its dark arc is |theta - phi| < gamma,
    A cos(gamma) = ell_o - 1.  K is the smallest integer with
    K alpha > phi + gamma, so K alpha lies in (phi + gamma,
    phi + gamma + alpha]: past the dark arc, and short of re-entering it
    since alpha <= pi <= 2 pi - 2 gamma.  Lands at cos(K alpha) x +
    sin(K alpha) u.  A > 0: A = 0 needs x_lat = u_lat = 0, which puts x'
    at latitude 0 too, and no bright x has a dark x' there.  Raises
    DarkSidePoint unless x is bright and x' dark, and DegenerateProposal
    when s^2 <= 1e-14 (coincident or antipodal points).  Its products
    are ``ndarray.dot``, as in ``propose_tangent``.
    """
    lat_threshold = ell_o - 1.0
    x_lat, x_prime_lat = float(x[-1]), float(x_prime[-1])
    if not x_lat < lat_threshold:
        raise DarkSidePoint("current state must be on the bright side")
    if not x_prime_lat > lat_threshold:
        raise DarkSidePoint("proposal must be on the dark side")
    c = float(x.dot(x_prime))
    s2 = 1.0 - c * c
    if s2 <= 1e-14:
        raise DegenerateProposal("proposal coincident or antipodal with state")
    u = x_prime - c * x
    u /= math.sqrt(s2)
    alpha = math.acos(min(1.0, max(-1.0, c)))
    amp = math.hypot(x_lat, float(u[-1]))
    phi = math.acos(min(1.0, max(-1.0, x_lat / amp)))
    gamma = math.acos(min(1.0, max(-1.0, lat_threshold / amp)))
    K = int((phi + gamma) / alpha) + 1
    while K * alpha <= phi + gamma:  # float-rounding guard
        K += 1
    assert K <= math.ceil(2.0 * math.pi / alpha) + 1
    angle = K * alpha
    out = math.cos(angle) * x
    out += math.sin(angle) * u
    out /= math.sqrt(out.dot(out))
    return out


def metropolis(u, lp, lp_new, current=(), proposed=()):
    """The Metropolis test of every kernel.

    Accepts where ``lp_new`` is finite and log u < lp_new - lp, with
    log 0 = -inf; ``lp`` and ``lp_new`` are the log densities the kernel
    carries at the state and at the proposal (-H for HMC), so a proposal
    at NaN or +-inf is rejected.  One chain passes floats and gets a
    bool.  n chains pass ``lp_new`` of shape (n,) and the state's parts
    at ``lp`` and at ``lp_new``, arrays of shape (n, k) or (n,), as the
    tuples ``current`` and ``proposed``.  Their rows are selected in
    place: each rejected row of ``current`` and of ``lp`` is copied into
    ``proposed`` and ``lp_new``, and these come back, each part and then
    lp, followed by the boolean array of accepted rows.  So ``proposed``
    and ``lp_new`` must be arrays the kernel made for this step, never
    the state's, a caller's or one a target returned; ``current`` and
    ``lp`` are only read.
    """
    if not isinstance(lp_new, np.ndarray):
        return (math.log(u) if u > 0.0 else -math.inf) < lp_new - lp and math.isfinite(lp_new)
    with np.errstate(divide="ignore", invalid="ignore"):
        accepted = np.isfinite(lp_new) & (np.log(u) < lp_new - lp)
    rejected = ~accepted
    keep = rejected[:, None]
    for old, new in zip(current, proposed):
        np.copyto(new, old, where=keep if new.ndim > 1 else rejected)
    np.copyto(lp_new, lp, where=rejected)
    return (*proposed, lp_new, accepted)


def sphere_step(x, y, logpost, h, params: ProjectionParams, target: TargetModel,
                z, u):
    """One SCS transition on the bright side of the sphere (SPS at ell_o = 2).

    ``x`` is the sphere state, ``y`` its image in target space and
    ``logpost`` the log density plus log-Jacobian there.  Steps one
    chain, ``x`` of shape (d+1,) with scalars ``h`` and ``u``, or n
    chains, ``x`` of shape (n, d+1) with ``h`` and ``u`` of shape (n,);
    ``z`` holds the tangent step's normals, shaped like ``x``.  A dark
    proposal steps out along its great circle, one chain at a time
    through ``stepping_out``; then one ``cap_forward`` and one density
    call serve all the chains.  A degenerate proposal (coincident or
    antipodal), an exact tie with the dark cap and a non-finite density
    are rejected; the first two have probability zero, and in an
    ensemble their rows re-evaluate their state at proposal density NaN.
    Returns (x, y, logpost, accepted); an ensemble gets back the arrays
    made for its proposal, rejected rows set to the state's, and its
    input arrays are left as they were.
    """
    ell_o = params.ell_o
    lat_threshold = ell_o - 1.0
    x_star = propose_tangent(x, h, z)
    if x.ndim == 1:
        try:
            if ell_o < 2.0 and x_star[-1] > lat_threshold:
                x_star = stepping_out(x, x_star, ell_o)
            y_star, lp_star = _pullback(x_star, params, target)
        except (DegenerateProposal, DarkSidePoint):
            return x, y, logpost, False
        if metropolis(u, logpost, lp_star):
            return x_star, y_star, lp_star, True
        return x, y, logpost, False
    lat = x_star[:, -1]  # a view: it follows the rows stepped out
    if ell_o < 2.0:
        for i in (lat > lat_threshold).nonzero()[0]:
            try:
                x_star[i] = stepping_out(x[i], x_star[i], ell_o)
            except DegenerateProposal:
                pass  # the proposal stays dark and fails the test below
    dead = lat >= lat_threshold  # degenerate rows and exact ties
    any_dead = dead.any()
    if any_dead:
        x_star[dead] = x[dead]
    y_star, lp_star = _pullback(x_star, params, target)
    if any_dead:
        lp_star[dead] = np.nan
    return metropolis(u, logpost, lp_star, (x, y), (x_star, y_star))


def leapfrog(y, momentum, eps, steps, target: TargetModel, g):
    """Leapfrog integration of (y, momentum) under potential -log pi.

    ``y`` is one state of shape (d,) or chains along a leading axis,
    with ``eps`` a scalar or one step size per chain broadcast as
    (n, 1); ``g`` is the gradient at ``y``.  The trajectory carries the
    velocity v = eps p rather than the momentum p: a full kick is
    v += eps^2 g, the half kicks at either end add eps^2 g / 2, and a
    drift is y += v, so no step scales the momentum by eps before it
    moves y.  Adjacent half-kicks are fused into one full kick, so the
    trajectory takes steps - 1 ``grad_log_density`` calls and, at its
    end point, one ``log_density_and_grad`` call, with steps + 1 kicks.
    Returns the end point, its momentum v / eps (the momentum form's to
    round-off), its log density and its gradient; the inputs are not
    modified.
    """
    eps2 = eps * eps
    half = 0.5 * eps2
    v = eps * momentum
    v += half * g
    y = y + v
    for _ in range(steps - 1):
        g = target.grad_log_density(y)
        v += eps2 * g
        y += v
    logp, g = target.log_density_and_grad(y)
    v += half * g
    v /= eps
    return y, v, logp, g


def hmc_step(y, logp, g, eps, steps, target: TargetModel, z, u):
    """One Hamiltonian Monte Carlo transition with identity mass matrix.

    Steps one chain, ``y`` of shape (d,) with scalars ``eps`` and ``u``,
    or n chains at once, ``y`` of shape (n, d) with ``eps`` and ``u`` of
    shape (n,); ``z`` is the momentum, shaped like ``y``.  ``logp`` and
    ``g`` are the log density and gradient at ``y``; they are returned
    with the new state, so a chain evaluates them once per transition,
    at the proposal: steps - 1 gradient calls inside the trajectory and
    one ``log_density_and_grad`` call at its end.  ``metropolis`` gets
    -H = log p - |m|^2 / 2 at either end (plain floats for one chain,
    whose accepted log density is returned as a float); negation is
    exact, so the ratio has the bits of H_0 - H_1.  A row whose end point
    is not finite gets -H = NaN.  Returns (y, logp, g, accepted).  An
    ensemble's y is its trajectory's end point with the rejected rows
    set back; logp and g, which the target returned, are selected into
    new arrays, so no input array and no array of the target's is
    written.
    """
    if y.ndim == 1:
        y1, m1, logp1, g1 = leapfrog(y, z, eps, steps, target, g)
        logp1 = float(logp1)
        lp1 = logp1 - 0.5 * float(m1.dot(m1)) if np.isfinite(y1).all() else math.nan
        if metropolis(u, float(logp) - 0.5 * float(z.dot(z)), lp1):
            return y1, logp1, g1, True
        return y, logp, g, False
    y1, m1, logp1, g1 = leapfrog(y, z, eps[:, None], steps, target, g)
    with np.errstate(invalid="ignore"):  # inf - inf on a diverged row
        lp1 = logp1 - 0.5 * np.vecdot(m1, m1)
    lp1[~np.isfinite(y1).all(axis=-1)] = np.nan
    # logp1 and g1 may be arrays the target keeps, so they are not written
    y1, _, accepted = metropolis(u, logp - 0.5 * np.vecdot(z, z), lp1, (y,), (y1,))
    return (y1, np.where(accepted, logp1, logp), np.where(accepted[:, None], g1, g),
            accepted)


# When a target's pullback is so close to uniform that the requested
# acceptance rate is unattainable, the recursion diverges; the update
# clamps the step size to keep the chain numerically sane.
_STEP_SIZE_CLAMP = (1e-10, 1e10)


def adapt_step_size(h, accepted, t, target_accept):
    """Robbins-Monro step-size update, log h += t^-0.6 (acc - target).

    ``h`` and ``accepted`` may be per-chain arrays.  Acceptance is 0 or
    1, so a step has two factors; both come from ``math.exp`` and each
    chain picks its own, which gives an ensemble row its single chain's
    bits.  The result is clamped to ``_STEP_SIZE_CLAMP``.
    """
    low, high = _STEP_SIZE_CLAMP
    if np.ndim(accepted):
        return np.clip(h * np.where(accepted, math.exp(t**-0.6 * (1.0 - target_accept)),
                                    math.exp(t**-0.6 * (0.0 - target_accept))), low, high)
    return min(max(h * math.exp(t**-0.6 * ((1.0 if accepted else 0.0) - target_accept)),
                   low), high)


def run_chain(kernel: KernelConfig, params: Optional[ProjectionParams],
              target: TargetModel, init, iterations, burnin=0, thinning=1,
              seed=0) -> ChainOutput:
    """Drive a kernel for ``iterations`` steps and collect thinned samples.

    ``iterations``, ``burnin``, ``thinning`` and ``seed`` are integers
    (not bools), with ``iterations > burnin >= 0``, ``thinning >= 1``
    and ``seed >= 0``, else ValueError.  The first ``burnin``
    iterations are discarded; while adapting
    (``kernel.adapt_burnin`` or, by default, the whole burn-in) the
    step size follows the Robbins-Monro recursion, clamped to
    [1e-10, 1e10], and is frozen afterwards.  Samples are recorded in
    target space.  Deterministic given ``seed``: the chain reads the four
    streams of ``SeedSequence(seed).spawn(4)`` (see the module docstring).  The
    reported acceptance rate covers the post burn-in iterations (all
    iterations when ``burnin = 0``).  An scs chain makes every
    ``kernel.independence_every``-th step an independence move with
    ``independence_tries`` uniform bright-cap tries, set by its pilot
    before the first step, and the move's own post burn-in rate is
    ``independence_acceptance``; the step-size recursion reads only the
    SCS steps between them.  A start with a NaN or infinite coordinate,
    or at log density NaN or +inf, from which no proposal is accepted,
    or an hmc start whose gradient is NaN or infinite, from which every
    trajectory ends at NaN, raises ``NonfiniteInput``; one at log
    density -inf moves at its first finite proposal.  A projection of
    another dimension raises ValueError.

    A sphere-kernel start far from ``mu`` can lift onto the observer
    latitude or an ulp above it, at every ``ell_o``, where 1 - M rounds
    to 1 (see ``scp_inverse``).  Such a start raises ``DarkSidePoint``
    from ``cap_forward`` before the first step.  At d = 10 and
    ``ell_o = 1.1``, centered with R = 1, a start with every coordinate
    1e20 lifts exactly onto the latitude and one at 1e30 an ulp above
    it.  At the stereographic latitude (sps, ``ell_o = 2``) the latitude
    is the north pole: at d = 10 with R = sqrt(d)/2, a start at
    |y| = 1e12 rounds onto it, while 1e8 still runs.
    """
    return _drive(kernel, params, target, init, iterations, burnin,
                  thinning, seed)


def _pullback(rows, params, target):
    """F(x) and log pi(F(x)) + log J(x) at bright rows x, the one sphere density.

    One row of shape (d+1,) gives its image and a float, n rows of shape
    (n, d+1) one ``cap_forward`` and one density call.  A batch is kept
    2-d, since a skew t's rows depend on the shape of its batch.
    """
    if rows.ndim == 1:
        y, logjac, _, _ = cap_forward(rows, params)
        return y, logjac + float(target.log_density(y))
    y, lp, _, _ = cap_forward(rows, params)
    lp += target.log_density(y)
    return y, lp


def _weights(lp):
    """exp(lp - m) along the last axis, m its largest finite lp, and m.

    A non-finite lp gets weight 0; a row with none finite gets m = 0 and
    no weight at all.
    """
    lp = np.where(np.isfinite(lp), lp, -math.inf)
    top = lp.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    return np.exp(lp - top), top[..., 0]


def _pilot(pickers, params, target):
    """Each chain's tries per move and its pilot's relative ESS.

    Chain i draws ``PILOT_POINTS`` uniform cap points from its pick
    stream ``pickers[i]`` (``sample_uniform_cap``); one ``_pullback``
    weighs them all.  Kish's relative ESS of chain i's weights w is rho =
    (sum w)^2 / (n sum w^2), 0 when no weight is positive, and its tries
    are clip(floor(1 / rho), 1, ``MAX_TRIES``).
    """
    rows = [sample_uniform_cap(params.d, params.ell_o, rng, size=PILOT_POINTS)
            for rng in pickers]
    lp = _pullback(np.concatenate(rows), params, target)[1]
    w = _weights(lp.reshape(len(pickers), PILOT_POINTS))[0]
    total, square = w.sum(axis=-1), np.vecdot(w, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(square > 0.0, total * total / (PILOT_POINTS * square), 0.0)
        tries = np.floor(np.minimum(1.0 / rho, MAX_TRIES))
    return np.maximum(tries, 1).astype(int), rho


def _pick(lp, tries, picks):
    """Each move's picked try, as an index into ``lp``, with log W and log(W - w').

    ``lp`` holds a block's tries chain after chain, K_i = ``tries[i]`` a
    move for its ``picks.shape[1]`` moves, and ``picks`` one uniform per
    move.  Try i of a move has weight w_i = exp(lp_i - m), 0 at a
    non-finite lp_i, and try j is picked when it is the first whose
    running sum of weights exceeds u W.  With one try a chain, the pick
    is forced and log W = lp'.
    """
    n, size = picks.shape
    k_max = int(tries.max())
    if k_max == 1:
        return (np.arange(n * size).reshape(n, size), lp.reshape(n, size),
                np.full((n, size), -math.inf))
    # chain i's tries at the front of its own k_max columns, padded with NaN
    starts = np.concatenate(([0], np.cumsum(size * tries)[:-1]))
    column = np.arange(k_max)
    flat = (starts[:, None, None] + np.arange(size)[:, None] * tries[:, None, None]
            + np.minimum(column, tries[:, None, None] - 1))
    w, top = _weights(np.where(column < tries[:, None, None], lp[flat], np.nan))
    running = np.cumsum(w, axis=-1)
    total = running[..., -1]
    # the first try past u W; rounding can put u W at W itself, so no
    # pick goes past the last try of positive weight
    last = k_max - 1 - np.argmax(w[..., ::-1] > 0.0, axis=-1)
    j = np.minimum((running <= (picks * total)[..., None]).sum(axis=-1),
                   np.minimum(last, tries[:, None] - 1))
    # summed in order, as the running sum is: numpy sums 8 or more columns
    # pairwise, which gives a chain beside one of 8 tries other bits
    others = np.cumsum(np.where(column == j[..., None], 0.0, w), axis=-1)[..., -1]
    with np.errstate(divide="ignore"):
        log_total = top + np.log(total)
        log_others = top + np.log(others)
    return np.take_along_axis(flat, j[..., None], axis=-1)[..., 0], log_total, log_others


def _draws(seed, width, iterations, every=0, params=None, target=None):
    """Each chain's tries K, its pilot's relative ESS, and its steps' draws.

    An int ``seed`` is one chain, a list of n seeds n chains, each
    reading the four streams of its seed (see the module docstring),
    made here, so a seed that is not an integer >= 0 (a bool included)
    raises ValueError at once.  Returns (tries, rho, steps): tries and
    rho, of shape (n,), read 0 and NaN until the pilot (``_pilot``)
    fills them as the first step is drawn, and ``steps``
    yields (z, u, move) for each of ``iterations`` steps, z with
    ``width`` normals and u one uniform a chain.  ``move`` is None but at
    every ``every``-th step, where it is the picked try (x', y', lp',
    log W, log(W - w')): the try, its image and log density plus
    log-Jacobian, and the logs of the tries' total weight and of the
    weight of those not picked.  One chain gets z of shape (width,) and
    floats for the scalars, n chains arrays with a leading axis n.  With
    ``every`` 0, or above ``iterations``, no step is a move and no pilot
    is drawn.  A block's tries are drawn and evaluated at its first move,
    the bright rows drawn past one block carried into the next.  A move
    whose tries all have weight 0 gets log W = -inf or, with one try, its
    non-finite lp'; ``metropolis`` rejects either.
    """
    ensemble = isinstance(seed, list)
    seeds = seed if ensemble else [seed]
    for s in seeds:
        _require_integer("seed", s, 0)
    streams = [[np.random.default_rng(c) for c in np.random.SeedSequence(s).spawn(4)]
               for s in seeds]
    n = len(streams)
    tries, rho = np.zeros(n, dtype=int), np.full(n, math.nan)
    every = every if every <= iterations else 0

    def per_step(*parts):
        # parts shaped (n, steps, ...) as one item a step
        if ensemble:
            return [part.swapaxes(0, 1) for part in parts]
        return [part[0] if part.ndim > 2 else part[0].tolist() for part in parts]

    def steps():
        if every:
            tries[:], rho[:] = _pilot([picker for *_, picker in streams], params, target)
        spare = [np.empty((0, width))] * n
        block = max(every, 1) * _DRAW_BLOCK
        for start in range(0, iterations, block):
            size = min(block, iterations - start)
            z, u = np.empty((n, size, width)), np.empty((n, size))
            for (normals, uniforms, _, _), z_i, u_i in zip(streams, z, u):
                normals.standard_normal(out=z_i)
                uniforms.random(out=u_i)
            z, u = per_step(z, u)
            moves = size // every if every else 0
            if not moves:
                yield from zip(z, u, repeat(None))
                continue
            yield from zip(z[:every - 1], u[:every - 1], repeat(None))
            rows, picks = [], np.empty((n, moves))
            for i, ((_, _, proposals, picker), k) in enumerate(zip(streams, tries)):
                block_rows, spare[i], _ = _bright_rows(proposals, spare[i], moves * k,
                                                       params.ell_o - 1.0)
                rows.append(block_rows)
                picker.random(out=picks[i])
            x = np.concatenate(rows)
            y, lp = _pullback(x, params, target)
            pick, log_total, log_others = _pick(lp, tries, picks)
            x, y, lp = x[pick], y[pick], lp[pick]
            column = [None] * (size - every + 1)
            column[::every] = zip(*per_step(x, y, lp, log_total, log_others))
            yield from zip(z[every - 1:], u[every - 1:], column)
    return tries, rho, steps()


def _drive(kernel, params, target, init, iterations, burnin, thinning, seed):
    """The chain loop behind ``run_chain`` and ``run_chains``.

    An int ``seed`` runs one chain from ``init`` of shape (d,) and
    returns its ``ChainOutput``.  A list of n seeds runs an ensemble
    (scs, sps or hmc) from ``init`` of shape (n, d), checked by
    ``run_chains``, one chain per seed, each with its own step size,
    and returns a list.  ``_draws`` is the only source of randomness:
    each step hands the kernel its (z, u), whatever the kernel makes of
    them, and an scs independence step tests the picked try that comes
    with them.  Its generators are made before the loop, so a bad seed
    raises ValueError; the pilot runs with the first step's draws, so an
    abort in its density call is a ``ChainAborted``.
    """
    for name, value, least in (("iterations", iterations, 1), ("burnin", burnin, 0),
                               ("thinning", thinning, 1)):
        _require_integer(name, value, least)
    if iterations <= burnin:
        raise ValueError("iterations must exceed burnin")
    on_sphere = kernel.kind in ("scs", "sps")
    if on_sphere and params is None:
        raise ValueError(f"{kernel.kind} requires projection parameters")
    if kernel.kind == "sps" and params.ell_o != 2.0:
        raise ValueError("the stereographic kernel requires ell_o = 2")
    if on_sphere and params.d != target.dim:
        raise ValueError(f"projection dimension {params.d} differs from "
                         f"target dimension {target.dim}")
    if kernel.kind == "hmc" and not target.has_gradient:
        raise ValueError("HMC requires a target gradient")

    ensemble = isinstance(seed, list)
    seeds = seed if ensemble else [seed]
    init = np.array(init, dtype=float, ndmin=1)
    if not ensemble and init.shape != (target.dim,):
        raise ValueError(f"init must have shape ({target.dim},)")
    if not np.all(np.isfinite(init)):
        raise NonfiniteInput("init must be finite")
    h = np.full(len(seeds), kernel.h) if ensemble else kernel.h
    every = kernel.independence_every if kernel.kind == "scs" else 0
    adapt_until = kernel.adapt_burnin if kernel.adapt_burnin is not None else burnin
    adapt_until = min(adapt_until, burnin)
    n_keep = (iterations - burnin) // thinning
    trace = []
    accepted_post = np.zeros(len(seeds), dtype=int) if ensemble else 0
    moves_accepted = np.zeros(len(seeds), dtype=int) if ensemble else 0
    post_steps = 0
    adapted = 0
    kept = 0
    start = time.perf_counter()

    if on_sphere:
        x = scp_inverse(init, params)
        y, logpost = _pullback(x, params, target)
    else:
        y = init
        logpost = target.log_density(y) if ensemble else float(target.log_density(y))
    if not np.all(logpost < math.inf):
        raise NonfiniteInput("the start's log density is NaN or +inf")
    if kernel.kind == "hmc":
        grad = target.grad_log_density(y)
        if not np.all(np.isfinite(grad)):
            raise NonfiniteInput("the start's log-density gradient is NaN or infinite")
    # chain-major storage: each chain's samples are one contiguous block
    store = np.empty((len(seeds), n_keep, target.dim))
    samples = store.transpose(1, 0, 2) if ensemble else store[0]

    def outputs(valid):
        wall = time.perf_counter() - start
        rate = np.atleast_1d(accepted_post / max(post_steps, 1))
        moves = (burnin + post_steps) // every - burnin // every if every else 0
        move_rate = (np.atleast_1d(moves_accepted / moves) if moves
                     else np.full(len(seeds), math.nan))
        steps = np.asarray(trace).reshape(len(trace), -1)
        chains = [ChainOutput(samples=store[i, :kept],
                              acceptance_rate=float(rate[i]),
                              step_size_trace=steps[:, i], seed=int(s),
                              wall_time=wall, valid=valid,
                              independence_acceptance=float(move_rate[i]),
                              independence_tries=int(tries[i]),
                              pilot_relative_ess=float(pilot_ess[i]))
                  for i, s in enumerate(seeds)]
        return chains if ensemble else chains[0]

    tries, pilot_ess, draws = _draws(seed, target.dim + 1 if on_sphere else target.dim,
                                     iterations, every, params, target)
    try:
        for t in range(1, iterations + 1):
            z, u, move = next(draws)
            if move:
                # multiple-try acceptance: log u < log W - log(W - w' + w)
                x_new, y_new, lp_new, total, others = move
                if ensemble:
                    x, y, logpost, _, acc = metropolis(u, np.logaddexp(others, logpost),
                                                       total, (x, y, logpost),
                                                       (x_new, y_new, lp_new))
                else:
                    acc = metropolis(u, logpost if others == -math.inf
                                     else np.logaddexp(others, logpost), total)
                    if acc:
                        x, y, logpost = x_new, y_new, lp_new
            elif on_sphere:
                x, y, logpost, acc = sphere_step(x, y, logpost, h, params, target, z, u)
            elif kernel.kind == "rwm":
                y_prime = y + h * z
                lp_prime = float(target.log_density(y_prime))
                acc = metropolis(u, logpost, lp_prime)
                if acc:
                    y, logpost = y_prime, lp_prime
            else:
                y, logpost, grad, acc = hmc_step(y, logpost, grad, h,
                                                 kernel.leapfrog_steps, target, z, u)
            if t <= adapt_until:
                if not move:
                    adapted += 1
                    h = adapt_step_size(h, acc, adapted, kernel.target_accept)
                trace.append(h)
            if t > burnin:
                post_steps += 1
                accepted_post += acc
                if move:
                    moves_accepted += acc
                if (t - burnin) % thinning == 0:
                    samples[kept] = y
                    kept += 1
    except Exception as exc:  # pragma: no cover - exercised via targets
        trace.append(h)
        raise ChainAborted(f"chain aborted at iteration {t}: {exc}",
                           partial=outputs(False)) from exc

    trace.append(h)
    return outputs(True)


def derive_chain_seed(base_seed, chain_index) -> int:
    """Deterministic per-chain seed from (base seed, chain index), both
    integers >= 0 (not bools), else ValueError."""
    _require_integer("seed", base_seed, 0)
    _require_integer("chain_index", chain_index, 0)
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=(int(chain_index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_chains(kernel: KernelConfig, params, target, init, iterations,
               burnin=0, thinning=1, seed=0, n_chains=1, workers=None):
    """Run replicate chains, chain i seeded with ``derive_chain_seed(seed, i)``.

    ``n_chains`` is an integer >= 1 and ``seed`` one >= 0, neither a
    bool, else ValueError.  ``init`` is one start of shape
    (d,) shared by every chain, or one row per chain, shape
    (n_chains, d).  Chain i reads the four streams of its seed through
    ``_draws``, as ``run_chain`` does, so it depends only on ``(seed, i)``
    and its start; an scs chain takes the same number of tries, and
    tries and picks the same independence points, alone as in an
    ensemble, whose chains may take different numbers of tries.  Hmc
    chains, and scs and sps chains from ``SPHERE_ENSEMBLE_MIN_CHAINS``
    up, step together as one ensemble, whose one ``_draws`` generator
    yields every chain's draws a step at a time; it makes one batched
    density call per transition, one for all the pilots and one per
    block of independence tries, and its samples match ``run_chain``'s
    to round-off.  Other chains run one after
    another through ``run_chain``.  ``workers`` is accepted, since the
    benchmark passes it, and ignored.  Results come in chain order; the
    chains of an ensemble each report its wall time, and an aborted
    ensemble raises ``ChainAborted`` carrying the list of partial
    outputs.  A far sphere-kernel start whose lift rounds onto the
    observer latitude or above it, which can happen at every ``ell_o``,
    raises ``DarkSidePoint`` before the first step, and a non-finite
    start, start density or hmc start gradient ``NonfiniteInput``, as
    in ``run_chain``.
    """
    _require_integer("n_chains", n_chains, 1)
    seeds = [derive_chain_seed(seed, i) for i in range(n_chains)]
    inits = np.array(init, dtype=float, ndmin=1)
    if inits.ndim == 1:
        inits = np.tile(inits, (n_chains, 1))
    if inits.shape != (n_chains, target.dim):
        raise ValueError(f"init must have shape ({target.dim},) or "
                         f"({n_chains}, {target.dim})")
    if kernel.kind in ("scs", "sps"):
        ensemble = n_chains >= SPHERE_ENSEMBLE_MIN_CHAINS
    else:
        ensemble = kernel.kind == "hmc" and n_chains > 1
    if ensemble:
        return _drive(kernel, params, target, inits, iterations, burnin,
                      thinning, seeds)
    return [run_chain(kernel, params, target, start, iterations, burnin=burnin,
                      thinning=thinning, seed=s) for start, s in zip(inits, seeds)]
