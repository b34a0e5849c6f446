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
transition is written once: ``sphere_step`` (scs, sps), ``hmc_step``
and the rwm step in the chain loop behind ``run_chain`` and
``run_chains``, which are the way to step a chain.

``sphere_step`` and ``hmc_step``, and the geometry under them
(``propose_tangent``, ``leapfrog``), work over a leading chain axis: a
state of shape (d,) (d+1 on the sphere) is one chain, a state of shape
(n, d) is n chains with their own generators and step sizes, stepped
with one batched density call per transition.  An HMC transition with
L leapfrog steps makes L - 1 gradient calls and, at the proposal, one
fused ``log_density_and_grad`` call, which serves both the acceptance
test and the next trajectory's first kick.  Stepping-out is written
for one pair only (``great_circle_frame``, ``stepping_out``): an
ensemble steps its dark rows out one at a time through it, as one
chain does.  ``run_chains`` runs hmc replicas as an ensemble, and scs
and sps replicas from ``SPHERE_ENSEMBLE_MIN_CHAINS`` chains up; fewer
sphere chains, and rwm replicas, run one after another.  Its
``workers`` argument is still accepted, for callers such as the
benchmark, and ignored.  Replica i depends only on ``(seed, i)`` and
its start, and matches ``run_chain`` with its derived seed to
round-off.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ChainAborted, DarkSidePoint, DegenerateProposal
from .geometry import ProjectionParams, cap_forward, scp_inverse, validate_params
from .targets import TargetModel

KERNEL_KINDS = ("scs", "sps", "rwm", "hmc")

# preferred average acceptance rates: 0.234 for the random-walk type
# kernels, 0.8 for HMC
WALK_TARGET_ACCEPT = 0.234
HMC_TARGET_ACCEPT = 0.8

# The batched sphere transition has a fixed cost per step (its largest
# part the batched cap_forward) that the shared density call pays back
# only from about four chains: timed on Cauchy and skew-t targets at
# d = 10, 2 and 3 scs chains ran slower as an ensemble than one after
# another, 4 broke even and 10 ran faster.
SPHERE_ENSEMBLE_MIN_CHAINS = 4


@dataclass(frozen=True)
class KernelConfig:
    """Kernel selection plus step-size and adaptation settings.

    ``adapt_burnin`` counts the initial iterations during which the
    step size follows the Robbins-Monro recursion; ``None`` adapts for
    the whole burn-in of the run, ``0`` keeps the step size fixed.
    """

    kind: str
    h: float = 0.5
    leapfrog_steps: int = 10
    target_accept: float = WALK_TARGET_ACCEPT
    adapt_burnin: Optional[int] = None

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}")
        object.__setattr__(self, "kind", kind)
        if self.h <= 0:
            raise ValueError(f"step size must be positive, got {self.h}")
        if kind == "hmc" and self.leapfrog_steps < 1:
            raise ValueError("HMC needs at least one leapfrog step")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target acceptance must lie in (0, 1)")


@dataclass
class ChainOutput:
    """Kept samples plus run diagnostics."""

    samples: np.ndarray
    acceptance_rate: float
    step_size_trace: np.ndarray
    seed: int
    wall_time: float
    valid: bool = True


class GreatCircleFrame(NamedTuple):
    """In-plane direction and angles of the proposal great circle.

    ``u`` is the unit tangent at ``x`` toward ``x_prime``; ``alpha`` the
    arc from x to x'; the circle's latitude is A*cos(theta - phi) with
    A = hypot(x_lat, u_lat), and the dark arc is |theta - phi| < gamma.
    ``K`` is the smallest integer with K*alpha > phi + gamma.
    """

    u: np.ndarray
    alpha: float
    phi: float
    gamma: float
    K: int


def propose_tangent(x, h, rng) -> np.ndarray:
    """Gaussian tangent-space step projected back onto the sphere.

    One point ``x`` of shape (d+1,) with a scalar ``h`` and one
    generator, or n points of shape (n, d+1) with ``h`` of shape (n,)
    and n generators, row i drawing its d+1 normals from ``rng[i]``.
    """
    if x.ndim == 1:
        delta = h * rng.standard_normal(x.shape[0])
        delta -= (x @ delta) * x
        w = x + delta
        return w / math.sqrt(w @ w)
    delta = np.empty_like(x)
    for gen, row in zip(rng, delta):
        gen.standard_normal(out=row)
    delta *= h[:, None]
    delta -= np.vecdot(x, delta)[:, None] * x
    w = x + delta
    return w / np.sqrt(np.vecdot(w, w))[:, None]


def great_circle_frame(x, x_prime, ell_o) -> GreatCircleFrame:
    """Frame of the unique great circle through a bright/dark point pair.

    ``x`` and ``x_prime`` are single points of shape (d+1,); the angles
    are plain floats.  Raises DarkSidePoint unless ``x`` is bright and
    ``x_prime`` dark, and DegenerateProposal when the points are
    coincident or antipodal (s^2 = 1 - <x, x'>^2 <= 1e-14) or the
    circle has zero latitude amplitude.
    """
    lat_threshold = ell_o - 1.0
    if not x[-1] < lat_threshold:
        raise DarkSidePoint("current state must be on the bright side")
    if not x_prime[-1] > lat_threshold:
        raise DarkSidePoint("proposal must be on the dark side")
    c = float(x @ x_prime)
    s2 = 1.0 - c * c
    if s2 <= 1e-14:
        raise DegenerateProposal("proposal coincident or antipodal with state")
    u = (x_prime - c * x) / math.sqrt(s2)
    alpha = math.acos(min(1.0, max(-1.0, c)))
    amp = math.hypot(x[-1], u[-1])
    if amp <= 0.0:
        raise DegenerateProposal("proposal circle has zero latitude amplitude")
    phi = math.acos(min(1.0, max(-1.0, x[-1] / amp)))
    gamma = math.acos(min(1.0, max(-1.0, lat_threshold / amp)))
    K = int((phi + gamma) / alpha) + 1
    while K * alpha <= phi + gamma:  # float-rounding guard
        K += 1
    return GreatCircleFrame(u=u, alpha=alpha, phi=phi, gamma=gamma, K=K)


def stepping_out(x, x_prime, ell_o) -> np.ndarray:
    """Walk K arcs of length alpha along the great circle, landing bright.

    K*alpha lies in (phi+gamma, phi+gamma+alpha], past the dark arc but
    short of re-entering it since alpha <= pi <= 2*pi - 2*gamma.  Takes
    one pair and raises what ``great_circle_frame`` raises.
    """
    frame = great_circle_frame(x, x_prime, ell_o)
    assert frame.K <= math.ceil(2.0 * math.pi / frame.alpha) + 1
    angle = frame.K * frame.alpha
    out = math.cos(angle) * x + math.sin(angle) * frame.u
    return out / np.linalg.norm(out)


def sphere_step(x, y, logpost, h, params: ProjectionParams, target: TargetModel,
                rng):
    """One SCS transition on the bright side of the sphere (SPS at ell_o = 2).

    ``x`` is the sphere state, ``y`` its image in target space and
    ``logpost`` the log density plus log-Jacobian there.  Steps one
    chain, ``x`` of shape (d+1,) with a scalar ``h`` and one generator,
    or n chains, ``x`` of shape (n, d+1) with ``h`` of shape (n,) and n
    generators.  A proposal on the dark cap steps out along its great
    circle, one chain at a time through ``stepping_out``; then one
    ``cap_forward`` and one density call serve all the chains.  Each
    chain draws d+1 normals, then a uniform, except where its proposal
    is rejected as degenerate (coincident, antipodal or of zero
    latitude amplitude) or as an exact tie with the dark cap: these are
    probability-zero, and rejecting them keeps the target invariant.  A
    non-finite density is rejected after its uniform.  Returns (x, y,
    logpost, accepted).
    """
    ell_o = params.ell_o
    lat_threshold = ell_o - 1.0
    x_star = propose_tangent(x, h, rng)
    if x.ndim == 1:
        try:
            if ell_o < 2.0 and x_star[-1] > lat_threshold:
                x_star = stepping_out(x, x_star, ell_o)
            y_star, logjac, _, _ = cap_forward(x_star, params)
        except (DegenerateProposal, DarkSidePoint):
            return x, y, logpost, False
        lp_star = logjac + float(target.log_density(y_star))
        if math.log(rng.random()) < lp_star - logpost:
            return x_star, y_star, lp_star, True
        return x, y, logpost, False
    if ell_o < 2.0:
        for i in np.flatnonzero(x_star[:, -1] > lat_threshold):
            try:
                x_star[i] = stepping_out(x[i], x_star[i], ell_o)
            except DegenerateProposal:
                pass  # the proposal stays dark and fails the test below
    # degenerate rows and exact ties fail this test; such a row
    # re-evaluates its own state and is rejected without a uniform
    live = x_star[:, -1] < lat_threshold
    if not live.all():
        x_star[~live] = x[~live]
    y_star, lp_star, _, _ = cap_forward(x_star, params)
    lp_star += target.log_density(y_star)
    # Python floats, as in the one-chain branch: -inf - -inf is a quiet NaN
    accepted = np.array([ok and math.log(gen.random()) < new - old
                         for ok, gen, new, old in zip(live.tolist(), rng,
                                                      lp_star.tolist(),
                                                      logpost.tolist())])
    keep = accepted[:, None]
    return (np.where(keep, x_star, x), np.where(keep, y_star, y),
            np.where(accepted, lp_star, logpost), accepted)


def leapfrog(y, momentum, eps, steps, target: TargetModel, g):
    """Leapfrog integration of (y, momentum) under potential -log pi.

    ``y`` is one state of shape (d,) or chains along a leading axis,
    with ``eps`` a scalar or one step size per chain broadcast as
    (n, 1); ``g`` is the gradient at ``y``.  Adjacent half-kicks are
    fused into one full kick, so the trajectory takes steps - 1
    ``grad_log_density`` calls and, at its end point, one
    ``log_density_and_grad`` call, with steps + 1 kicks.  Returns the
    end point, its momentum, its log density and its gradient; the
    inputs are not modified.
    """
    half = 0.5 * eps
    momentum = momentum + half * g
    y = y + eps * momentum
    for _ in range(steps - 1):
        g = target.grad_log_density(y)
        momentum += eps * g
        y += eps * momentum
    logp, g = target.log_density_and_grad(y)
    momentum += half * g
    return y, momentum, logp, g


def hmc_step(y, logp, g, eps, steps, target: TargetModel, rng):
    """One Hamiltonian Monte Carlo transition with identity mass matrix.

    Steps one chain, ``y`` of shape (d,) with a scalar ``eps`` and one
    generator ``rng``, or n chains at once, ``y`` of shape (n, d) with
    ``eps`` of shape (n,) and a sequence of n generators.  ``logp`` and
    ``g`` are the log density and gradient at ``y``; they are returned
    with the new state, so a chain evaluates them once per transition,
    at the proposal: steps - 1 gradient calls inside the trajectory and
    one ``log_density_and_grad`` call at its end.  Each chain draws a
    momentum from its own generator, then a uniform only where its
    trajectory and energy are finite; a non-finite row is rejected on
    its own.  Returns (y, logp, g, accepted).
    """
    ensemble = y.ndim == 2
    if ensemble:
        momentum = np.empty_like(y)
        for gen, row in zip(rng, momentum):
            gen.standard_normal(out=row)
        y1, m1, logp1, g1 = leapfrog(y, momentum, eps[:, None], steps,
                                     target, g)
    else:
        momentum = rng.standard_normal(y.shape[0])
        y1, m1, logp1, g1 = leapfrog(y, momentum, eps, steps, target, g)
    energy0 = 0.5 * np.vecdot(momentum, momentum) - logp
    ok = np.isfinite(y1).all(axis=-1) & np.isfinite(m1).all(axis=-1)
    if not ensemble:
        # no np.where here: logp stays the scalar the target returned,
        # as a 0-d array would slow every later step of the chain
        if not ok:
            return y, logp, g, False
        energy1 = 0.5 * np.vecdot(m1, m1) - logp1
        if (math.isfinite(energy1)
                and math.log(rng.random()) < energy0 - energy1):
            return y1, logp1, g1, True
        return y, logp, g, False
    if not ok.all():
        # the target's value at a non-finite row may be inf or NaN; -inf
        # gives that row an energy without an invalid-value warning
        logp1 = np.where(ok, logp1, -np.inf)
    energy1 = 0.5 * np.vecdot(m1, m1) - logp1
    ok &= np.isfinite(energy1)
    accept = np.zeros(ok.shape, dtype=bool)
    for i in np.flatnonzero(ok):
        accept[i] = math.log(rng[i].random()) < energy0[i] - energy1[i]
    keep = accept[:, None]
    return (np.where(keep, y1, y), np.where(accept, logp1, logp),
            np.where(keep, g1, g), accept)


def adapt_step_size(h, accepted, t, target_accept):
    """Robbins-Monro step-size update, log h += t^-0.6 (acc - target).

    ``h`` and ``accepted`` may be per-chain arrays.
    """
    if np.ndim(accepted):
        return h * np.exp(t**-0.6 * (accepted - target_accept))
    return h * math.exp(t**-0.6 * ((1.0 if accepted else 0.0) - target_accept))


# When a target's pullback is so close to uniform that the requested
# acceptance rate is unattainable, the recursion diverges; the runner
# clamps the step size to keep the chain numerically sane.
_STEP_SIZE_CLAMP = (1e-10, 1e10)


def _expected_params(kernel: KernelConfig, params):
    if kernel.kind in ("scs", "sps"):
        if params is None:
            raise ValueError(f"{kernel.kind} requires projection parameters")
        validate_params(params)
        if kernel.kind == "sps":
            if params.ell_o != 2.0 or np.any(params.h_o != 0.0):
                raise ValueError(
                    "the stereographic kernel requires ell_o = 2 and h_o = 0"
                )
        return params
    return None


def run_chain(kernel: KernelConfig, params: Optional[ProjectionParams],
              target: TargetModel, init, iterations, burnin=0, thinning=1,
              seed=0) -> ChainOutput:
    """Drive a kernel for ``iterations`` steps and collect thinned samples.

    The first ``burnin`` iterations are discarded; while adapting
    (``kernel.adapt_burnin`` or, by default, the whole burn-in) the
    step size follows the Robbins-Monro recursion and is frozen
    afterwards.  Samples are recorded in target space.  Deterministic
    given ``seed``; the reported acceptance rate covers the post
    burn-in iterations (all iterations when ``burnin = 0``).
    """
    return _drive(kernel, params, target, init, iterations, burnin,
                  thinning, seed)


def _drive(kernel, params, target, init, iterations, burnin, thinning, seed):
    """The chain loop behind ``run_chain`` and ``run_chains``.

    An int ``seed`` runs one chain from ``init`` of shape (d,) and
    returns its ``ChainOutput``.  A list of n seeds runs an ensemble
    (scs, sps or hmc) from ``init`` of shape (n, d), checked by
    ``run_chains``, one chain per seed, each with its own generator and
    step size, and returns a list.
    """
    iterations = int(iterations)
    burnin = int(burnin)
    thinning = int(thinning)
    if iterations <= burnin:
        raise ValueError("iterations must exceed burnin")
    if burnin < 0 or thinning < 1:
        raise ValueError("burnin must be >= 0 and thinning >= 1")
    params = _expected_params(kernel, params)
    if kernel.kind == "hmc" and not target.has_gradient:
        raise ValueError("HMC requires a target gradient")

    ensemble = isinstance(seed, list)
    init = np.array(init, dtype=float, ndmin=1)
    if not ensemble and init.shape != (target.dim,):
        raise ValueError(f"init must have shape ({target.dim},)")
    if ensemble:
        rng = [np.random.default_rng(s) for s in seed]
        h = np.full(len(seed), kernel.h)
    else:
        rng = np.random.default_rng(seed)
        h = kernel.h
    adapt_until = kernel.adapt_burnin if kernel.adapt_burnin is not None else burnin
    adapt_until = min(adapt_until, burnin)
    n_keep = (iterations - burnin) // thinning
    trace = []
    accepted_post = np.zeros(len(seed), dtype=int) if ensemble else 0
    post_steps = 0
    kept = 0
    start = time.perf_counter()

    on_sphere = kernel.kind in ("scs", "sps")
    if on_sphere:
        x = scp_inverse(init, params)
        y, logpost, _, _ = cap_forward(x, params)
        logpost += target.log_density(y) if ensemble else float(target.log_density(y))
    else:
        y = init
        logpost = target.log_density(y) if ensemble else float(target.log_density(y))
    if kernel.kind == "hmc":
        grad = target.grad_log_density(y)
    if ensemble:
        # chain-major storage: each chain's samples are one contiguous block
        store = np.empty((len(seed), n_keep, target.dim))
        samples = store.transpose(1, 0, 2)
    else:
        samples = np.empty((n_keep, target.dim))

    def outputs(valid):
        wall = time.perf_counter() - start
        rate = accepted_post / max(post_steps, 1)
        steps = np.asarray(trace)
        if not ensemble:
            return ChainOutput(samples=samples[:kept], acceptance_rate=rate,
                               step_size_trace=steps, seed=int(seed),
                               wall_time=wall, valid=valid)
        return [ChainOutput(samples=store[i, :kept],
                            acceptance_rate=float(rate[i]),
                            step_size_trace=steps[:, i], seed=int(s),
                            wall_time=wall, valid=valid)
                for i, s in enumerate(seed)]

    try:
        for t in range(1, iterations + 1):
            if on_sphere:
                x, y, logpost, acc = sphere_step(x, y, logpost, h, params, target, rng)
            elif kernel.kind == "rwm":
                y_prime = y + h * rng.standard_normal(target.dim)
                lp_prime = float(target.log_density(y_prime))
                if math.log(rng.random()) < lp_prime - logpost:
                    y, logpost, acc = y_prime, lp_prime, True
                else:
                    acc = False
            else:
                y, logpost, grad, acc = hmc_step(y, logpost, grad, h,
                                                 kernel.leapfrog_steps, target, rng)
            if t <= adapt_until:
                h = adapt_step_size(h, acc, t, kernel.target_accept)
                if ensemble:
                    h = np.clip(h, *_STEP_SIZE_CLAMP)
                else:
                    h = min(max(h, _STEP_SIZE_CLAMP[0]), _STEP_SIZE_CLAMP[1])
                trace.append(h)
            if t > burnin:
                post_steps += 1
                accepted_post += acc
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
    """Deterministic per-chain seed from (base seed, chain index)."""
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=(int(chain_index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_chains(kernel: KernelConfig, params, target, init, iterations,
               burnin=0, thinning=1, seed=0, n_chains=1, workers=None):
    """Run replicate chains, chain i seeded with ``derive_chain_seed(seed, i)``.

    ``init`` is one start of shape (d,) shared by every chain, or one
    row per chain, shape (n_chains, d).  Chain i depends only on
    ``(seed, i)`` and its start: it owns its generator and draws what
    ``run_chain`` draws with that seed.  Hmc chains, and scs and sps
    chains from ``SPHERE_ENSEMBLE_MIN_CHAINS`` up, step together as one
    ensemble, each with its own step size, with one batched density
    call per transition for all of them (for hmc, the fused
    ``log_density_and_grad`` at the proposal, after one batched
    gradient call per leapfrog step but the last); their samples match
    ``run_chain``'s to round-off.  Fewer scs or sps chains, and rwm
    chains, run one after another through ``run_chain``.  ``workers``
    is accepted, since the benchmark passes it, and ignored.  Results
    come in chain order.  The chains of an ensemble each report the
    ensemble's wall time, and an aborted ensemble raises
    ``ChainAborted`` carrying the list of partial outputs.
    """
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
