"""Markov transition kernels and the chain runner.

The headline kernel runs random-walk Metropolis on the bright side of
the sphere: a Gaussian tangent-space proposal is projected back onto
the sphere, proposals that land on the dark side are relocated along
the proposal great circle by a deterministic stepping-out walk, and
the usual accept/reject uses the target density times the projection
Jacobian from ``geometry.cap_forward``.  The stereographic sampler is
the same kernel at latitude 2 (where the dark side is a single point
and stepping-out never fires); plain random-walk Metropolis and
Hamiltonian Monte Carlo baselines run directly in target space.  The
transitions are written once, in the chain loop behind ``run_chain``
(HMC's in ``hmc_step``), so ``run_chain`` and ``run_chains`` are the
way to step a chain.

``hmc_step`` and ``leapfrog`` work over a leading chain axis: a state
of shape (d,) is one chain, a state of shape (n, d) is n chains with
their own generators and step sizes, stepped with one batched gradient
call per leapfrog step.  ``run_chains`` runs HMC replicas that way; the
scs, sps and rwm replicas run one after another, since a masked batch
of the sphere transition is slower than this loop for one chain.
Replica i depends only on ``(seed, i)``.
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
    """Gaussian tangent-space step projected back onto the sphere."""
    delta = h * rng.standard_normal(x.shape[0])
    delta -= (x @ delta) * x
    w = x + delta
    return w / math.sqrt(w @ w)


def great_circle_frame(x, x_prime, ell_o) -> GreatCircleFrame:
    """Frame of the unique great circle through a bright/dark point pair."""
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
    short of re-entering it since alpha <= pi <= 2*pi - 2*gamma.
    """
    frame = great_circle_frame(x, x_prime, ell_o)
    assert frame.K <= math.ceil(2.0 * math.pi / frame.alpha) + 1
    angle = frame.K * frame.alpha
    out = math.cos(angle) * x + math.sin(angle) * frame.u
    return out / np.linalg.norm(out)


def leapfrog(y, momentum, eps, steps, grad, g):
    """Leapfrog integration of (y, momentum) under potential -log pi.

    ``y`` is one state of shape (d,) or chains along a leading axis,
    with ``eps`` a scalar or one step size per chain broadcast as
    (n, 1); ``g`` is the gradient at ``y``.  Adjacent half-kicks are
    fused into one full kick, so the trajectory takes ``steps``
    gradient calls and steps + 1 kicks.  Returns the end point, its
    momentum and its gradient; the inputs are not modified.
    """
    half = 0.5 * eps
    momentum = momentum + half * g
    y = y + eps * momentum
    for _ in range(steps - 1):
        g = grad(y)
        momentum += eps * g
        y += eps * momentum
    g = grad(y)
    momentum += half * g
    return y, momentum, g


def hmc_step(y, logp, g, eps, steps, target: TargetModel, rng):
    """One Hamiltonian Monte Carlo transition with identity mass matrix.

    Steps one chain, ``y`` of shape (d,) with a scalar ``eps`` and one
    generator ``rng``, or n chains at once, ``y`` of shape (n, d) with
    ``eps`` of shape (n,) and a sequence of n generators.  ``logp`` and
    ``g`` are the log density and gradient at ``y``; they are returned
    with the new state, so a chain evaluates them once per transition,
    at the proposal: one gradient call per leapfrog step and one density
    call over the rows whose trajectory is finite.  Each chain draws a
    momentum from its own generator, then a uniform only where its
    trajectory and energy are finite; a non-finite row is rejected on
    its own.  Returns (y, logp, g, accepted).
    """
    ensemble = y.ndim == 2
    if ensemble:
        momentum = np.empty_like(y)
        for gen, row in zip(rng, momentum):
            gen.standard_normal(out=row)
        y1, m1, g1 = leapfrog(y, momentum, eps[:, None], steps,
                              target.grad_log_density, g)
    else:
        momentum = rng.standard_normal(y.shape[0])
        y1, m1, g1 = leapfrog(y, momentum, eps, steps, target.grad_log_density, g)
    energy0 = 0.5 * np.vecdot(momentum, momentum) - logp
    ok = np.isfinite(y1).all(axis=-1) & np.isfinite(m1).all(axis=-1)
    if ok.all():
        logp1 = target.log_density(y1)
    else:
        logp1 = np.full(ok.shape, -np.inf)
        if ok.any():
            logp1[ok] = target.log_density(y1[ok])
    energy1 = 0.5 * np.vecdot(m1, m1) - logp1
    ok &= np.isfinite(energy1)
    if not ensemble:
        if ok and math.log(rng.uniform()) < energy0 - energy1:
            return y1, logp1, g1, True
        return y, logp, g, False
    accept = np.zeros(ok.shape, dtype=bool)
    for i in np.flatnonzero(ok):
        accept[i] = math.log(rng[i].uniform()) < energy0[i] - energy1[i]
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

    An int ``seed`` runs one chain on a state of shape (d,) and returns
    its ``ChainOutput``.  A list of seeds runs an HMC ensemble, one
    chain per seed on a state of shape (n, d), each with its own
    generator and step size, and returns a list.
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

    init = np.atleast_1d(np.asarray(init, dtype=float))
    if init.shape != (target.dim,):
        raise ValueError(f"init must have shape ({target.dim},)")

    ensemble = isinstance(seed, list)
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
        y, logjac, _, _ = cap_forward(x, params)
        logpost = logjac + float(target.log_density(y))
        ell_o, lat_thr = params.ell_o, params.ell_o - 1.0
        logpdf = target.log_density
        log = math.log
    elif ensemble:
        y = np.tile(init, (len(seed), 1))
        logpost = target.log_density(y)
    else:
        y = init.copy()
        logpost = float(target.log_density(y))
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
                x_star = propose_tangent(x, h, rng)
                acc = False
                try:
                    if ell_o < 2.0 and x_star[-1] > lat_thr:
                        x_star = stepping_out(x, x_star, ell_o)
                    y_star, logjac, _, _ = cap_forward(x_star, params)
                    lp_star = logjac + float(logpdf(y_star))
                    if log(rng.uniform()) < lp_star - logpost:
                        x, y, logpost, acc = x_star, y_star, lp_star, True
                except (DegenerateProposal, DarkSidePoint):
                    # coincident/antipodal proposals and exact boundary
                    # ties are probability-zero; rejecting them
                    # preserves invariance
                    acc = False
            elif kernel.kind == "rwm":
                y_prime = y + h * rng.standard_normal(target.dim)
                lp_prime = float(target.log_density(y_prime))
                if math.log(rng.uniform()) < lp_prime - logpost:
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

    Chain i depends only on ``(seed, i)``: it owns its generator and
    draws what ``run_chain`` draws with that seed.  HMC chains step
    together as one ensemble, with one batched gradient call per
    leapfrog step and one density call per transition for all of them;
    each has its own step size.  Scs, sps and rwm chains run one after
    another.  ``workers`` is accepted and ignored.  Results come in
    chain order.  The chains of an HMC ensemble each report the
    ensemble's wall time, and an aborted ensemble raises
    ``ChainAborted`` carrying the list of partial outputs.
    """
    seeds = [derive_chain_seed(seed, i) for i in range(n_chains)]
    if kernel.kind == "hmc" and n_chains > 1:
        return _drive(kernel, params, target, init, iterations, burnin,
                      thinning, seeds)
    return [run_chain(kernel, params, target, init, iterations, burnin=burnin,
                      thinning=thinning, seed=s) for s in seeds]
