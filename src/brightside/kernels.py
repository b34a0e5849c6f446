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
transitions are written once, in the loop of ``run_chain`` (HMC's in
``hmc_step``), so ``run_chain`` and ``run_chains`` are the way to step
a chain.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
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


def leapfrog(y, momentum, eps, steps, grad):
    """Leapfrog integration of (y, momentum) under potential -log pi."""
    y = y.copy()
    momentum = momentum.copy()
    g = grad(y)
    for _ in range(steps):
        momentum += 0.5 * eps * g
        y += eps * momentum
        g = grad(y)
        momentum += 0.5 * eps * g
    return y, momentum


def hmc_step(y, eps, L, target: TargetModel, rng):
    """One Hamiltonian Monte Carlo transition with identity mass matrix."""
    momentum = rng.standard_normal(y.shape[0])
    logp0 = float(target.log_density(y))
    h0 = -logp0 + 0.5 * float(momentum @ momentum)
    y_new, momentum_new = leapfrog(y, momentum, eps, L, target.grad_log_density)
    if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(momentum_new))):
        return y, False
    h1 = -float(target.log_density(y_new)) + 0.5 * float(momentum_new @ momentum_new)
    if not math.isfinite(h1):
        return y, False
    if math.log(rng.uniform()) < h0 - h1:
        return y_new, True
    return y, False


def adapt_step_size(h, accepted, t, target_accept) -> float:
    """Robbins-Monro step-size update, log h += t^-0.6 (acc - target)."""
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

    rng = np.random.default_rng(seed)
    adapt_until = kernel.adapt_burnin if kernel.adapt_burnin is not None else burnin
    adapt_until = min(adapt_until, burnin)
    h = kernel.h
    n_keep = (iterations - burnin) // thinning
    samples = np.empty((n_keep, target.dim))
    trace = []
    accepted_post = 0
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
    else:
        y = init.copy()
        logpost = float(target.log_density(y))

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
                y, acc = hmc_step(y, h, kernel.leapfrog_steps, target, rng)
            if t <= adapt_until:
                h = adapt_step_size(h, acc, t, kernel.target_accept)
                h = min(max(h, _STEP_SIZE_CLAMP[0]), _STEP_SIZE_CLAMP[1])
                trace.append(h)
            if t > burnin:
                post_steps += 1
                accepted_post += acc
                if (t - burnin) % thinning == 0:
                    samples[kept] = y
                    kept += 1
    except Exception as exc:  # pragma: no cover - exercised via targets
        partial = ChainOutput(
            samples=samples[:kept],
            acceptance_rate=accepted_post / max(post_steps, 1),
            step_size_trace=np.asarray(trace + [h]),
            seed=int(seed),
            wall_time=time.perf_counter() - start,
            valid=False,
        )
        raise ChainAborted(f"chain aborted at iteration {t}: {exc}",
                           partial=partial) from exc

    trace.append(h)
    return ChainOutput(
        samples=samples,
        acceptance_rate=accepted_post / max(post_steps, 1),
        step_size_trace=np.asarray(trace),
        seed=int(seed),
        wall_time=time.perf_counter() - start,
    )


def derive_chain_seed(base_seed, chain_index) -> int:
    """Deterministic per-chain seed from (base seed, chain index)."""
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=(int(chain_index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def max_workers(default=None) -> int:
    """Worker cap from BRIGHTSIDE_THREADS, else the given or CPU default."""
    env = os.environ.get("BRIGHTSIDE_THREADS")
    if env:
        return max(1, int(env))
    if default is not None:
        return max(1, int(default))
    return max(1, os.cpu_count() or 1)


def run_chains(kernel: KernelConfig, params, target, init, iterations,
               burnin=0, thinning=1, seed=0, n_chains=1, workers=None):
    """Run replicate chains with per-chain derived seeds, in worker threads.

    Results are returned in chain order and are independent of thread
    scheduling because every chain owns its own generator.
    """
    seeds = [derive_chain_seed(seed, i) for i in range(n_chains)]

    def _one(chain_seed):
        return run_chain(kernel, params, target, init, iterations,
                         burnin=burnin, thinning=thinning, seed=chain_seed)

    if n_chains == 1:
        return [_one(seeds[0])]
    with ThreadPoolExecutor(max_workers=max_workers(workers)) as pool:
        return list(pool.map(_one, seeds))
