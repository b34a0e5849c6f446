"""Heavy-tailed MCMC via sub-Cauchy projection.

The package maps Euclidean space onto the bright side of a sphere
through a tunable projection, runs random-walk Metropolis there, and
maps samples back.  Targets with tails no heavier than a multivariate
Cauchy make the resulting chain uniformly ergodic, which is what the
baseline samplers shipped alongside (stereographic, random-walk
Metropolis, Hamiltonian Monte Carlo) generally lack on such targets.
"""

from .errors import (
    BoundaryWithoutSymmetry,
    BrightsideError,
    ChainAborted,
    DarkSidePoint,
    DegenerateProposal,
    DomainError,
    EmptyInput,
    NonfiniteGradient,
    NonfiniteInput,
    NonpositiveScale,
    ObserverOutsideBall,
)
from .geometry import (
    ProjectionParams,
    cap_forward,
    cap_ratio_exact,
    log_jacobian_at_cap_point,
    make_params,
    regularized_incomplete_beta,
    sample_uniform_cap,
    scp_forward,
    scp_inverse,
    solve_chord_scale,
)

__version__ = "0.1.0"
