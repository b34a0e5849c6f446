"""Tail-quantile correctness checks against a reference law.

A check compares the pooled chains' empirical CDF at the reference
quantile q_p with p.  Its standard error comes from the ESS of the
indicator series 1{x <= q_p} summed over replicas (the Monte Carlo
error of a probability estimate) plus the reference's own Monte Carlo
error, so the tolerance tightens as a chain mixes better and stays
honest on heavy tails, where quantile errors are unbounded but
probability errors are not.  A chain that never crosses q_p has a
constant indicator with no usable ESS.  Short chains with rare tail
events overstate an indicator's ESS, so the smallest of three
estimates is used: the indicator at q_p (when the chain crosses it),
the indicator at the chain's own quantile (the quantile ESS of Vehtari
et al. 2021) and the rank-normalised bulk ESS.
"""

import math
from dataclasses import dataclass

import numpy as np

from brightside.diagnostics import ess, relative_quantile_errors
from brightside.errors import EmptyInput

# Check the outer pair of the package's default grid.
TAIL_PROBS = (0.01, 0.99)
# Standard errors a check may be off by; 5 keeps false alarms below
# one in a million comparisons.
Z_TOLERANCE = 5.0


@dataclass(frozen=True)
class TailCheck:
    coord: int
    prob: float
    cdf_at_ref: float
    std_err: float
    rel_err: float

    @property
    def passed(self):
        return abs(self.cdf_at_ref - self.prob) <= Z_TOLERANCE * self.std_err


def indicator_ess(chains, level):
    """ESS of 1{x <= level}, summed over chains."""
    total = 0.0
    for c in chains:
        ind = (c <= level).astype(float)
        try:
            total += ess(ind)
        except EmptyInput:
            total += 1.0
    return total


def tail_checks(chains, coord, reference, ref_ess, bulk_ess=math.inf):
    """Checks at ``TAIL_PROBS`` for one coordinate of replicate chains.

    ``reference`` maps each tail probability to the reference quantile;
    ``ref_ess`` is the reference's effective size (``math.inf`` for an
    analytic law); ``bulk_ess`` is the coordinate's rank-normalised ESS
    summed over the replicas.
    """
    series = [np.asarray(c, dtype=float)[:, coord] for c in chains]
    pooled = np.concatenate(series)
    out = []
    for p in TAIL_PROBS:
        q_ref = reference[p]
        q_hat = float(np.quantile(pooled, p))
        cdf = float(np.mean(pooled <= q_ref))
        n_eff = min(indicator_ess(series, q_hat), bulk_ess)
        if 0.0 < cdf < 1.0:
            n_eff = min(n_eff, indicator_ess(series, q_ref))
        var = p * (1.0 - p) * (1.0 / n_eff + 1.0 / ref_ess)
        rel = float(relative_quantile_errors([q_hat], [q_ref])[0])
        out.append(TailCheck(coord=coord, prob=p, cdf_at_ref=cdf,
                             std_err=math.sqrt(var), rel_err=rel))
    return out


def cauchy_reference(probs=TAIL_PROBS):
    """Analytic standard Cauchy quantiles tan(pi (p - 1/2))."""
    return {p: math.tan(math.pi * (p - 0.5)) for p in probs}
