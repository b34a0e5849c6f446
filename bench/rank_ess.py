"""Rank-normalised effective sample size (Vehtari et al. 2021).

Raw autocorrelation ESS is unreliable on heavy-tailed marginals: a few
huge draws dominate the sample variance and the autocorrelations.
Replacing each draw by the normal score of its rank gives a series
with finite moments whose ESS is then estimated by the package's
``diagnostics.ess``.
"""

from statistics import NormalDist

import numpy as np

from brightside.diagnostics import ess

_INV_CDF = NormalDist().inv_cdf


class NormalScores:
    """Normal scores of half-integer ranks, cached per series length.

    With average ranks for ties, twice a rank is an integer k in
    [2, 2n], so one table of 2n - 1 scores serves every series of
    length n.
    """

    def __init__(self):
        self._tables = {}

    def table(self, n):
        tab = self._tables.get(n)
        if tab is None:
            k = np.arange(2, 2 * n + 1)
            u = (k / 2.0 - 0.375) / (n + 0.25)
            tab = np.array([_INV_CDF(float(v)) for v in u])
            self._tables[n] = tab
        return tab

    def normalise(self, x):
        """Normal scores of the average ranks of ``x`` (ties share a rank)."""
        x = np.asarray(x, dtype=float).ravel()
        n = x.size
        order = np.argsort(x, kind="stable")
        xs = x[order]
        starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
        counts = np.diff(np.r_[starts, n])
        twice_rank = np.repeat(2 * starts + counts + 1, counts)
        z = np.empty(n)
        z[order] = self.table(n)[twice_rank - 2]
        return z

    def ess(self, x):
        """ESS of the rank-normalised series ``x``."""
        return ess(self.normalise(x))


def summed_ess(scores, chains, coords):
    """Per coordinate, the rank-normalised ESS summed over replicate chains."""
    return [sum(scores.ess(c[:, j]) for c in chains) for j in coords]
