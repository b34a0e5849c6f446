import numpy as np
import pytest

from brightside import special
from brightside.special import student_t_log_cdf

# (m/2, 1/2) and (1/2, m/2) for the t log-CDFs at m = 11 and m = 101
SHAPES = ((5.5, 0.5), (0.5, 5.5), (50.5, 0.5), (0.5, 50.5))


def series_edge(a, b):
    return special._beta_terms(a, b, special._BETA_MAXIT).edge


class TestSwapGroups:
    """Every point on the series side, in both swap groups, batched past
    the small-batch limit, against the per-point path."""

    @pytest.mark.parametrize("log", [False, True], ids=["value", "log"])
    def test_incomplete_beta_on_both_sides(self, log):
        rng = np.random.default_rng(36)
        n = 4 * special._BETA_SMALL_BATCH
        for a, b in SHAPES + ((2.0, 3.0),):
            xs = np.concatenate([rng.uniform(0.0, 0.9 * series_edge(a, b), n),
                                 1.0 - rng.uniform(0.0, 0.9 * series_edge(b, a), n)])
            swap = xs > (a + 1.0) / (a + b + 2.0)
            assert swap.sum() == n
            pair = special._beta_pair(a, b)
            single = [special._incomplete_beta_scalar(float(x), pair, log) for x in xs]
            assert np.array_equal(special._incomplete_beta(xs, a, b, log), single)

    def test_t_log_cdf_on_both_sides(self):
        # the t log-CDF at m = 11: |t| large and small, both signs
        rng = np.random.default_rng(36)
        n = 4 * special._BETA_SMALL_BATCH
        m = 11.0
        t_far = np.sqrt(m / (0.9 * series_edge(m / 2.0, 0.5)) - m) * rng.uniform(1.0, 3.0, n)
        t_near = np.sqrt(m * 0.9 * series_edge(0.5, m / 2.0)) * rng.uniform(0.01, 1.0, n)
        ts = np.concatenate([t_far, t_near]) * rng.choice([-1.0, 1.0], 2 * n)
        assert np.array_equal(student_t_log_cdf(ts, m),
                              [student_t_log_cdf(float(t), m) for t in ts])

