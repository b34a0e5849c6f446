import math
from statistics import NormalDist

import numpy as np
import pytest

from brightside.diagnostics import (
    DEFAULT_PROBS,
    empirical_quantiles,
    ess,
    qq_report,
    read_qq_csv,
    relative_quantile_errors,
    write_qq_csv,
)
from brightside.errors import BrightsideError, EmptyInput, NonfiniteInput
from oracles import ks_statistic


class TestQuantileSpec:
    def test_default_grid(self):
        assert DEFAULT_PROBS == (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 0.9,
                                 0.95, 0.98, 0.99)


class TestEmpiricalQuantiles:
    def test_median_of_three(self):
        q = empirical_quantiles([1.0, 2.0, 3.0])
        assert q[DEFAULT_PROBS.index(0.5)] == 2.0

    def test_rank_interpolation(self):
        # two samples, p = 0.2: rank 0.2 between the order statistics
        q = empirical_quantiles([0.0, 1.0])
        assert abs(q[DEFAULT_PROBS.index(0.2)] - 0.2) < 1e-15

    def test_monotone_on_default_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = empirical_quantiles(rng.standard_cauchy(500))
            assert np.all(np.diff(q) >= 0.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            empirical_quantiles([1.0])


class TestKsStatistic:
    def test_single_sample_at_median(self):
        assert ks_statistic([0.0], lambda s: 0.5 * np.ones_like(s)) == 0.5

    def test_true_cdf_small_statistic(self):
        rng = np.random.default_rng(1)
        passes = 0
        n = 20_000
        for seed in range(20):
            u = np.random.default_rng(seed).uniform(size=n)
            stat = ks_statistic(u, lambda s: s)
            passes += stat < 1.63 / math.sqrt(n)
        assert passes >= 19

    def test_shift_monotone(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5000)

        def gauss_cdf(s):
            return 0.5 * (1.0 + np.vectorize(math.erf)(s / math.sqrt(2.0)))

        stats = [ks_statistic(x + shift, gauss_cdf)
                 for shift in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert np.all(np.diff(stats) > 0.0)

    def test_bounds_and_empty(self):
        rng = np.random.default_rng(3)
        stat = ks_statistic(rng.uniform(size=100), lambda s: s)
        assert 0.0 <= stat <= 1.0
        with pytest.raises(EmptyInput):
            ks_statistic([], lambda s: s)


class TestEss:
    def test_iid_near_n(self):
        rng = np.random.default_rng(4)
        n = 10_000
        x = rng.standard_normal(n)
        est = ess(x)
        assert 0.8 * n <= est <= 1.2 * n

    def test_constant_clips_to_one(self):
        assert ess(np.ones(100)) == 1.0

    def test_ar1_closed_form(self):
        rng = np.random.default_rng(5)
        n = 200_000
        phi = 0.9
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0]
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        ratio = ess(x) / n
        expected = (1.0 - phi) / (1.0 + phi)
        assert expected / 2.0 <= ratio <= expected * 2.0

    def test_range_and_empty(self):
        rng = np.random.default_rng(6)
        est = ess(rng.standard_normal(50))
        assert 1.0 <= est <= 50.0
        with pytest.raises(EmptyInput):
            ess(np.ones(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_samples_raise(self, bad):
        # a NaN once came back as NaN after the lag loop, and +-inf warned
        # "invalid value encountered in subtract"
        x = np.random.default_rng(7).standard_normal(100)
        x[37] = bad
        with pytest.raises(NonfiniteInput) as info:
            ess(x)
        assert isinstance(info.value, BrightsideError)


class TestRelativeQuantileErrors:
    def test_zero_reference_uses_local_scale(self):
        ref = np.array([-2.0, 0.0, 2.0])
        sample = np.array([-2.0, 0.1, 2.0])
        errs = relative_quantile_errors(sample, ref)
        assert errs[0] == 0.0 and errs[2] == 0.0
        assert abs(errs[1] - 0.1 / 2.0) < 1e-12  # local half-span is 2

    def test_plain_relative_in_tails(self):
        ref = np.array([1.0, 10.0, 100.0])
        sample = ref * 1.05
        errs = relative_quantile_errors(sample, ref)
        assert abs(errs[2] - 0.05) < 1e-12


class TestQQReport:
    def test_reference_equal_to_pooled_gives_zero_error(self):
        rng = np.random.default_rng(7)
        chains = [rng.standard_normal((500, 2)) for _ in range(3)]
        pooled = np.quantile(np.concatenate([c[:, 0] for c in chains]),
                             DEFAULT_PROBS)
        rep = qq_report(chains, 0, pooled)
        assert np.allclose(rep.relative_errors, 0.0)
        assert len(rep.probs) == len(DEFAULT_PROBS)

    def test_envelope_covers_reference_for_iid_replicates(self):
        rng = np.random.default_rng(8)
        # large iid "chains" so each replicate's quantiles hug the truth
        chains = [rng.standard_normal((20_000, 1)) for _ in range(10)]
        ref = np.array([NormalDist().inv_cdf(p) for p in DEFAULT_PROBS])
        rep = qq_report(chains, 0, ref)
        at = [DEFAULT_PROBS.index(p) for p in (0.2, 0.5, 0.8)]
        covered = np.sum((rep.envelope_lo[at] <= ref[at]) & (ref[at] <= rep.envelope_hi[at]))
        assert covered >= 2

    def test_requires_chain(self):
        with pytest.raises(EmptyInput):
            qq_report([], 0, np.zeros(11))

    def test_reference_grid_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            qq_report([rng.standard_normal((100, 1))], 0, np.zeros(3))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        chains = [rng.standard_cauchy((1000, 2)) for _ in range(2)]
        reports = {
            j: qq_report(chains, j, np.quantile(chains[0][:, j], DEFAULT_PROBS))
            for j in range(2)
        }
        path = tmp_path / "qq.csv"
        write_qq_csv(path, reports)
        back = read_qq_csv(path)
        for j in range(2):
            assert np.array_equal(back[j].sample_quantiles,
                                  reports[j].sample_quantiles)
            assert np.array_equal(back[j].relative_errors,
                                  reports[j].relative_errors)

    def test_csv_empty_file(self, tmp_path):
        path = tmp_path / "qq.csv"
        path.write_text("")
        with pytest.raises(EmptyInput, match="empty"):
            read_qq_csv(path)

    def test_csv_header_only(self, tmp_path):
        path = tmp_path / "qq.csv"
        write_qq_csv(path, {})
        with pytest.raises(EmptyInput, match="no data rows"):
            read_qq_csv(path)
