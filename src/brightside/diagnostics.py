"""Chain summaries: quantiles, KS distances, effective sample sizes,
and quantile-quantile comparison reports against a reference law.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput

# probability grid used by all experiment reports
DEFAULT_PROBS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 0.9, 0.95, 0.98, 0.99)


@dataclass(frozen=True)
class QuantileSpec:
    """Strictly increasing probability grid inside (0, 1)."""

    probs: tuple = DEFAULT_PROBS

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if len(probs) == 0:
            raise ValueError("probability grid must be non-empty")
        if any(not 0.0 < p < 1.0 for p in probs):
            raise ValueError("probabilities must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(probs, probs[1:])):
            raise ValueError("probabilities must be strictly increasing")
        object.__setattr__(self, "probs", probs)


@dataclass
class QQReport:
    """Quantile comparison for one coordinate across replicate chains."""

    probs: np.ndarray
    sample_quantiles: np.ndarray       # pooled across replicates
    reference_quantiles: np.ndarray
    relative_errors: np.ndarray        # scale-aware, see relative_quantile_errors
    envelope_lo: np.ndarray            # min across replicates
    envelope_hi: np.ndarray            # max across replicates
    per_replicate: np.ndarray = field(repr=False, default=None)


def empirical_quantiles(samples, spec: QuantileSpec | None = None) -> np.ndarray:
    """Linear-interpolation (type 7) quantiles on the grid of ``spec``."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise EmptyInput("need at least two samples for quantiles")
    spec = spec or QuantileSpec()
    return np.quantile(samples, spec.probs)


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


def ess(samples) -> float:
    """Effective sample size via the initial-positive-pair truncation.

    n / (1 + 2 * sum of autocorrelations), with the sum cut at the
    first non-positive consecutive-lag pair and the result clipped to
    [1, n]; a constant series returns the clip floor 1.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < 10:
        raise EmptyInput("need at least ten samples for an ESS estimate")
    x = samples - samples.mean()
    var = float(x @ x)
    if var == 0.0:
        return 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:n].real
    rho = acov / acov[0]
    tau = -1.0
    for m in range(n // 2):
        pair = rho[2 * m] + (rho[2 * m + 1] if 2 * m + 1 < n else 0.0)
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    tau = max(tau, 1e-12)
    return float(np.clip(n / tau, 1.0, n))


def relative_quantile_errors(sample_q, ref_q) -> np.ndarray:
    """Relative quantile errors with a local-spacing floor on the scale.

    The denominator for entry i is max(|ref_i|, half the span of the
    neighboring reference quantiles), which keeps the error meaningful
    where the reference crosses zero (e.g. the median of a symmetric
    law) and reduces to the plain relative error in the tails.
    """
    sample_q = np.asarray(sample_q, dtype=float)
    ref_q = np.asarray(ref_q, dtype=float)
    if sample_q.shape != ref_q.shape:
        raise ValueError("quantile arrays must share a shape")
    n = ref_q.size
    local = np.empty(n)
    if n == 1:
        local[0] = 0.0
    else:
        local[0] = abs(ref_q[1] - ref_q[0])
        local[-1] = abs(ref_q[-1] - ref_q[-2])
        if n > 2:
            local[1:-1] = np.abs(ref_q[2:] - ref_q[:-2]) / 2.0
    denom = np.maximum(np.abs(ref_q), local)
    denom = np.maximum(denom, 1e-300)
    return np.abs(sample_q - ref_q) / denom


def _coordinate_series(chain, coordinate):
    samples = chain.samples if hasattr(chain, "samples") else np.asarray(chain)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        if coordinate != 0:
            raise ValueError("1-d chain has only coordinate 0")
        return samples
    return samples[:, coordinate]


def qq_report(chains, coordinate, reference_quantiles,
              spec: QuantileSpec | None = None) -> QQReport:
    """Quantile comparison of replicate chains against reference values.

    ``chains`` is a non-empty list of ChainOutput (or raw arrays); the
    pooled quantiles across replicates are compared to the reference,
    and the per-replicate min/max envelope records replicate spread.
    """
    if len(chains) == 0:
        raise EmptyInput("need at least one chain")
    spec = spec or QuantileSpec()
    probs = np.asarray(spec.probs)
    reference_quantiles = np.asarray(reference_quantiles, dtype=float)
    if reference_quantiles.shape != probs.shape:
        raise ValueError("reference quantiles must match the probability grid")
    series = [_coordinate_series(c, coordinate) for c in chains]
    per_rep = np.stack([np.quantile(s, probs) for s in series])
    pooled = np.quantile(np.concatenate(series), probs)
    return QQReport(
        probs=probs,
        sample_quantiles=pooled,
        reference_quantiles=reference_quantiles,
        relative_errors=relative_quantile_errors(pooled, reference_quantiles),
        envelope_lo=per_rep.min(axis=0),
        envelope_hi=per_rep.max(axis=0),
        per_replicate=per_rep,
    )


QQ_CSV_COLUMNS = ("coord", "prob", "sample_q", "ref_q", "rel_err",
                  "env_lo", "env_hi")


def write_qq_csv(path, reports: dict):
    """Write per-coordinate QQ reports as one CSV table."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(QQ_CSV_COLUMNS)
        for coord in sorted(reports):
            r = reports[coord]
            for i, p in enumerate(r.probs):
                writer.writerow([
                    coord,
                    repr(float(p)),
                    repr(float(r.sample_quantiles[i])),
                    repr(float(r.reference_quantiles[i])),
                    repr(float(r.relative_errors[i])),
                    repr(float(r.envelope_lo[i])),
                    repr(float(r.envelope_hi[i])),
                ])


def read_qq_csv(path) -> dict:
    """Read a CSV written by ``write_qq_csv`` back into QQReport objects."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != QQ_CSV_COLUMNS:
            raise ValueError(f"unexpected QQ CSV header {header!r}")
        for row in reader:
            if not row:
                continue
            coord = int(row[0])
            rows.setdefault(coord, []).append([float(v) for v in row[1:]])
    reports = {}
    for coord, entries in rows.items():
        arr = np.asarray(entries)
        reports[coord] = QQReport(
            probs=arr[:, 0],
            sample_quantiles=arr[:, 1],
            reference_quantiles=arr[:, 2],
            relative_errors=arr[:, 3],
            envelope_lo=arr[:, 4],
            envelope_hi=arr[:, 5],
        )
    return reports
