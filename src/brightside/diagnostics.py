"""Chain summaries: quantiles on the one fixed grid ``DEFAULT_PROBS``,
effective sample sizes, and quantile-quantile comparison reports
against a reference law.

``_write_table`` and ``_read_table`` are the one CSV table format of
every artifact: the QQ tables here, ``samples.csv`` (``experiments``)
and regression data sets (``targets``).  This module imports only
``errors``, so both of the others can call them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import EmptyInput, NonfiniteInput

# the probability grid of every quantile and report
DEFAULT_PROBS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 0.9, 0.95, 0.98, 0.99)


@dataclass
class QQReport:
    """Quantile comparison for one coordinate across replicate chains."""

    probs: np.ndarray
    sample_quantiles: np.ndarray       # pooled across replicates
    reference_quantiles: np.ndarray
    relative_errors: np.ndarray        # scale-aware, see relative_quantile_errors
    envelope_lo: np.ndarray            # min across replicates
    envelope_hi: np.ndarray            # max across replicates


def empirical_quantiles(samples) -> np.ndarray:
    """Linear-interpolation (type 7) quantiles on ``DEFAULT_PROBS``."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise EmptyInput("need at least two samples for quantiles")
    return np.quantile(samples, DEFAULT_PROBS)


@lru_cache(maxsize=64)
def _fft_length(n) -> int:
    """Smallest 2^i 3^j 5^k >= n, a length numpy's FFT transforms fast.

    For the 18 000-draw chains of a d = 100 Cauchy run that is 36 000
    points in place of the next power of two, 65 536.  Cached per n: a
    run's chains share a few lengths, and the search's loops cost a
    tenth of a short series' ``ess``.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two that takes p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def ess(samples) -> float:
    """Effective sample size via the initial-positive-pair truncation.

    n / (1 + 2 * sum of autocorrelations), with the sum cut at the
    first non-positive consecutive-lag pair and the result clipped to
    [1, n]; a constant series returns the clip floor 1.  A NaN or
    infinite sample raises ``NonfiniteInput``.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < 10:
        raise EmptyInput("need at least ten samples for an ESS estimate")
    if not np.isfinite(samples).all():
        raise NonfiniteInput("samples must be finite for an ESS estimate")
    x = samples - samples.mean()
    var = float(x.dot(x))
    if var == 0.0:
        return 1.0
    # zero-padding to 2n - 1 or more keeps the circular autocovariance
    # free of wrap-around
    nfft = _fft_length(2 * n - 1)
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
    samples = chain.samples if hasattr(chain, "samples") else chain
    return np.asarray(samples, dtype=float)[:, coordinate]


def qq_report(chains, coordinate, reference_quantiles) -> QQReport:
    """Quantile comparison of replicate chains against reference values.

    ``chains`` is a non-empty list of ChainOutput (or raw 2-d arrays);
    their pooled quantiles on ``DEFAULT_PROBS`` are compared to the
    reference, and the per-replicate min/max envelope records spread.
    """
    if len(chains) == 0:
        raise EmptyInput("need at least one chain")
    probs = np.asarray(DEFAULT_PROBS)
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
    )


QQ_CSV_COLUMNS = ("coord", "prob", "sample_q", "ref_q", "rel_err",
                  "env_lo", "env_hi")


def _write_table(path, header, rows):
    """Write the ``header`` row, then one line per row of ``rows``: an
    integer cell in digits, any other as ``repr(float(cell))``, which
    reads back to the same double."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, (int, np.integer)) else repr(float(c))
                          for c in row] for row in rows)


def _read_table(path, kind, header_for, integer=()):
    """The header and the data rows of a ``_write_table`` CSV.

    A row is a list of floats, with ints at the column indices
    ``integer``; blank lines are skipped.  An empty file raises
    ``EmptyInput``; a header other than ``header_for(width)``, width its
    length, a row of another width and a cell that does not parse raise
    ValueError, the last two naming the line.  ``kind`` names the table
    in the messages.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if not header:
            raise EmptyInput(f"{kind} CSV {path} is empty")
        if header != tuple(header_for(len(header))):
            raise ValueError(f"unexpected {kind} CSV header {header!r}")

        def bad_row(why):
            return ValueError(f"{kind} CSV {path} line {reader.line_num}: {why}")

        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise bad_row(f"{len(row)} cells under {len(header)} columns")
            try:
                rows.append([int(c) if j in integer else float(c)
                             for j, c in enumerate(row)])
            except ValueError as err:
                raise bad_row(err) from None
    return header, rows


def write_qq_csv(path, reports: dict):
    """Write per-coordinate QQ reports as one CSV table."""
    # the columns after coord are QQReport's fields, in order
    _write_table(path, QQ_CSV_COLUMNS, (
        (coord, *row) for coord in sorted(reports)
        for row in zip(*(getattr(reports[coord], f.name) for f in fields(QQReport)))))


def read_qq_csv(path) -> dict:
    """Read a CSV written by ``write_qq_csv`` back into QQReport objects;
    a file without a data row raises ``EmptyInput``."""
    _, rows = _read_table(path, "QQ", lambda width: QQ_CSV_COLUMNS, integer=(0,))
    if not rows:
        raise EmptyInput(f"QQ CSV {path} holds no data rows")
    by_coord = {}
    for coord, *values in rows:
        by_coord.setdefault(coord, []).append(values)
    return {coord: QQReport(*np.asarray(values).T)
            for coord, values in by_coord.items()}
