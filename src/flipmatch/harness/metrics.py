"""Evaluation metrics and the CSV sink for training runs."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from flipmatch.errors import EmptyBatch, ShapeMismatch
from flipmatch.graph import Imap

__all__ = [
    "MetricsRow",
    "METRIC_COLUMNS",
    "metric_nll",
    "metric_mmd_linear",
    "write_metrics_csv",
    "read_metrics_csv",
]

METRIC_COLUMNS = ("step", "seconds", "nll", "mmd", "loss", "instantiated")


@dataclass
class MetricsRow:
    """One evaluation snapshot.

    ``instantiated`` is the largest number of variables any single sample of
    the update had to instantiate — the locality ledger: |V| for trajectory
    objectives, bounded by one plus the largest blanket for local updates.
    ``nll``/``mmd`` are NaN when a run has no held-out reference samples.
    """

    step: int
    seconds: float
    nll: float
    mmd: float
    loss: float
    instantiated: int


def metric_nll(s, imap: Imap, samples) -> float:
    """Mean negative log-probability of reference samples under the sampler."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise EmptyBatch("no reference samples to score")
    return float(-s.log_prob_batch(imap, X).mean())


def metric_mmd_linear(a, b) -> float:
    """Unbiased linear-kernel MMD^2 between two sample batches.

    With k(x, y) = x . y this estimates ||E[a] - E[b]||^2; diagonal terms are
    excluded on both self-similarity sums, so two batches from the same
    distribution concentrate at zero rather than above it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch("both batches must be 2-d with matching dimension")
    n, m = a.shape[0], b.shape[0]
    if n < 2 or m < 2:
        raise EmptyBatch("the unbiased estimator needs at least two samples per side")
    sa, sb = a.sum(axis=0), b.sum(axis=0)
    aa = (sa @ sa - np.einsum("ij,ij->", a, a)) / (n * (n - 1))
    bb = (sb @ sb - np.einsum("ij,ij->", b, b)) / (m * (m - 1))
    ab = (sa @ sb) / (n * m)
    return float(aa + bb - 2.0 * ab)


def write_metrics_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.step, repr(r.seconds), repr(r.nll), repr(r.mmd), repr(r.loss), r.instantiated]
            )


def read_metrics_csv(path: str) -> list[MetricsRow]:
    """The rows ``write_metrics_csv`` wrote.  A missing or wrong header, a
    row with the wrong number of fields or a field that does not parse
    raises ShapeMismatch naming the path and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != METRIC_COLUMNS:
            raise ShapeMismatch(f"{path}, line 1: unexpected metrics header {header!r}")
        rows = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(METRIC_COLUMNS):
                raise ShapeMismatch(f"{where}: {len(row)} fields, expected {len(METRIC_COLUMNS)}")
            try:
                rows.append(MetricsRow(int(row[0]), *map(float, row[1:5]), int(row[5])))
            except ValueError as e:
                raise ShapeMismatch(f"{where}: {e}") from None
        return rows
