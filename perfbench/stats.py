"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile of ``values``.

    The estimate weighs every order statistic by a Beta kernel centred on
    the percentile, so it does not jump from one sample to the next when a
    run's job mix shifts slightly.  Raises ``ValueError`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the nearest-rank position,
    because such a tail is too thin to repeat.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    beyond = n - max(1, math.ceil(q / 100.0 * n))
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    p = q / 100.0
    cdf = _beta_cdf(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), ordered))


def _beta_cdf(a: float, b: float, points: np.ndarray, grid: int = 200_000) -> np.ndarray:
    """Beta(a, b) CDF at ``points`` (a, b >= 1), by midpoint-rule integration."""
    edges = np.linspace(0.0, 1.0, grid + 1)
    middles = (edges[:-1] + edges[1:]) * 0.5
    log_pdf = (a - 1.0) * np.log(middles) + (b - 1.0) * np.log1p(-middles)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    return np.interp(points, edges, cdf / cdf[-1])


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (``n=4`` quantiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median and relative spread of a list of per-run values."""
    return {"median": statistics.median(values), "iqr_frac": relative_iqr(values)}
