"""Statistics kernel: Pearson, partial Pearson, Wilcoxon signed-rank.

Partial correlation regresses both variables on the covariates (plus an
intercept) and correlates the residuals. The signed-rank test is exact by
enumeration of all sign patterns for small samples and uses a tie-corrected
normal approximation beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError

# 2^20 sign patterns enumerate in well under a second; beyond that the
# normal approximation error is negligible.
EXACT_ENUMERATION_CUTOFF = 20


@dataclass(frozen=True)
class PartialCorrelationResult:
    r: float
    n: int
    n_covariates: int

    def __post_init__(self) -> None:
        if abs(self.r) > 1.0:
            raise DomainError(f"correlation {self.r} outside [-1, 1]")


@dataclass(frozen=True)
class WilcoxonResult:
    w_statistic: float
    p_value: float
    n_effective: int
    method: str  # "exact" | "normal_approx"

    def __post_init__(self) -> None:
        if not 0.0 < self.p_value <= 1.0:
            raise DomainError(f"p-value {self.p_value} outside (0, 1]")
        expected = "exact" if self.n_effective <= EXACT_ENUMERATION_CUTOFF else "normal_approx"
        if self.method != expected:
            raise DomainError(
                f"method {self.method!r} inconsistent with n_effective={self.n_effective}"
            )


def _as_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


def pearson(x, y) -> float:
    """Sample Pearson correlation; degenerate (zero-variance) input is an error."""
    xa = _as_1d(x, "x")
    ya = _as_1d(y, "y")
    if xa.shape != ya.shape:
        raise DomainError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 3:
        raise DomainError("need at least 3 samples")
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    sxx = float(np.dot(xd, xd))
    syy = float(np.dot(yd, yd))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("zero variance input to pearson")
    r = float(np.dot(xd, yd)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _residualize(values: np.ndarray, design: np.ndarray) -> np.ndarray:
    beta, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    return values - design @ beta


def partial_pearson(x, y, z=None) -> PartialCorrelationResult:
    """Pearson correlation of x and y after regressing out covariate columns z.

    With no covariates this reduces to plain pearson exactly (same code path,
    no residualization).
    """
    return partial_pearsons(x, [y], z)[0]


def partial_pearsons(x, ys, z=None) -> list[PartialCorrelationResult]:
    """`partial_pearson(x, y, z)` for each y of `ys`, bit for bit: the
    design's rank check and x's residuals are computed once for all of them."""
    xa = _as_1d(x, "x")
    yas = [_as_1d(y, "y") for y in ys]
    for ya in yas:
        if xa.shape != ya.shape:
            raise DomainError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    n = xa.shape[0]
    if z is None:
        za = np.empty((n, 0), dtype=np.float64)
    else:
        za = np.asarray(z, dtype=np.float64)
        if za.ndim == 1:
            za = za.reshape(-1, 1)
        if za.ndim != 2 or za.shape[0] != n:
            raise DomainError("covariate matrix must have one row per sample")
        if not np.all(np.isfinite(za)):
            raise DomainError("covariates contain non-finite values")
    p = za.shape[1]
    if p == 0:
        return [PartialCorrelationResult(r=pearson(xa, ya), n=n, n_covariates=0) for ya in yas]
    if n <= p + 2:
        raise DomainError(f"need n > n_covariates + 2 (n={n}, covariates={p})")
    design = np.column_stack([np.ones(n), za])
    if np.linalg.matrix_rank(design) < p + 1:
        raise DomainError("covariate design is rank-deficient (with intercept)")
    rx = _residualize(xa, design)
    sxx = float(np.dot(rx, rx))
    results = []
    for ya in yas:
        ry = _residualize(ya, design)
        syy = float(np.dot(ry, ry))
        if sxx <= 1e-24 or syy <= 1e-24:
            raise DegenerateInputError("residuals have zero variance after regression")
        r = float(np.dot(rx, ry)) / math.sqrt(sxx * syy)
        results.append(PartialCorrelationResult(r=max(-1.0, min(1.0, r)), n=n, n_covariates=p))
    return results


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values receiving their average rank.

    A run of equal values at sorted places i..j-1 gets 0.5 * (i + j - 1) + 1.0,
    computed for every run at once; the places are exact in float64.
    """
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    stops = np.append(starts[1:], n)
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + stops - 1) + 1.0, stops - starts)
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    """Two-sided p over the 2^n equally likely sign assignments.

    Average ranks are multiples of 1/2, so the doubled ranks are integers and
    the statistic distribution is a subset-sum count (equivalent to, but much
    cheaper than, materializing all 2^n patterns).
    """
    r2 = np.rint(2.0 * ranks).astype(np.int64)
    total = int(r2.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    w2 = int(np.rint(2.0 * w_plus))
    hi = max(w2, total - w2)
    lo = total - hi
    if hi == lo:
        return 1.0
    n_patterns = float(2 ** ranks.shape[0])
    p = (float(counts[hi:].sum()) + float(counts[: lo + 1].sum())) / n_patterns
    return min(p, 1.0)


def _normal_two_sided_p(ranks: np.ndarray, abs_diffs: np.ndarray, w_plus: float) -> float:
    """Tie-corrected normal approximation with continuity correction."""
    n = ranks.shape[0]
    mean = n * (n + 1) / 4.0
    # Every partial sum of t^3 - t is an exact integer while n^3 < 2**53, so
    # there the array sum equals a sum in any order; float64 never wraps.
    t = np.unique(abs_diffs, return_counts=True)[1].astype(np.float64)
    tie_sum = float(np.sum(t * t * t - t))
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - tie_sum / 48.0
    if variance <= 0.0:
        raise DegenerateInputError("signed-rank variance is zero under ties")
    z = (abs(w_plus - mean) - 0.5) / math.sqrt(variance)
    z = max(z, 0.0)
    p = math.erfc(z / math.sqrt(2.0))
    return min(max(p, 5e-324), 1.0)


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are discarded (reflected in n_effective); ties among
    absolute differences receive average ranks. The statistic is W+, the sum
    of ranks of positive differences.
    """
    aa = _as_1d(a, "a")
    ba = _as_1d(b, "b")
    if aa.shape != ba.shape:
        raise DomainError(f"length mismatch: {aa.shape[0]} vs {ba.shape[0]}")
    diffs = aa - ba
    diffs = diffs[diffs != 0.0]
    n_eff = diffs.shape[0]
    if n_eff == 0:
        raise DegenerateInputError("all paired differences are zero")
    abs_diffs = np.abs(diffs)
    ranks = _average_ranks(abs_diffs)
    w_plus = float(ranks[diffs > 0.0].sum())
    if n_eff <= EXACT_ENUMERATION_CUTOFF:
        p = _exact_two_sided_p(ranks, w_plus)
        method = "exact"
    else:
        p = _normal_two_sided_p(ranks, abs_diffs, w_plus)
        method = "normal_approx"
    return WilcoxonResult(w_statistic=w_plus, p_value=p, n_effective=n_eff, method=method)
