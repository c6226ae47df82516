from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from factfilter import partial_pearson, pearson, wilcoxon_signed_rank
from factfilter.errors import DegenerateInputError, DomainError
from factfilter.stats import EXACT_ENUMERATION_CUTOFF, partial_pearsons


def oracle_partial_pearson(x, y, z) -> float:
    """Normal-equations residualization by explicit matrix inversion."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    design = np.column_stack([np.ones(len(x)), np.asarray(z, float)])
    projector = np.linalg.inv(design.T @ design) @ design.T
    rx = x - design @ (projector @ x)
    ry = y - design @ (projector @ y)
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    return float((rxc * ryc).sum() / np.sqrt((rxc ** 2).sum() * (ryc ** 2).sum()))


def oracle_exact_wilcoxon_p(diffs) -> float:
    """Two-sided p by literally enumerating all 2^n sign patterns."""
    diffs = [d for d in diffs if d != 0]
    ranks = scipy.stats.rankdata([abs(d) for d in diffs])
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    total = float(ranks.sum())
    hi = max(w_obs, total - w_obs)
    lo = total - hi
    if hi == lo:
        return 1.0
    count = 0
    for signs in itertools.product((0, 1), repeat=len(diffs)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w >= hi or w <= lo:
            count += 1
    return count / 2 ** len(diffs)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_computed(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_zero_variance_is_error_not_zero(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            pearson([1, 2, 3], [1, 2])

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            pearson([1, 2], [3, 4])

    @given(st.integers(5, 30), st.floats(0.1, 10), st.floats(-5, 5))
    @settings(max_examples=40)
    def test_positive_affine_invariance(self, n, scale, shift):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        base = pearson(x, y)
        assert pearson(scale * x + shift, y) == pytest.approx(base, abs=1e-10)
        assert pearson(-x, y) == pytest.approx(-base, abs=1e-10)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        perm = rng.permutation(12)
        assert pearson(x[perm], y[perm]) == pytest.approx(pearson(x, y), abs=1e-12)


class TestPartialPearson:
    def test_no_covariates_equals_pearson_exactly(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert partial_pearson(x, y).r == pearson(x, y)
        assert partial_pearson(x, y, np.empty((15, 0))).r == pearson(x, y)

    def test_x_equal_to_covariate_is_degenerate(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        with pytest.raises(DegenerateInputError):
            partial_pearson(x, y, x.reshape(-1, 1))

    def test_rank_deficient_design_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        z = np.column_stack([np.ones(10), np.ones(10) * 2.0])  # collinear with intercept
        with pytest.raises(DomainError):
            partial_pearson(x, y, z)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = 20
            k = int(rng.integers(1, 4))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            z = rng.normal(size=(n, k))
            result = partial_pearson(x, y, z)
            assert result.r == pytest.approx(oracle_partial_pearson(x, y, z), abs=1e-10)
            assert result.n == n and result.n_covariates == k

    def test_sample_size_floor(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(4, 2))
        with pytest.raises(DomainError):
            partial_pearson(rng.normal(size=4), rng.normal(size=4), z)

    def test_removes_confounder(self):
        # x and y only correlate through the shared covariate
        rng = np.random.default_rng(5)
        c = rng.normal(size=500)
        x = c + 0.1 * rng.normal(size=500)
        y = c + 0.1 * rng.normal(size=500)
        raw = pearson(x, y)
        partial = partial_pearson(x, y, c.reshape(-1, 1)).r
        assert raw > 0.9
        assert abs(partial) < 0.2


def one_call_partial_pearson(x, y, z) -> float:
    """One (x, y) pair's partial r as `partial_pearson` computed it alone:
    the rank-checked design, then x's and y's least-squares residuals."""
    design = np.column_stack([np.ones(len(x)), z])
    rx = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
    ry = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    r = float(np.dot(rx, ry)) / np.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry)))
    return max(-1.0, min(1.0, r))


class TestPartialPearsons:
    """One design and one x, many y: each result is `partial_pearson`'s."""

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_bit_equal_to_one_call_per_y(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            n = int(rng.integers(k + 3, 60))
            x = rng.normal(size=n)
            ys = [rng.normal(size=n), np.round(rng.uniform(size=n), 1), x + rng.normal(size=n)]
            z = (rng.integers(0, 2, size=(n, k)) + 0.0) if k else None
            if k and np.linalg.matrix_rank(np.column_stack([np.ones(n), z])) < k + 1:
                continue
            got = partial_pearsons(x, ys, z)
            want = [partial_pearson(x, y, z) for y in ys]
            assert got == want
            assert [r.r.hex() for r in got] == [r.r.hex() for r in want]
            if k:
                assert [r.r.hex() for r in got] == \
                    [one_call_partial_pearson(x, y, z).hex() for y in ys]

    def test_a_degenerate_y_raises_as_its_own_call_does(self):
        rng = np.random.default_rng(6)
        x, z = rng.normal(size=12), rng.normal(size=(12, 2))
        ys = [rng.normal(size=12), z[:, 0] * 2.0 + 1.0]
        with pytest.raises(DegenerateInputError, match="zero variance after regression"):
            partial_pearson(x, ys[1], z)
        with pytest.raises(DegenerateInputError, match="zero variance after regression"):
            partial_pearsons(x, ys, z)
        with pytest.raises(DomainError, match="length mismatch: 12 vs 11"):
            partial_pearsons(x, [ys[0], ys[0][:11]], z)


class TestWilcoxon:
    def test_all_positive_differences_exact(self):
        result = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert result.w_statistic == 15.0
        assert result.p_value == 0.0625
        assert result.method == "exact"
        assert result.n_effective == 5

    def test_identical_samples_degenerate(self):
        with pytest.raises(DegenerateInputError):
            wilcoxon_signed_rank([1, 2, 3], [1, 2, 3])

    def test_two_sided_antisymmetry(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_signed_rank(b, a).p_value

    def test_zero_differences_discarded(self):
        result = wilcoxon_signed_rank([1, 2, 3, 7], [1, 2, 3, 5])
        assert result.n_effective == 1

    def test_matches_enumeration_oracle_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            diffs = rng.integers(-3, 4, size=n).astype(float)
            if not np.any(diffs != 0):
                continue
            result = wilcoxon_signed_rank(diffs, np.zeros(n))
            assert result.p_value == pytest.approx(oracle_exact_wilcoxon_p(diffs), abs=1e-12)

    def test_matches_scipy_exact_on_tie_free_data(self):
        rng = np.random.default_rng(8)
        for n in (8, 13, 20):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            mine = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, mode="exact")
            assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_method_switches_at_cutoff(self):
        rng = np.random.default_rng(9)
        n = EXACT_ENUMERATION_CUTOFF
        at = wilcoxon_signed_rank(rng.normal(size=n), rng.normal(size=n))
        above = wilcoxon_signed_rank(rng.normal(size=n + 1), rng.normal(size=n + 1))
        assert at.method == "exact"
        assert above.method == "normal_approx"

    def test_exact_and_normal_agree_at_cutoff(self):
        # sanity band: the approximation is already close where we stop enumerating
        rng = np.random.default_rng(10)
        from factfilter.stats import _average_ranks, _exact_two_sided_p, _normal_two_sided_p
        for _ in range(50):
            d = rng.normal(size=20)
            ranks = _average_ranks(np.abs(d))
            w = float(ranks[d > 0].sum())
            exact = _exact_two_sided_p(ranks, w)
            approx = _normal_two_sided_p(ranks, np.abs(d), w)
            assert abs(exact - approx) < 0.02

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=18)
        b = rng.normal(size=18)
        perm = rng.permutation(18)
        assert wilcoxon_signed_rank(a[perm], b[perm]) == wilcoxon_signed_rank(a, b)

    def test_large_n_against_scipy_approx(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=60)
        b = a + rng.normal(scale=0.8, size=60)
        mine = wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, mode="approx", correction=True)
        assert mine.method == "normal_approx"
        assert mine.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)
