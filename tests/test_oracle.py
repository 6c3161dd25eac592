import time

import pytest

from fishburn.series import TruncatedSeries
from fishburn.families import (
    ALL,
    FAMILY_STATS,
    fishburn_numbers,
    PRIMITIVE,
    LambdaSpec,
    family_gf,
    lambda_series,
    stat_profile,
)
from fishburn.oracle import (
    OracleMatrix,
    ascent_counts,
    enumerate_matrices,
    histogram,
    persymmetry,
)

SPECS = {"all": ALL, "01": PRIMITIVE, "012": LambdaSpec("012")}


class TestEnumeration:
    @pytest.mark.parametrize("family", ["row-fishburn", "fishburn", "self-dual"])
    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_counts_match_series(self, family, tag):
        spec = SPECS[tag]
        f = family_gf(family, spec, 7)
        for n in range(1, 8):
            mats = enumerate_matrices(family, spec, n)
            assert sum(m.weight for m in mats) == f.coeff(n)

    def test_weighted_counts(self):
        spec = LambdaSpec("custom", (1, 3))
        f = family_gf("row-fishburn", spec, 6)
        for n in range(1, 7):
            mats = enumerate_matrices("row-fishburn", spec, n)
            assert sum(m.weight for m in mats) == f.coeff(n)

    def test_matrices_are_wellformed(self):
        for m in enumerate_matrices("fishburn", ALL, 5):
            d = len(m.entries)
            assert sum(map(sum, m.entries)) == 5
            assert all(len(row) == d for row in m.entries)
            # upper triangular with no zero row or column
            assert all(
                m.entries[i][j] == 0 for i in range(d) for j in range(i)
            )
            assert all(any(row) for row in m.entries)
            assert all(any(m.entries[i][j] for i in range(j + 1)) for j in range(d))

    def test_row_family_allows_zero_columns(self):
        mats = enumerate_matrices("row-fishburn", ALL, 3)
        assert any(
            not all(any(m.entries[i][j] for i in range(j + 1)) for j in range(len(m.entries)))
            for m in mats
        )

    def test_self_dual_matrices_are_persymmetric(self):
        for m in enumerate_matrices("self-dual", ALL, 6):
            assert persymmetry(m.entries)

    def test_dim_filter(self):
        all_mats = enumerate_matrices("fishburn", ALL, 5)
        by_dim = [enumerate_matrices("fishburn", ALL, 5, dim=d) for d in range(1, 6)]
        assert sum(len(b) for b in by_dim) == len(all_mats)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="positive"):
            enumerate_matrices("fishburn", ALL, 0)

    # Each input would run, or fail otherwise, in little time and memory
    # without the cap: the 01 multiset keeps size 9 small.
    @pytest.mark.parametrize("size", [9, True, 2.0, "3"])
    def test_out_of_budget_sizes_are_refused_fast(self, size):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="size"):
            enumerate_matrices("fishburn", PRIMITIVE, size)
        assert time.perf_counter() - start < 0.1

    def test_values_respect_multiset(self):
        for m in enumerate_matrices("fishburn", LambdaSpec("even+"), 6):
            assert all(v == 0 or v % 2 == 0 for row in m.entries for v in row)


class TestAscentSequences:
    def test_small_lengths_by_listing(self):
        # every sequence x_1 = 0, x_i <= 1 + (ascents before i), listed outright
        seqs = [(0,)]
        counts = [1, 1]
        for _ in range(5):
            seqs = [
                s + (x,)
                for s in seqs
                for x in range(2 + sum(a < b for a, b in zip(s, s[1:])))
            ]
            counts.append(len(seqs))
        assert ascent_counts(6) == tuple(counts) == (1, 1, 2, 5, 15, 53, 217)

    def test_match_the_fishburn_series(self):
        assert ascent_counts(60) == fishburn_numbers(60)

    def test_length_validation(self):
        assert ascent_counts(0) == (1,)
        with pytest.raises(ValueError):
            ascent_counts(-1)

    @pytest.mark.parametrize("n", [501, True, 2.0])
    def test_out_of_budget_lengths_are_refused_fast(self, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="order"):
            ascent_counts(n)
        assert time.perf_counter() - start < 0.1


class TestPersymmetry:
    def test_symmetric_example(self):
        assert persymmetry(((1, 2), (0, 1)))

    def test_asymmetric_example(self):
        assert not persymmetry(((2, 1), (0, 1)))

    def test_anti_diagonal_reflection_indexing(self):
        # entry (1,3) must equal entry (d-3, d-1) = (0, 2) for d = 3... use d=4
        m = [[0] * 4 for _ in range(4)]
        m[0][3] = 5
        m[1][3] = 7
        m[0][2] = 7
        for i in range(4):
            m[i][i] = 1
        assert persymmetry(tuple(map(tuple, m)))

    def test_self_dual_weight_counts_orbits(self):
        # with doubled weights each value choice counts once per mirror orbit
        spec = LambdaSpec("custom", (2,))
        f = family_gf("self-dual", spec, 5)
        for n in range(1, 6):
            mats = enumerate_matrices("self-dual", spec, n)
            assert sum(m.weight for m in mats) == f.coeff(n)


STAT_CASES = [
    (fam, stat, tag)
    for fam, stats in FAMILY_STATS.items()
    for stat in stats
    for tag in ("all", "01")
]


class TestHistograms:
    @pytest.mark.parametrize("family,stat,tag", STAT_CASES)
    def test_against_marked_series(self, family, stat, tag):
        spec = SPECS[tag]
        n = 7
        prof = stat_profile(family, stat, spec, n)
        got = histogram(enumerate_matrices(family, spec, n), stat)
        want = {m: c for m, c in enumerate(prof[n]) if c}
        assert got == want

    def test_dimension_matches_product_terms(self):
        # the k-th summand of the row-family series counts dim-k matrices
        n = 6
        got = histogram(enumerate_matrices("row-fishburn", ALL, n), "dimension")
        L = lambda_series(ALL, n)
        prod = TruncatedSeries.one(n)
        p = TruncatedSeries.one(n)
        want = {}
        for k in range(1, n + 1):
            p = p * L
            prod = prod * (p - TruncatedSeries.one(n))
            if prod.coeff(n):
                want[k] = int(prod.coeff(n))
        assert got == want

    def test_reflection_swaps_first_row_and_last_column(self):
        # anti-diagonal reflection is an involution on the complete family:
        # first-row counts must equal last-column counts
        n = 7
        mats = enumerate_matrices("fishburn", ALL, n)
        by_last_col = {}
        for m in mats:
            k = sum(row[-1] for row in m.entries)
            by_last_col[k] = by_last_col.get(k, 0) + m.weight
        assert histogram(mats, "first_row") == by_last_col

    def test_reflection_preserves_diagonal(self):
        n = 6
        mats = enumerate_matrices("fishburn", ALL, n)
        reflected = {}
        for m in mats:
            d = len(m.entries)
            r = tuple(
                tuple(m.entries[d - 1 - j][d - 1 - i] for j in range(d))
                for i in range(d)
            )
            reflected[r] = reflected.get(r, 0) + m.weight
        assert reflected == {m.entries: m.weight for m in mats}

    def test_histogram_unknown_stat(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            histogram([OracleMatrix(((1,),))], "rank")

    def test_ones_histogram_explicit(self):
        # the five size-3 complete matrices: [[3]], [[1,0],[0,2]], [[1,1],[0,1]],
        # [[2,0],[0,1]], and the 3x3 identity carry 0,1,3,1,3 ones
        got = histogram(enumerate_matrices("fishburn", ALL, 3), "ones")
        assert got == {0: 1, 1: 2, 3: 2}
