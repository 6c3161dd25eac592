import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from fishburn.checks import FIRST_ROW_TRIANGLE, TREND_CELLS
from fishburn.families import ALL, FAMILY_STATS, PRIMITIVE, LambdaSpec, stat_jet
from fishburn.oracle import enumerate_matrices, histogram
from fishburn.distributions import (
    _DPS,
    ComparisonReport,
    DistributionTable,
    LimitLaw,
    compare,
    distribution,
    histogram_rows,
    limit_law_for,
    report_json,
    stat_mean_variance,
)

mp.mp.dps = 40

NO1 = LambdaSpec("no1")
M1 = LambdaSpec("custom", (0, 1, 1))          # 2s and 3s
M2 = LambdaSpec("custom", (0, 1, 0, 1, 1))    # 2s, 4s, 5s
EVEN2 = LambdaSpec("custom", (0, 1))          # 2s only

# One row per cell of the two limit-law tables, with the multiset that
# instantiates the nondegenerate regime of the cell.  The 2s count with every
# entry allowed follows the 1s count's Poisson law, so it adds no cell here.
CELLS = [cell for cell in TREND_CELLS if cell[1:] != ("twos", ALL)]


def as_mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def sup_at(family, stat, lam, n):
    table = distribution(family, stat, lam, n)
    law = limit_law_for(family, stat, lam, n)
    return compare(table, law).sup_distance


# ---------------------------------------------------------------------------
# Exact tables
# ---------------------------------------------------------------------------

class TestExactTables:
    @pytest.mark.parametrize("n,expected", list(enumerate(FIRST_ROW_TRIANGLE, start=1)))
    def test_first_row_triangle(self, n, expected):
        assert distribution("fishburn", "first_row", ALL, n).counts == expected

    def test_diagonal_counts_size_seven(self):
        table = distribution("fishburn", "diagonal", ALL, 7)
        assert table.support == (2, 3, 4, 5, 6, 7)
        assert table.counts == (53, 183, 287, 267, 160, 64)
        assert table.total == 1014

    def test_size_one_is_degenerate_at_one(self):
        for family in ("fishburn", "row-fishburn", "self-dual"):
            table = distribution(family, "first_row", ALL, 1)
            assert table.support == (1,)
            assert table.pmf == (Fraction(1),)

    def test_pmf_normalises_exactly(self):
        table = distribution("row-fishburn", "ones", ALL, 25)
        assert sum(table.pmf) == 1
        assert all(p > 0 for p in table.pmf)

    def test_moments_match_direct_sums(self):
        table = distribution("self-dual", "diagonal", ALL, 20)
        m1 = sum(Fraction(s) * p for s, p in zip(table.support, table.pmf))
        m2 = sum(Fraction(s) ** 2 * p for s, p in zip(table.support, table.pmf))
        assert table.mean == m1
        assert table.variance == m2 - m1 * m1

    def test_zero_count_size_is_an_error(self):
        with pytest.raises(ValueError, match="no fishburn matrices"):
            distribution("fishburn", "first_row", M2, 3)
        for n in (7, 9):  # purely even entries leave every odd size empty
            with pytest.raises(ValueError, match="no fishburn matrices"):
                distribution("fishburn", "twos", EVEN2, n)

    def test_budget_is_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            distribution("fishburn", "first_row", ALL, 151)

    def test_ones_needs_ones_in_the_multiset(self):
        with pytest.raises(ValueError, match="value 1"):
            distribution("fishburn", "ones", NO1, 10)

    @given(st.sampled_from(CELLS), st.integers(min_value=2, max_value=14))
    @settings(max_examples=25, deadline=None)
    def test_table_invariants(self, cell, n):
        family, stat, lam = cell
        try:
            table = distribution(family, stat, lam, n)
        except ValueError:
            assume(False)
        assert sum(table.pmf) == 1
        assert list(table.support) == sorted(set(table.support))
        assert all(c > 0 for c in table.counts)
        assert sum(table.counts) == table.total
        m1 = sum(Fraction(s) * p for s, p in zip(table.support, table.pmf))
        assert table.mean == m1


class TestOracleEquality:
    @pytest.mark.parametrize("family,stat", [
        pytest.param(family, stat, id=f"{stat}-{family}")
        for family, stats in FAMILY_STATS.items() for stat in stats
    ])
    @pytest.mark.parametrize("lam", [ALL, PRIMITIVE], ids=["all", "01"])
    def test_tables_match_exhaustive_enumeration(self, family, stat, lam):
        for n in range(1, 7):
            table = distribution(family, stat, lam, n)
            expected = histogram(enumerate_matrices(family, lam, n), stat)
            assert dict(zip(table.support, table.counts)) == expected


class TestMomentJet:
    @pytest.mark.parametrize("family,stat,lam", [
        ("fishburn", "ones", ALL),
        ("fishburn", "twos", M1),
        ("self-dual", "diagonal", ALL),
        ("row-fishburn", "first_row", ALL),
    ])
    def test_jet_moments_equal_profile_moments(self, family, stat, lam):
        table = distribution(family, stat, lam, 30)
        mean, variance = stat_mean_variance(family, stat, lam, 30)
        assert (mean, variance) == (table.mean, table.variance)
        # the packed moment row itself, against the profile's counts
        pairs = list(zip(table.support, table.counts))
        assert stat_jet(family, stat, lam, 30)[30] == (
            table.total, sum(m * c for m, c in pairs), sum(m * (m - 1) // 2 * c for m, c in pairs))

    def test_jet_budget(self):
        with pytest.raises(ValueError, match="budget"):
            stat_mean_variance("fishburn", "ones", ALL, 401)


# ---------------------------------------------------------------------------
# Limit laws
# ---------------------------------------------------------------------------

class TestLimitLaws:
    def test_ztp_moments_to_twelve_digits(self):
        law = limit_law_for("row-fishburn", "first_row", ALL, 40)
        assert law.kind == "ztp"
        log2 = mp.log(2)
        assert abs(law.mean() - 2 * log2) < mp.mpf("1e-13")
        assert abs(law.variance() - 2 * log2 * (1 - log2)) < mp.mpf("1e-13")

    def test_ztp_pmf_starts_at_one(self):
        law = limit_law_for("row-fishburn", "first_row", ALL, 10)
        assert law.pmf(0) == 0
        # e^log2 - 1 = 1, so P(X=1) collapses to the bare rate.
        assert abs(law.pmf(1) - mp.log(2)) < mp.mpf("1e-25")
        assert abs(mp.fsum(law.support_probs().values()) - 1) < mp.mpf("1e-15")

    def test_poisson_rates_per_family(self):
        row = limit_law_for("row-fishburn", "ones", ALL, 30)
        full = limit_law_for("fishburn", "ones", ALL, 30)
        assert abs(row.rate - mp.pi ** 2 / 12) < mp.mpf("1e-30")
        assert abs(full.rate - mp.pi ** 2 / 6) < mp.mpf("1e-30")
        assert (row.shift, row.slope) == (Fraction(15), Fraction(-1, 2))

    def test_twos_share_the_ones_rate_untransformed(self):
        ones = limit_law_for("fishburn", "ones", ALL, 30)
        twos = limit_law_for("fishburn", "twos", ALL, 30)
        assert twos.rate == ones.rate
        assert (twos.shift, twos.slope) == (Fraction(0), Fraction(1))

    def test_normal_cells(self):
        diag = limit_law_for("fishburn", "diagonal", ALL, 50)
        assert diag.kind == "normal"
        assert abs(diag.center - 2 * mp.log(50)) < mp.mpf("1e-30")
        assert diag.center == diag.spread
        half = limit_law_for("self-dual", "diagonal", ALL, 50)
        assert half.slope == Fraction(1, 2)
        assert abs(half.center - mp.log(50)) < mp.mpf("1e-30")

    def test_self_dual_convolution_components(self):
        law = limit_law_for("self-dual", "ones", ALL, 24)
        assert law.kind == "convolution"
        (s1, r1), (s2, r2) = law.components
        assert (s1, s2) == (2, 4)
        assert abs(r1 - mp.log(2)) < mp.mpf("1e-30")
        assert abs(r2 - mp.pi ** 2 / 12) < mp.mpf("1e-30")
        # mean = 2a + 4b, variance = 4a + 16b
        assert abs(law.mean() - (2 * r1 + 4 * r2)) < mp.mpf("1e-30")
        assert abs(law.variance() - (4 * r1 + 16 * r2)) < mp.mpf("1e-30")

    def test_convolution_table_mass_and_lattice(self):
        law = limit_law_for("self-dual", "ones", ALL, 24)
        table = law.support_probs()
        assert mp.fsum(table.values()) >= 1 - mp.mpf("1e-12")
        assert all(x % 2 == 0 for x in table)

    def test_degenerate_when_twos_are_barred(self):
        ones = limit_law_for("fishburn", "ones", PRIMITIVE, 9)
        assert ones.kind == "degenerate" and ones.point == 9
        twos = limit_law_for("row-fishburn", "twos", PRIMITIVE, 9)
        assert twos.kind == "degenerate" and twos.point == 0

    def test_root_n_normal_when_threes_allowed(self):
        law = limit_law_for("fishburn", "twos", M1, 100)
        assert law.kind == "normal"
        tau = mp.pi / (2 * mp.sqrt(3))
        assert abs(law.center - tau * 10) < mp.mpf("1e-30")
        assert law.center == law.spread
        assert (law.shift, law.slope) == (Fraction(100, 3), Fraction(-2, 3))

    def test_shifted_poisson_when_threes_are_barred(self):
        even = limit_law_for("fishburn", "twos", M2, 60)
        odd = limit_law_for("fishburn", "twos", M2, 59)
        assert even.kind == odd.kind == "poisson"
        assert abs(even.rate - mp.pi ** 2 / 6) < mp.mpf("1e-30")
        assert even.shift == Fraction(15)
        assert odd.shift == Fraction(59 - 5, 4)
        assert even.slope == odd.slope == Fraction(-1, 2)
        assert even.rate == odd.rate

    def test_degenerate_when_fours_are_barred_too(self):
        law = limit_law_for("fishburn", "twos", LambdaSpec("custom", (0, 1, 0, 0, 1)), 20)
        assert law.kind == "degenerate"
        assert law.point == 0 and law.slope == Fraction(-1, 2)

    @pytest.mark.parametrize("build", [
        lambda: limit_law_for("row-fishburn", "diagonal", M2, 10),
        lambda: limit_law_for("self-dual", "first_row", M2, 10),
        lambda: limit_law_for("self-dual", "twos", ALL, 10),
        lambda: limit_law_for("fishburn", "ones", M2, 10),
        lambda: limit_law_for("fishburn", "twos", EVEN2, 9),
    ])
    def test_uncovered_regimes_raise(self, build):
        with pytest.raises(ValueError):
            build()

    def test_law_validation(self):
        with pytest.raises(ValueError, match="kind"):
            LimitLaw("gamma")
        with pytest.raises(ValueError, match="invertible"):
            LimitLaw("poisson", slope=Fraction(0), rate=mp.mpf(1))

    @given(st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_poisson_table_mass_and_mean(self, rate):
        law = LimitLaw("poisson", rate=mp.mpf(rate))
        table = law.support_probs()
        mass = mp.fsum(table.values())
        mean = mp.fsum(x * p for x, p in table.items())
        assert mass > 1 - mp.mpf("1e-15")
        assert abs(mean - law.mean()) < mp.mpf("1e-14")


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

class TestCompare:
    def test_degenerate_against_degenerate_is_zero(self):
        # The 1s count without 2s, and the 2s count with 2s the only entry.
        for stat, lam, n in (("ones", PRIMITIVE, 12), ("twos", EVEN2, 8)):
            table = distribution("fishburn", stat, lam, n)
            law = limit_law_for("fishburn", stat, lam, n)
            assert law.kind == "degenerate"
            report = compare(table, law)
            assert report.sup_distance == 0
            assert report.total_variation == 0
            assert report.mean_gap == 0
            assert report.variance_gap == 0

    def test_row_first_row_close_to_ztp(self):
        table = distribution("row-fishburn", "first_row", ALL, 40)
        law = limit_law_for("row-fishburn", "first_row", ALL, 40)
        report = compare(table, law)
        assert report.sup_distance < mp.mpf("0.003")
        assert report.total_variation < mp.mpf("0.004")
        assert report.mean_gap < mp.mpf("0.005")

    @pytest.mark.parametrize("family,stat,lam", [c for c in CELLS if c not in (
        ("fishburn", "first_row", NO1),
        ("self-dual", "diagonal", ALL),
    )], ids=lambda c: "-" if not isinstance(c, str) else c)
    def test_sup_distance_shrinks_from_15_to_30(self, family, stat, lam):
        assert sup_at(family, stat, lam, 30) < sup_at(family, stat, lam, 15)

    def test_two_cells_dip_only_beyond_30(self):
        # The first-row law without 1s and the self-dual diagonal law wobble
        # upward between 15 and 30 before settling; the decrease holds from
        # 15 to 60 and from 30 to 60.
        for family, stat, lam in (
            ("fishburn", "first_row", NO1),
            ("self-dual", "diagonal", ALL),
        ):
            d15 = sup_at(family, stat, lam, 15)
            d30 = sup_at(family, stat, lam, 30)
            d60 = sup_at(family, stat, lam, 60)
            assert d60 < d30
            assert d60 < d15

    def test_row_diagonal_mean_prediction_at_60(self):
        table = distribution("row-fishburn", "diagonal", ALL, 60)
        predicted = mp.log(60) + mp.euler + mp.log(12 / mp.pi ** 2)
        assert abs(as_mpf(table.mean) - predicted) < mp.mpf("0.1")

    def test_first_row_mean_prediction_tightens(self):
        gaps = []
        for n in (30, 60):
            table = distribution("fishburn", "first_row", ALL, n)
            predicted = mp.log(n) + mp.euler - mp.log(mp.pi ** 2 / 6)
            gaps.append(abs(as_mpf(table.mean) - predicted))
        assert gaps[1] < gaps[0]

    def test_row_ones_mean_near_rate_at_150(self):
        mean, _ = stat_mean_variance("row-fishburn", "ones", ALL, 150)
        shifted = (150 - mean) / 2
        assert abs(as_mpf(shifted) / (mp.pi ** 2 / 12) - 1) < mp.mpf("0.02")

    def test_normal_metrics_cover_the_mass(self):
        table = distribution("fishburn", "diagonal", ALL, 40)
        law = limit_law_for("fishburn", "diagonal", ALL, 40)
        report = compare(table, law)
        assert 0 < report.sup_distance < report.total_variation < 1


# ---------------------------------------------------------------------------
# Parity behavior without 1s
# ---------------------------------------------------------------------------

class TestParity:
    def test_root_n_mean_converges_slowly(self):
        # The centering tau*sqrt(n) carries an O(1) correction around -2.4,
        # so the relative gap is still about 0.21 at n=150; it shrinks
        # monotonically (0.33 at n=50, 0.16 at n=300).
        tau = mp.pi / (2 * mp.sqrt(3))
        rels = []
        for n in (50, 100, 150):
            mean, _ = stat_mean_variance("fishburn", "twos", M1, n)
            shifted = (n - 2 * mean) / 3
            rels.append(abs(as_mpf(shifted) / (tau * mp.sqrt(n)) - 1))
        assert rels[2] < rels[1] < rels[0]
        assert rels[2] < mp.mpf("0.25")

    def test_report_m2_distance_decreases_per_parity(self):
        # Total variation to the shifted Poisson law falls from n = 30 to 60
        # on each parity; check_parity_split asserts the even sizes too.
        tv = {n: compare(distribution("fishburn", "twos", M2, n),
                         limit_law_for("fishburn", "twos", M2, n)).total_variation
              for n in (29, 30, 59, 60)}
        assert tv[60] < tv[30]
        assert tv[59] < tv[29]

    def test_zstar_observed_mean_tracks_the_rate(self):
        # Z* at n = 60 and 61 should sit near its Poisson rate pi^2/6.
        for n in (60, 61):
            mean, _ = stat_mean_variance("fishburn", "twos", M2, n)
            zstar_mean = limit_law_for("fishburn", "twos", M2, n).transform(mean)
            assert abs(as_mpf(zstar_mean) - mp.pi ** 2 / 6) < mp.mpf("0.4")


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

class TestExports:
    def test_histogram_rows_against_law(self):
        table = distribution("row-fishburn", "first_row", ALL, 20)
        law = limit_law_for("row-fishburn", "first_row", ALL, 20)
        rows = histogram_rows(table, law)
        assert [r[0] for r in rows] == list(table.support)
        assert all(abs(exact - limit) < mp.mpf("0.05")
                   for _, exact, limit in (
                       (v, as_mpf(p), q) for v, p, q in rows))

    def test_report_json_payload(self):
        table = distribution("fishburn", "first_row", ALL, 7)
        law = limit_law_for("fishburn", "first_row", ALL, 7)
        payload = json.loads(report_json(table, law))
        assert payload["schema"] == "fishburn.distribution/1"
        assert payload["total"] == "1014"
        assert [Fraction(p) for p in payload["pmf"]] == list(table.pmf)
        assert payload["law"]["kind"] == "normal"
        assert "sup_distance" in payload["metrics"]

    def test_report_json_minimal(self):
        table = distribution("fishburn", "first_row", ALL, 4)
        payload = json.loads(report_json(table))
        assert "law" not in payload and "metrics" not in payload

    def test_each_bin_edge_takes_one_cdf(self, monkeypatch):
        table = distribution("fishburn", "first_row", ALL, 60)
        law = limit_law_for("fishburn", "first_row", ALL, 60)
        calls = []
        ncdf = mp.ncdf
        monkeypatch.setattr(mp, "ncdf", lambda x: calls.append(x) or ncdf(x))
        histogram_rows(table, law)
        edges = {s + d for s in table.support for d in (0, 1)}
        assert 0 < len(calls) <= len(edges)
        assert len(set(calls)) == len(calls)
        calls.clear()
        compare(table, law)
        assert calls and len(set(calls)) == len(calls)

    @pytest.mark.parametrize("family,stat,n", [
        ("fishburn", "first_row", 60),
        ("fishburn", "diagonal", 30),
        ("self-dual", "diagonal", 60),
    ])
    def test_limit_pmf_is_the_difference_of_two_cdfs(self, family, stat, n):
        table = distribution(family, stat, ALL, n)
        law = limit_law_for(family, stat, ALL, n)
        rows = histogram_rows(table, law)
        with mp.workdps(_DPS):
            mu = (law.center - as_mpf(law.shift)) / as_mpf(law.slope)
            sd = mp.sqrt(law.spread) / abs(as_mpf(law.slope))
            half = mp.mpf(1) / 2
            for s, _, limit in rows:
                assert limit == (mp.ncdf((s + half - mu) / sd)
                                 - mp.ncdf((s - half - mu) / sd))

    def test_zero_spread_law_is_a_point_mass(self):
        # N(log 1, log 1) at n = 1: all of its mass sits on the bin of 0,
        # while the one matrix has first row sum 1.
        table = distribution("fishburn", "first_row", ALL, 1)
        law = limit_law_for("fishburn", "first_row", ALL, 1)
        assert law.spread == 0
        assert histogram_rows(table, law) == [(1, 1, 0)]
        report = compare(table, law)
        assert report.sup_distance == report.total_variation == 1

    def test_normal_law_has_no_lattice_pmf(self):
        law = limit_law_for("fishburn", "diagonal", ALL, 12)
        with pytest.raises(TypeError, match="density"):
            law.support_probs()


TREND_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "limit_law_trends.py"


def test_trend_script_sweeps_every_cell():
    proc = subprocess.run([sys.executable, str(TREND_SCRIPT), "--sizes", "15"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split(",") for line in proc.stdout.splitlines()]
    assert header == ["family", "stat", "entries", "n", "sup_distance", "total_variation"]
    assert [row[:4] for row in rows] == [
        [family, stat, lam.describe(), "15"] for family, stat, lam in TREND_CELLS]
