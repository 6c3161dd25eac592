import pytest
from fractions import Fraction
from math import comb, factorial

from hypothesis import assume, given, settings, strategies as st

import fishburn.families as families
import fishburn.series as series
from fishburn.checks import DIAGONAL_TRIANGLE, FIRST_ROW_TRIANGLE
from fishburn.series import (
    TruncatedSeries,
    bernoulli_numbers,
    exp_linear,
    jet_marker,
    monomial_marker,
)
from fishburn.families import (
    ALL,
    NAMED_IDS,
    PRIMITIVE,
    LambdaSpec,
    family_gf,
    family_series,
    fishburn_gf,
    fishburn_numbers,
    labeled_numbers,
    labeled_profile,
    lambda_atom,
    lambda_series,
    named_entry,
    named_gf,
    named_sequence,
    recursive_gf,
    row_fishburn_gf,
    self_dual_gf,
    stat_gf,
    stat_jet,
    stat_profile,
    variant_gf,
)
from fishburn.families import (
    _VARIANT_BUILDERS,
    _bernoulli_egf,
    _two_each_series,
    r_at_one_minus,
    ramanujan_r,
)


# Known prefixes of the main counting sequences.
FISHBURN = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]
ROW = [1, 1, 3, 12, 61, 380, 2815]
ROW_01 = [1, 1, 2, 7, 33, 197, 1419]
SELF_DUAL = [1, 1, 2, 3, 7, 13, 33]
SELF_DUAL_01 = [1, 1, 1, 2, 3, 6, 13]


def ints(f, count):
    return [int(f.coeff(n)) for n in range(count)]


class TestFamilyPrefixes:
    def test_fishburn(self):
        assert ints(fishburn_gf(ALL, 9), 10) == FISHBURN

    def test_fishburn_direct_form(self):
        assert ints(fishburn_gf(ALL, 9, form="direct"), 10) == FISHBURN

    def test_row(self):
        assert ints(row_fishburn_gf(ALL, 6), 7) == ROW

    def test_row_primitive(self):
        assert ints(row_fishburn_gf(PRIMITIVE, 6), 7) == ROW_01

    def test_self_dual(self):
        assert ints(self_dual_gf(ALL, 6), 7) == SELF_DUAL

    def test_self_dual_primitive(self):
        assert ints(self_dual_gf(PRIMITIVE, 6), 7) == SELF_DUAL_01

    def test_family_gf_dispatch_and_aliases(self):
        assert family_gf("row", ALL, 5) == row_fishburn_gf(ALL, 5)
        assert family_gf("selfdual", ALL, 5) == self_dual_gf(ALL, 5)
        with pytest.raises(ValueError, match="unknown family"):
            family_gf("upper-triangular", ALL, 5)

    def test_family_series_cached(self):
        a = family_series("fishburn", ALL, 40)
        b = family_series("fishburn", ALL, 40)
        assert a is b

    def test_fishburn_numbers_fast_path(self):
        assert list(fishburn_numbers(9)) == FISHBURN

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError, match="identically 1"):
            fishburn_gf(LambdaSpec("custom", ()), 10)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown form"):
            fishburn_gf(ALL, 5, form="euler")


class TestLambdaSpec:
    def test_named_weights(self):
        assert [LambdaSpec("odd").weight(i) for i in range(6)] == [1, 1, 0, 1, 0, 1]
        assert [LambdaSpec("even+").weight(i) for i in range(6)] == [1, 0, 1, 0, 1, 0]
        assert [LambdaSpec("no1").weight(i) for i in range(5)] == [1, 0, 1, 1, 1]
        assert [LambdaSpec("012").weight(i) for i in range(5)] == [1, 1, 1, 0, 0]

    def test_custom_strips_trailing_zeros(self):
        assert LambdaSpec("custom", (1, 0, 2, 0, 0)).weights == (1, 0, 2)

    def test_custom_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LambdaSpec("custom", (1, -1))

    def test_named_tag_with_weights_rejected(self):
        with pytest.raises(ValueError):
            LambdaSpec("odd", (1, 2))

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown multiset tag"):
            LambdaSpec("evens")

    @pytest.mark.parametrize(
        "text,tag", [("all", "all"), (" 01 ", "01"), ("even+", "even+")]
    )
    def test_parse_named(self, text, tag):
        assert LambdaSpec.parse(text).tag == tag

    def test_parse_custom(self):
        assert LambdaSpec.parse("1,0,2").weights == (1, 0, 2)

    def test_parse_garbage(self):
        with pytest.raises(ValueError, match="cannot parse"):
            LambdaSpec.parse("1,-2")

    def test_smallest_entry(self):
        assert LambdaSpec("even+").smallest_entry() == 2
        assert LambdaSpec("custom", (0, 0, 5)).smallest_entry() == 3
        assert LambdaSpec("custom", ()).smallest_entry() is None

    @pytest.mark.parametrize(
        "spec", [LambdaSpec(t) for t in ("all", "01", "012", "odd", "even+", "no1")]
        + [LambdaSpec("custom", w) for w in ((), (0, 1), (0, 2, 0, 0, 1), (1, 1))],
    )
    def test_smallest_odd_entry(self, spec):
        odd = [i for i in range(1, 200, 2) if spec.weight(i)]
        assert spec.smallest_odd_entry() == (odd[0] if odd else None)

    def test_series_matches_weights(self):
        sp = LambdaSpec("custom", (2, 0, 1))
        assert lambda_series(sp, 5).coeffs == (1, 2, 0, 1, 0, 0)


class TestDuality:
    """Substituting z -> z/(1+z) turns the general family into the primitive
    one (an inclusion-exclusion on which entries stay positive)."""

    @pytest.mark.parametrize("family", ["row-fishburn", "fishburn"])
    def test_general_to_primitive(self, family):
        n = 12
        gen = family_gf(family, ALL, n)
        prim = family_gf(family, PRIMITIVE, n)
        assert gen.substitute_mobius(1) == prim

    @pytest.mark.parametrize("family", ["row-fishburn", "fishburn"])
    def test_primitive_to_general(self, family):
        n = 12
        gen = family_gf(family, ALL, n)
        prim = family_gf(family, PRIMITIVE, n)
        assert prim.substitute_mobius(-1) == gen


MARGINAL_CASES = [
    (fam, stat, spec)
    for fam in ("row-fishburn", "fishburn", "self-dual")
    for stat in ("first_row", "diagonal", "ones", "twos")
    for spec in (ALL, PRIMITIVE, LambdaSpec("012"))
    if not (fam == "self-dual" and stat == "twos")
]


class TestStatSeries:
    @pytest.mark.parametrize("family,stat,spec", MARGINAL_CASES)
    def test_v_equals_one_marginalizes(self, family, stat, spec):
        g = stat_gf(family, stat, spec, 9)
        assert g.at_v_one() == family_gf(family, spec, 9)

    @pytest.mark.parametrize("stat", ["first_row", "diagonal", "ones", "twos"])
    def test_fishburn_dual_representations(self, stat):
        a = stat_gf("fishburn", stat, ALL, 10, form="product")
        b = stat_gf("fishburn", stat, ALL, 10, form="direct")
        assert a == b

    def test_direct_form_only_for_fishburn(self):
        with pytest.raises(ValueError, match="direct representation"):
            stat_gf("row-fishburn", "first_row", ALL, 5, form="direct")

    def test_self_dual_twos_unsupported(self):
        with pytest.raises(ValueError, match="no 2s-marking"):
            stat_gf("self-dual", "twos", ALL, 5)

    def test_ones_needs_ones(self):
        with pytest.raises(ValueError, match="requires the value 1"):
            stat_gf("row-fishburn", "ones", LambdaSpec("even+"), 5)

    def test_unknown_stat(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            stat_gf("fishburn", "trace", ALL, 5)

    def test_first_row_extraction_values(self):
        # size-4 matrices: 15 in total, 5 of them with a single unit up front
        g = stat_profile("fishburn", "first_row", ALL, 4)
        assert int(g.at_v_one().coeff(4)) == 15
        assert int(g.coeff_vm(4, 1)) == 5

    def test_primitive_ones_follow_size(self):
        # for {0,1} entries every unit is a 1, so v tracks z exactly
        g = stat_profile("row-fishburn", "ones", PRIMITIVE, 6)
        for n in range(7):
            for m, c in enumerate(g.coeff(n)):
                assert c == 0 or m == n

    def test_jet_matches_profile_moments(self):
        n = 8
        prof = stat_profile("fishburn", "diagonal", ALL, n)
        jet = stat_gf("fishburn", "diagonal", ALL, n, jet_marker(2))
        row = prof.coeff(n)
        total = sum(row)
        mean_num = sum(m * c for m, c in enumerate(row))
        # jet coefficient of eps^1 is sum_m binom(m,1) * count_m
        assert jet.coeff_vm(n, 0) == total
        assert jet.coeff_vm(n, 1) == mean_num

    def test_row_first_row_hand_count(self):
        # size 3, rows nonzero, any entries: 1 matrix of dim 1 (first row 3),
        # 3+2 of dim 2 (first row 2 resp. 1), 6 of dim 3 (first row 1)
        g = stat_profile("row-fishburn", "first_row", ALL, 3)
        assert [int(g.coeff_vm(3, k)) for k in range(4)] == [0, 8, 3, 1]


STAT_CASES = [
    (fam, stat, form)
    for fam in ("row-fishburn", "fishburn", "self-dual")
    for stat in ("first_row", "diagonal", "ones", "twos")
    for form in (("product", "direct") if fam == "fishburn" else ("product",))
    if not (fam == "self-dual" and stat == "twos")
]


class TestOrderZero:
    @pytest.mark.parametrize("family,stat,form", STAT_CASES)
    @pytest.mark.parametrize("marker", [monomial_marker(), jet_marker(2)])
    def test_stat_gf(self, family, stat, form, marker):
        g = stat_gf(family, stat, ALL, 0, marker, form)
        assert g == marker.lift(TruncatedSeries.one(0))

    @pytest.mark.parametrize("family", ["row-fishburn", "fishburn", "self-dual"])
    def test_family_gf(self, family):
        assert family_gf(family, ALL, 0) == TruncatedSeries.one(0)

    @pytest.mark.parametrize("kind", sorted(_VARIANT_BUILDERS))
    def test_variant_gf(self, kind):
        assert variant_gf(kind, 0) == variant_gf(kind, 4).truncate(0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: recursive_gf("A186737", n),
            lambda n: recursive_gf("A224885", n),
            ramanujan_r,
            r_at_one_minus,
        ],
    )
    def test_order_zero_constructors(self, build):
        assert build(0) == build(4).truncate(0)

    @pytest.mark.parametrize(
        "name",
        [
            "A003406", "A035378", "A186737", "A207386", "A207397", "A207556",
            "A207557", "A207569", "A207570", "A207571", "A207651", "A207652",
            "A207653", "A224885", "A289312",
        ],
    )
    def test_first_term_alone(self, name):
        assert named_sequence(name, 1) == named_sequence(name, 5)[:1]


# Bivariate products per stat_gf(family, stat, ALL, 30) with the monomial
# marker before the builders shared one running-power helper.  A builder that
# needs more has started to carry a marked (dense) running power.
BV_PRODUCTS_AT_30 = {
    ("row-fishburn", "first_row"): 91,
    ("row-fishburn", "diagonal"): 90,
    ("row-fishburn", "ones"): 60,
    ("row-fishburn", "twos"): 60,
    ("fishburn", "first_row"): 76,
    ("fishburn", "diagonal"): 76,
    ("fishburn", "ones"): 61,
    ("fishburn", "twos"): 61,
    ("self-dual", "first_row"): 61,
    ("self-dual", "diagonal"): 61,
    ("self-dual", "ones"): 46,
}


@pytest.mark.parametrize("family,stat", sorted(BV_PRODUCTS_AT_30))
def test_bivariate_products_do_not_grow(family, stat, monkeypatch):
    calls = [0]
    kernel = series._bv_mul_into

    def counting(a, b, order):
        calls[0] += 1
        return kernel(a, b, order)

    monkeypatch.setattr(series, "_bv_mul_into", counting)
    stat_gf(family, stat, ALL, 30, monomial_marker())
    assert 0 < calls[0] <= BV_PRODUCTS_AT_30[family, stat]


def test_jets_make_no_bivariate_products(monkeypatch):
    calls = {"_mul_into": 0, "_bv_mul_into": 0}
    for name in calls:
        kernel = getattr(series, name)

        def counting(a, b, order, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(a, b, order)

        monkeypatch.setattr(series, name, counting)
    for family, stat, form in STAT_CASES:
        stat_gf(family, stat, ALL, 12, jet_marker(2), form)
    assert calls["_bv_mul_into"] == 0
    assert calls["_mul_into"] > 0


class TestDistributionTables:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_first_row_table(self, n):
        g = stat_profile("fishburn", "first_row", ALL, 7)
        got = tuple(int(g.coeff_vm(n, k)) for k in range(1, n + 1))
        assert got == FIRST_ROW_TRIANGLE[n - 1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_diagonal_table(self, n):
        g = stat_profile("fishburn", "diagonal", ALL, 7)
        got = {k: int(g.coeff_vm(n, k)) for k in range(1, n + 1) if g.coeff_vm(n, k)}
        assert got == DIAGONAL_TRIANGLE[n - 1]

    def test_rows_sum_to_family_counts(self):
        g = stat_profile("fishburn", "diagonal", ALL, 7)
        for n in range(1, 8):
            assert sum(g.coeff(n)) == FISHBURN[n]


class TestRecursive:
    def test_substitution_fixed_point_prefix(self):
        assert ints(recursive_gf("A186737", 5), 6) == [1, 1, 3, 14, 82, 563]

    def test_self_referential_fixed_point_prefix(self):
        assert ints(recursive_gf("A224885", 5), 6) == [1, 1, 2, 15, 143, 1552]

    def test_fixed_point_is_stable(self):
        f = recursive_gf("A186737", 10)
        base = TruncatedSeries.one(10) + TruncatedSeries.x(10) * f
        st = [TruncatedSeries.one(10)]

        def factor(j, room):
            p = st[0].truncate(room) * base.truncate(room)
            st[0] = p
            return p - TruncatedSeries.one(room)

        from fishburn.series import sum_product

        assert sum_product(factor, 10) == f

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown recursive kind"):
            recursive_gf("A000001", 5)


class TestVariants:
    def test_bernoulli_weight(self):
        # the weight series in the factorial-normalized variant is z/(e^z-1)
        d = _bernoulli_egf(12)
        bern = bernoulli_numbers(12)
        for n in range(13):
            assert d.coeff(n) == bern[n] / factorial(n)

    def test_log_derivative_terms(self):
        # b_n = n a_n - sum b_j a_{n-j}, with a the binomial-weight row counts
        b = named_sequence("A207434", 8)
        f = row_fishburn_gf(
            TruncatedSeries([1, 1] + [0] * 7, 8), 8
        )
        a = ints(f, 9)
        for n in range(1, 9):
            assert b[n - 1] == n * a[n] - sum(
                b[j - 1] * a[n - j] for j in range(1, n)
            )

    def test_two_each_weight_series(self):
        # (1+z)/(1-z) expands with every positive weight equal to 2
        f = _two_each_series(6)
        opz = TruncatedSeries([1, 1, 0, 0, 0, 0, 0], 6)
        omz = TruncatedSeries([1, -1, 0, 0, 0, 0, 0], 6)
        assert f == opz * omz.inv()

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant kind"):
            variant_gf("A000042", 5)


class TestCatalog:
    def test_catalog_size(self):
        assert len(NAMED_IDS) == 34

    @pytest.mark.parametrize("name", NAMED_IDS)
    def test_terms_are_integers(self, name):
        terms = named_sequence(name, 12)
        assert len(terms) == 12
        assert all(isinstance(t, int) for t in terms)

    def test_named_gf_matches_sequence(self):
        f = named_gf("A158691", 6)
        assert ints(f, 7) == named_sequence("A158691", 7) == ROW

    def test_egf_scaling(self):
        entry = named_entry("A158690")
        f = entry.build(4)
        assert named_sequence("A158690", 5) == [
            int(factorial(n) * f.coeff(n)) for n in range(5)
        ]

    def test_terms_only_entries_reject_gf(self):
        with pytest.raises(ValueError, match="no single defining series"):
            named_gf("A002439", 5)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown sequence id"):
            named_entry("A999999")

    def test_triangle_layout(self):
        # flattened rows (n, k) with 1 <= k <= n
        flat = named_sequence("A175579", 10)
        assert flat == [1, 1, 1, 2, 2, 1, 5, 6, 3, 1]


class TestLabeledFastPath:
    def test_totals_match_kernel(self):
        totals = labeled_numbers(20)
        f = variant_gf("A158690-form1", 20)
        for n in range(21):
            assert totals[n] == factorial(n) * f.coeff(n)

    def test_rows_are_partial_products(self):
        _, rows = labeled_profile(12)
        prod = TruncatedSeries.one(12)
        for k in range(1, 13):
            prod = prod * (exp_linear(k, 12) - TruncatedSeries.one(12))
            for n in range(k, 13):
                assert rows[n][k] == factorial(n) * prod.coeff(n)

    def test_row_sums(self):
        totals, rows = labeled_profile(15)
        for n in range(16):
            assert totals[n] == sum(rows[n])

    def test_smaller_profile_is_sliced_from_a_larger_build(self, monkeypatch):
        fresh = families._labeled_build(23)
        labeled_profile(37)

        def no_recurrence(n_max):
            raise AssertionError(f"labeled recurrence rerun for n_max={n_max}")

        monkeypatch.setattr(families, "_labeled_build", no_recurrence)
        assert labeled_profile(23) == fresh


@st.composite
def lambda_specs(draw):
    ws = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5))
    if not any(ws):
        ws[draw(st.integers(0, len(ws) - 1))] = 1
    return LambdaSpec("custom", tuple(ws))


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=4).filter(any),
        st.sampled_from(STAT_CASES),
        st.integers(min_value=0, max_value=10),
    )
    def test_jet_moments_match_profile(self, weights, case, order):
        # eps^t at z^n of the depth-2 jet is sum_m C(m, t) [v^m z^n] profile
        family, stat, form = case
        assume(stat != "ones" or weights[0])
        spec = LambdaSpec("custom", tuple(weights))
        if form == "product":
            jet = stat_jet(family, stat, spec, order, depth=2)
        else:
            jet = stat_gf(family, stat, spec, order, jet_marker(2), form)
        prof = stat_profile(family, stat, spec, order)
        for n in range(order + 1):
            row = prof.coeff(n)
            for t in range(3):
                assert jet.coeff_vm(n, t) == sum(
                    comb(m, t) * c for m, c in enumerate(row)
                )

    @settings(max_examples=25, deadline=None)
    @given(lambda_specs(), st.integers(min_value=1, max_value=10))
    def test_row_counts_nonnegative_and_bounded(self, spec, n):
        f = row_fishburn_gf(spec, n)
        assert all(c >= 0 for c in f.coeffs)
        assert f.coeff(0) == 1

    @settings(max_examples=15, deadline=None)
    @given(lambda_specs(), st.integers(min_value=1, max_value=8))
    def test_fishburn_at_most_row(self, spec, n):
        # column constraints only remove matrices
        row = row_fishburn_gf(spec, n)
        fish = fishburn_gf(spec, n)
        assert all(a <= b for a, b in zip(fish.coeffs, row.coeffs))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=9))
    def test_k_sum_terminates_at_valuation_bound(self, lam2, n):
        # with no 1s allowed, products vanish past k = n/2
        spec = LambdaSpec("custom", (0, lam2))
        f = row_fishburn_gf(spec, n)
        g = lambda_series(spec, n)
        prod = TruncatedSeries.one(n)
        total = TruncatedSeries.one(n)
        p = TruncatedSeries.one(n)
        for j in range(1, n // 2 + 1):
            p = p * g
            prod = prod * (p - TruncatedSeries.one(n))
            total = total + prod
        assert total == f
