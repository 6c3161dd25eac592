import re
import tracemalloc

import pytest
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul

from hypothesis import assume, given, settings, strategies as st

import fishburn.families as families
import fishburn.series as series
from fishburn import identities
from fishburn.checks import DIAGONAL_TRIANGLE, FIRST_ROW_TRIANGLE
from fishburn.series import (
    TruncatedSeries,
    eval_marker,
    exp_linear,
    moment_marker,
)
from fishburn.families import (
    ALL,
    FAMILY_STATS,
    NAMED_IDS,
    PRIMITIVE,
    LambdaSpec,
    family_gf,
    family_series,
    fishburn_numbers,
    labeled_numbers,
    labeled_profile,
    lambda_atom,
    lambda_series,
    named_entry,
    named_gf,
    named_sequence,
    ramanujan_r,
    recursive_gf,
    stat_gf,
    stat_jet,
    stat_profile,
)
from fishburn.families import _bernoulli_egf, _unpack_moments, _unpack_rows


# Known prefixes of the main counting sequences.
FISHBURN = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]
ROW = [1, 1, 3, 12, 61, 380, 2815]
ROW_01 = [1, 1, 2, 7, 33, 197, 1419]
SELF_DUAL = [1, 1, 2, 3, 7, 13, 33]
SELF_DUAL_01 = [1, 1, 1, 2, 3, 6, 13]


def ints(f, count):
    return [int(f.coeff(n)) for n in range(count)]


def build_stat(family, stat, spec, order, marker, form):
    """stat_gf for form "product"; the identities route of the Fishburn
    statistic's direct form for "direct"."""
    if form == "direct":
        return identities._direct_stat(stat, spec, order, marker)
    return stat_gf(family, stat, spec, order, marker)


# Every public builder that takes an order; at order 501 the two
# named_sequence ids build a series of order above count - 1 (2 count for
# A002439, count for A207434).
ORDER_BUILDERS = [
    pytest.param(lambda n: lambda_series(ALL, n), id="lambda_series"),
    pytest.param(lambda n: lambda_atom(ALL, n, eval_marker(2)), id="lambda_atom"),
    pytest.param(lambda n: family_gf("self-dual", ALL, n), id="family_gf"),
    pytest.param(lambda n: identities._direct_family(ALL, n), id="family_gf-direct"),
    pytest.param(lambda n: family_series("row-fishburn", ALL, n), id="family_series"),
    pytest.param(fishburn_numbers, id="fishburn_numbers"),
    pytest.param(lambda n: stat_gf("fishburn", "ones", ALL, n, moment_marker(8)),
                 id="stat_gf"),
    pytest.param(lambda n: stat_profile("fishburn", "ones", ALL, n), id="stat_profile"),
    pytest.param(lambda n: stat_jet("fishburn", "ones", ALL, n), id="stat_jet"),
    pytest.param(lambda n: recursive_gf("A224885", n), id="recursive_gf"),
    pytest.param(lambda n: named_gf("A003406", n), id="named_gf"),
    pytest.param(ramanujan_r, id="ramanujan_r"),
    pytest.param(labeled_profile, id="labeled_profile"),
    pytest.param(labeled_numbers, id="labeled_numbers"),
    pytest.param(lambda n: named_sequence("A002439", n), id="named_sequence-A002439"),
    pytest.param(lambda n: named_sequence("A207434", n), id="named_sequence-A207434"),
]


class TestFamilyPrefixes:
    def test_fishburn(self):
        assert ints(family_gf("fishburn", ALL, 9), 10) == FISHBURN

    def test_fishburn_direct_form(self):
        assert ints(identities._direct_family(ALL, 9), 10) == FISHBURN

    def test_row(self):
        assert ints(family_gf("row-fishburn", ALL, 6), 7) == ROW

    def test_row_primitive(self):
        assert ints(family_gf("row-fishburn", PRIMITIVE, 6), 7) == ROW_01

    def test_self_dual(self):
        assert ints(family_gf("self-dual", ALL, 6), 7) == SELF_DUAL

    def test_self_dual_primitive(self):
        assert ints(family_gf("self-dual", PRIMITIVE, 6), 7) == SELF_DUAL_01

    def test_family_gf_dispatch_and_aliases(self):
        assert family_gf("row", ALL, 5) == family_gf("row-fishburn", ALL, 5)
        assert family_gf("selfdual", ALL, 5) == family_gf("self-dual", ALL, 5)
        with pytest.raises(ValueError, match="unknown family"):
            family_gf("upper-triangular", ALL, 5)

    def test_family_series_cached(self):
        family_series.cache_clear()  # a smaller order is cut afresh from a larger build
        a = family_series("fishburn", ALL, 40)
        b = family_series("fishburn", ALL, 40)
        assert a is b

    def test_aliases_share_the_canonical_cache_entry(self):
        for cache in (family_series, stat_profile, stat_jet):
            cache.cache_clear()
        assert family_series("row", ALL, 40) is family_series("row-fishburn", ALL, 40)
        assert stat_profile("row", "ones", ALL, 12) is stat_profile(
            "row-fishburn", "ones", ALL, 12
        )
        assert stat_jet("selfdual", "ones", ALL, 12) is stat_jet(
            "self-dual", "ones", ALL, 12
        )

    def test_library_series_budget(self):
        budget = families._SERIES_BUDGET
        assert budget == 500
        with pytest.raises(ValueError, match=r"order 501 exceeds the series budget \(500\)"):
            family_series("fishburn", ALL, budget + 1)

    def test_library_jet_budget(self):
        with pytest.raises(ValueError, match=r"order 501 exceeds the series budget \(500\)"):
            stat_jet("fishburn", "first_row", ALL, families._SERIES_BUDGET + 1)

    def test_uncached_family_budget(self):
        with pytest.raises(ValueError, match=r"order 501 exceeds the series budget \(500\)"):
            family_gf("fishburn", ALL, families._SERIES_BUDGET + 1)

    def test_uncached_stat_budget(self):
        with pytest.raises(ValueError, match=r"order 501 exceeds the series budget \(500\)"):
            stat_gf("fishburn", "first_row", ALL, families._SERIES_BUDGET + 1,
                    eval_marker(2))

    @pytest.mark.parametrize("build", [
        lambda order: named_gf("A022493", order),
        lambda order: recursive_gf("A186737", order),
        # count terms are the coefficients of a series of order count - 1
        lambda order: named_sequence("A022493", order + 1),
        lambda order: named_sequence("A002439", order + 1),
    ], ids=["named_gf", "recursive_gf", "named_sequence", "named_terms"])
    def test_named_and_variant_budget(self, build):
        with pytest.raises(ValueError, match=r"order 501 exceeds the series budget \(500\)"):
            build(families._SERIES_BUDGET + 1)

    @pytest.mark.parametrize("build", ORDER_BUILDERS)
    def test_every_builder_checks_the_budget(self, build):
        with pytest.raises(ValueError, match=r"exceeds the series budget \(500\)"):
            build(families._SERIES_BUDGET + 1)

    # A bool would be cached as an order; a float fails deep in the build.
    @pytest.mark.parametrize("value", [True, 4.0, 2.5])
    @pytest.mark.parametrize("build", ORDER_BUILDERS)
    def test_every_builder_rejects_a_non_int_order(self, build, value):
        with pytest.raises(ValueError, match=rf"must be an int, got {re.escape(repr(value))}"):
            build(value)

    def test_fishburn_numbers_fast_path(self):
        assert list(fishburn_numbers(9)) == FISHBURN

    def test_empty_multiset_rejected(self):
        empty = LambdaSpec("custom", ())
        with pytest.raises(ValueError, match="identically 1"):
            family_gf("fishburn", empty, 10)
        with pytest.raises(ValueError, match="identically 1"):
            identities.verify_andrews_jelinek(empty, 10)

    def test_unknown_form_rejected(self):
        # each builder builds one route; the direct forms are identities routes
        with pytest.raises(TypeError, match="form"):
            family_gf("fishburn", ALL, 5, form="direct")
        with pytest.raises(TypeError, match="form"):
            stat_gf("fishburn", "ones", ALL, 5, eval_marker(2), form="direct")


class TestLambdaSpec:
    # The rule of each named tag in the --lambda help text, as data: the
    # positive values up to 60 it allows (each once), its smallest entry and
    # its smallest odd entry.
    NAMED_RULES = {
        "all": (range(1, 61), 1, 1),
        "01": ((1,), 1, 1),
        "012": ((1, 2), 1, 1),
        "odd": (range(1, 61, 2), 1, 1),
        "even+": (range(2, 61, 2), 2, None),
        "no1": (range(2, 61), 2, 3),
    }

    def test_named_weights(self):
        assert sorted(self.NAMED_RULES) == sorted(families._NAMED_TAGS)
        for tag, (allowed, smallest, smallest_odd) in self.NAMED_RULES.items():
            spec = LambdaSpec(tag)
            want = [1] + [int(i in allowed) for i in range(1, 61)]
            assert [spec.weight(i) for i in range(61)] == want, tag
            assert spec.smallest_entry() == smallest, tag
            assert spec.smallest_odd_entry() == smallest_odd, tag

    # (weight(10**6), weight(10**6 + 1)) by each tag's rule, and for a list.
    FAR_WEIGHTS = {"all": (1, 1), "01": (0, 0), "012": (0, 0), "odd": (0, 1),
                   "even+": (1, 0), "no1": (1, 1), "1,2": (0, 0)}

    def test_far_weights_need_no_long_expansion(self):
        i = 10 ** 6
        tracemalloc.start()
        try:
            got = {}
            for text in self.FAR_WEIGHTS:
                spec = LambdaSpec.parse(text)
                got[text] = (spec.weight(i), spec.weight(i + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == self.FAR_WEIGHTS
        assert peak < 1 << 20

    def test_custom_strips_trailing_zeros(self):
        assert LambdaSpec("custom", (1, 0, 2, 0, 0)).weights == (1, 0, 2)

    def test_custom_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LambdaSpec("custom", (1, -1))

    @pytest.mark.parametrize("weights", [(1.5, 2), (True,), (1, False), (2, "1")])
    def test_custom_rejects_non_int_weights(self, weights):
        with pytest.raises(ValueError, match="must be ints"):
            LambdaSpec("custom", weights)

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

    # Every named tag and custom lists that start with a 0, a 2 or a 1.
    SPECS = [LambdaSpec(t) for t in ("all", "01", "012", "odd", "even+", "no1")] + [
        LambdaSpec("custom", w) for w in ((), (0, 1), (0, 2, 0, 0, 1), (1, 1))
    ]

    def test_smallest_entry(self):
        assert LambdaSpec("even+").smallest_entry() == 2
        assert LambdaSpec("custom", (0, 0, 5)).smallest_entry() == 3
        assert LambdaSpec("custom", ()).smallest_entry() is None
        for spec in self.SPECS:
            allowed = [i for i in range(1, 200) if spec.weight(i)]
            assert spec.smallest_entry() == (allowed[0] if allowed else None), spec

    @pytest.mark.parametrize("spec", SPECS)
    def test_smallest_odd_entry(self, spec):
        odd = [i for i in range(1, 200, 2) if spec.weight(i)]
        assert spec.smallest_odd_entry() == (odd[0] if odd else None)

    def test_series_matches_weights(self):
        sp = LambdaSpec("custom", (2, 0, 1))
        assert lambda_series(sp, 5).coeffs == (1, 2, 0, 1, 0, 0)

    @pytest.mark.parametrize(
        "spec", SPECS + [LambdaSpec("custom", (3, 0, 0, 2)), LambdaSpec("custom", (1,) * 7)],
        ids=lambda spec: spec.describe(),
    )
    def test_rational_form_expands_to_the_weights(self, spec):
        # P/Q by long division here, not by the series module
        P, Q = spec.rational()
        assert Q[0] == 1
        order = 60
        c = []
        for n in range(order + 1):
            p = P[n] if n < len(P) else 0
            c.append(p - sum(Q[k] * c[n - k] for k in range(1, min(n, len(Q) - 1) + 1)))
        assert c == [spec.weight(i) for i in range(order + 1)]
        assert list(lambda_series(spec, order).coeffs) == c

    def test_finite_multisets_have_denominator_one(self):
        for spec in (PRIMITIVE, LambdaSpec("012"), LambdaSpec("custom", (1, 0, 2))):
            assert spec.rational()[1] == (1,)


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
    for fam, stats in FAMILY_STATS.items()
    for stat in stats
    for spec in (ALL, PRIMITIVE, LambdaSpec("012"))
]


class TestStatSeries:
    @pytest.mark.parametrize("family,stat,spec", MARGINAL_CASES)
    def test_v_equals_one_marginalizes(self, family, stat, spec):
        g = stat_gf(family, stat, spec, 9, eval_marker(1))
        assert g == family_gf(family, spec, 9)

    @pytest.mark.parametrize("stat", ["first_row", "diagonal", "ones", "twos"])
    def test_fishburn_dual_representations(self, stat):
        counts = family_gf("fishburn", ALL, 10).coeffs
        bits = max(counts).bit_length()
        a, b = (
            _unpack_rows(
                build_stat("fishburn", stat, ALL, 10, eval_marker(1 << bits), form),
                counts, bits,
            )
            for form in ("product", "direct")
        )
        assert a == b == stat_profile("fishburn", stat, ALL, 10)
        assert sum(len(row) > 2 for row in a) > 5  # whole v-polynomials compared

    def test_unpack_needs_a_base_above_every_count(self):
        counts = family_gf("fishburn", ALL, 12).coeffs
        bits = max(counts).bit_length()
        packed = stat_gf("fishburn", "first_row", ALL, 12, eval_marker(1 << bits))
        assert sum(map(sum, _unpack_rows(packed, counts, bits))) == sum(counts)
        small = stat_gf("fishburn", "first_row", ALL, 12, eval_marker(1 << 8))
        with pytest.raises(ValueError, match="does not unpack in base 2"):
            _unpack_rows(small, counts, 8)

    def test_self_dual_twos_unsupported(self):
        with pytest.raises(ValueError, match="no 2s-marking"):
            stat_gf("self-dual", "twos", ALL, 5, eval_marker(2))

    def test_ones_needs_ones(self):
        with pytest.raises(ValueError, match="requires the value 1"):
            stat_gf("row-fishburn", "ones", LambdaSpec("even+"), 5, eval_marker(2))

    def test_unknown_stat(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            stat_gf("fishburn", "trace", ALL, 5, eval_marker(2))

    def test_first_row_extraction_values(self):
        # size-4 matrices: 15 in total, 5 of them with a single unit up front
        g = stat_profile("fishburn", "first_row", ALL, 4)
        assert sum(g[4]) == 15
        assert g[4][1] == 5

    def test_primitive_ones_follow_size(self):
        # for {0,1} entries every unit is a 1, so v tracks z exactly
        g = stat_profile("row-fishburn", "ones", PRIMITIVE, 6)
        for n in range(7):
            for m, c in enumerate(g[n]):
                assert c == 0 or m == n

    def test_jet_matches_profile_moments(self):
        n = 8
        prof = stat_profile("fishburn", "diagonal", ALL, n)
        total, f1, f2 = stat_jet("fishburn", "diagonal", ALL, n)[n]
        row = prof[n]
        # digit t of the packed moment row is sum_m binom(m, t) * count_m
        assert total == sum(row)
        assert f1 == sum(m * c for m, c in enumerate(row))
        assert f2 == sum(comb(m, 2) * c for m, c in enumerate(row))

    @pytest.mark.parametrize("family", ["row-fishburn", "fishburn"])
    def test_twos_without_the_value_two_are_zero(self, family):
        spec = LambdaSpec("odd")
        prof = stat_profile(family, "twos", spec, 14)  # the full build at v = 2^K
        assert stat_jet(family, "twos", spec, 14) == tuple((sum(row), 0, 0) for row in prof)
        assert all(len(row) <= 1 for row in prof)
        with pytest.raises(ValueError, match="no 2s-marking series"):
            stat_jet("self-dual", "twos", spec, 14)

    def test_corrupted_moment_count_raises(self):
        n = 12
        counts = list(family_series("fishburn", ALL, n).coeffs)
        marker = moment_marker(max(counts).bit_length() + 2 * n.bit_length() + 2)
        packed = stat_gf("fishburn", "first_row", ALL, n, marker)
        assert _unpack_moments(packed, counts, marker.mod) == stat_jet(
            "fishburn", "first_row", ALL, n)
        counts[7] += 1
        with pytest.raises(ValueError, match="row 7 does not unpack"):
            _unpack_moments(packed, counts, marker.mod)
        counts[7] -= 1
        corrupted = TruncatedSeries(packed.coeffs[:5] + (packed.coeffs[5] - 1,)
                                    + packed.coeffs[6:], n, marker.mod)
        with pytest.raises(ValueError, match="row 5 does not unpack"):
            _unpack_moments(corrupted, counts, marker.mod)

    def test_row_first_row_hand_count(self):
        # size 3, rows nonzero, any entries: 1 matrix of dim 1 (first row 3),
        # 3+2 of dim 2 (first row 2 resp. 1), 6 of dim 3 (first row 1)
        g = stat_profile("row-fishburn", "first_row", ALL, 3)
        assert g[3] == (0, 8, 3, 1)


def _product_route(s):
    """The factors of the general sum s as products, the reference for its
    expansion: factor(j, room) = d_j (x_j - y_j)^alpha, each running power
    advanced by one product per j, read for j = 1, 2, ... in turn."""
    def read(t):
        if isinstance(t, tuple):
            parts = [read(u) for u in t]
            return lambda j, room: sum((f(j, room) for f in parts[1:]), parts[0](j, room))
        if isinstance(t, families.Power):
            held = []

            def power(j, room):
                held[:] = [t.first.truncate(room) if j == 1 else
                           held[0].truncate(room) * t.step.truncate(room)]
                return held[0]
            return power
        return lambda j, room: TruncatedSeries.one(room) if t is None else t.truncate(room)

    x, y, d = read(s.x), read(s.y), None if s.d is None else read(s.d)

    def factor(j, room):
        f = series._power(x(j, room) - y(j, room), s.alpha, None)
        return f if d is None else d(j, room) * f
    return factor


def _record_series(s) -> list:
    """The coefficients that the record of s expands to, at its order and
    reduced by its modulus."""
    pairs, terms = s._record
    out = TruncatedSeries.zero(s.order)
    for e, c in terms:
        t = TruncatedSeries.constant(c, s.order)
        for (P, Q), k in zip(pairs, e):
            t = t * series._rational_series(P, Q, s.order).pow(k)
        out = out + t
    return [c & (-1 if s.mod is None else s.mod.mask) for c in out.coeffs]


def _product_series(s, order):
    out = series.sum_product(_product_route(s), order)
    return out if s.prefactor is None else s.prefactor * out


@st.composite
def general_sums(draw):
    """(GeneralSum, order): x and y each a Power, a fixed series or None, d a
    Power, a sum of powers or None, over a weight series and its atoms with
    exact coefficients or under a moment modulus."""
    order = draw(st.integers(min_value=0, max_value=16))
    spec = draw(st.sampled_from([ALL, PRIMITIVE, LambdaSpec("odd"), LambdaSpec.parse("1,2,1")]))
    marker = draw(st.sampled_from([eval_marker(3), moment_marker(6)]))
    pool = st.sampled_from([families._weight_series(spec, order, marker)] + [
        lambda_atom(spec, order, marker, kind) for kind in ("size", "size-sq", "twos")])
    power = st.builds(families.Power, pool, pool)
    x, y = (draw(st.one_of(st.none(), pool, power)) for _ in "xy")
    d = draw(st.one_of(st.none(), power, st.tuples(power, st.one_of(pool, power))))
    alpha = draw(st.integers(min_value=1, max_value=3))
    prefactor = draw(st.one_of(st.none(), pool))
    return families.GeneralSum(x, y, d, alpha, prefactor), order


class TestGeneralSum:
    """A GeneralSum holds no state: its running powers live in one build."""

    def test_an_instance_builds_twice(self):
        L = lambda_series(ALL, 10)
        s = families._row_sum(L)
        first = s.series(10)
        assert s.series(10) == first == family_gf("row-fishburn", ALL, 10)
        assert s.parts(1, 10)[1] == L

    @pytest.mark.parametrize("family,stat", [
        (family, stat) for family, stats in FAMILY_STATS.items() for stat in stats])
    def test_a_statistic_sum_builds_twice(self, family, stat):
        s = families._stat_sum(family, stat, ALL, 12, eval_marker(3))
        assert s.series(12) == s.series(12)

    @given(general_sums())
    @settings(max_examples=300, deadline=None)
    def test_the_expansion_equals_the_product_form(self, case):
        s, order = case
        got, want = s.series(order), _product_series(s, order)
        assert got.coeffs == want.coeffs and got.mod == want.mod
        assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))
        assert s.series(order) == got
        # each factor: the same coefficients, reduced alike unless x and y
        # share their step (their running powers then merge into one, which a
        # product reduces), and a record that expands to them, as the
        # reference's does; the records differ only where a product drops the
        # terms of a power truncated to zero
        factor, reference = s.factors(order), _product_route(s)
        mask = -1 if got.mod is None else got.mod.mask
        shared = isinstance(s.x, families.Power) and isinstance(s.y, families.Power) and (
            s.x.step is s.y.step)
        for j in range(1, 5):
            f, g = factor(j, order), reference(j, order)
            assert f.coeffs == g.coeffs or shared and [c & mask for c in f.coeffs] == [
                c & mask for c in g.coeffs]
            assert (f._record is None) == (g._record is None)
            assert f._record == g._record or _record_series(f) == [c & mask for c in f.coeffs]

    def test_one_running_power_per_step(self, monkeypatch):
        # x and y share the step L, so (x - y)^2 d expands over the steps
        # L L L, L L, L and 1: three walks per j, where a running power per
        # first would take five; the Fishburn factor over all takes two
        N = 16
        L = lambda_series(ALL, N)
        B = lambda_atom(ALL, N, eval_marker(3), "size")
        shared = families.GeneralSum(families.Power(L, L), (families.Power(B, L), L),
                                     d=(families.Power(B, L), L), alpha=2)
        walks = [0]
        walk = series._mul_record

        def counting(*args):
            walks[0] += 1
            return walk(*args)

        for s, advances in ((shared, 3), (families._andrews_sum(L), 2)):
            factor, reference = s.factors(N), _product_route(s)
            for j, room in zip(range(1, 8), (16, 16, 14, 11, 11, 7, 3)):
                walks[0] = 0
                monkeypatch.setattr(series, "_mul_record", counting)
                f = factor(j, room)
                assert j == 1 or walks[0] == advances
                monkeypatch.undo()
                assert f == reference(j, room)

    @pytest.mark.parametrize("family,stat", [(family, None) for family in FAMILY_STATS] + [
        (family, stat) for family, stats in FAMILY_STATS.items() for stat in stats])
    def test_parts_read_any_j_first(self, family, stat):
        marker = eval_marker(3)
        s = (families._family_sum(family, lambda_series(ALL, 12)) if stat is None
             else families._stat_sum(family, stat, ALL, 12, marker))
        d, x, y = s.parts(2, 9)
        f = series._power(x - y, s.alpha, None)
        reference = _product_route(s)
        reference(1, 12)
        assert (f if d is None else d * f) == reference(2, 9)


STAT_CASES = [
    (fam, stat, form)
    for fam, stats in FAMILY_STATS.items()
    for stat in stats
    for form in (("product", "direct") if fam == "fishburn" else ("product",))
]


custom_specs = st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(
    lambda ws: LambdaSpec("custom", tuple(ws))
)


class TestMarkedAtoms:
    @given(st.one_of(st.sampled_from([LambdaSpec(t) for t in families._NAMED_TAGS]), custom_specs),
           st.sampled_from(sorted(families._ATOM_KINDS)),
           st.sampled_from([eval_marker(1), eval_marker(3), eval_marker(1 << 40),
                            moment_marker(5), moment_marker(40, 1)]),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=300, deadline=None)
    def test_evaluated_atom_records_the_series_of_its_rows(self, spec, kind, marker, order):
        atom = lambda_atom(spec, order, marker, kind)
        # the rows: entry value i on z^{s i} with weight(i) v^{e i}, or v^e for i == t
        s, t, e = families._ATOM_KINDS[kind]
        rows = [1] + [0] * order
        for i in range(1, order // s + 1):
            rows[i * s] = spec.weight(i) * marker.value ** (e * i if t is None else e * (i == t))
        assert atom.mod == marker.mod
        mask = -1 if marker.mod is None else marker.mod.mask
        assert [c & mask for c in atom.coeffs] == [c & mask for c in rows]
        assert set(map(type, atom.coeffs)) == {int}
        pairs, terms = atom._record
        if marker.mod is not None and t is not None:
            # the mark of the value t apart: L(z^s) + w_t (c^e - 1) z^{ts}, the
            # coefficient taken mod M, least in size
            m = marker.mod.mask + 1
            a = (spec.weight(t) * (marker.value**e - 1) + m // 2) % m - m // 2
            want = {tuple(map(tuple, families._atom_rational(spec, s, t, 0, 1))): (1, 1)}
            want.update({((0, 1), (1,)): (t * s, a)} if a and t * s <= order else {})
            assert all(sorted(ex)[:-1] == [0] * (len(ex) - 1) for ex, _ in terms)
            assert {pairs[ex.index(max(ex))]: (max(ex), c) for ex, c in terms} == want
            return
        # the record: atom = P/Q exactly, checked as atom * Q = P on plain series
        ((P, Q),) = pairs
        assert terms == (((1,), 1),) and Q[0] == 1 and P[-1] and Q[-1]
        plain = TruncatedSeries(atom.coeffs, order)
        want = TruncatedSeries(P[: order + 1], order)
        assert [c & mask for c in (plain * TruncatedSeries(Q[: order + 1], order)).coeffs] == [
            c & mask for c in want.coeffs]

    def test_jet_atoms_keep_their_rows(self):
        # a moment atom is the row series at v = 1 + 2^8, reduced modulo 2^24,
        # and records the pair of L(cz), so products by it may take passes
        marker = moment_marker(8)
        atom = lambda_atom(ALL, 10, marker, "size")
        assert atom.mod == marker.mod
        assert atom.coeffs == tuple(marker.value**i & marker.mod.mask for i in range(11))
        assert atom._record == ((((1,), (1, -marker.value)),), (((1,), 1),))


def _record_free(f: TruncatedSeries) -> TruncatedSeries:
    """The same coefficients and modulus without the record."""
    return TruncatedSeries(f.coeffs, f.order, f.mod)


# Every statistic on these multisets, built with the passes and without.
NO_PASS_CASES = [
    (family, stat, text)
    for family, stats in FAMILY_STATS.items()
    for stat in stats
    for text in ("all", "01", "odd", "even+", "no1", "1,1,1")
    if stat != "ones" or LambdaSpec.parse(text).weight(1)
]


@pytest.mark.parametrize("family,stat,text", NO_PASS_CASES)
def test_statistic_series_do_not_depend_on_the_passes(family, stat, text, monkeypatch):
    spec = LambdaSpec.parse(text)
    marker = eval_marker(1 << max(family_series(family, spec, 40).coeffs).bit_length())
    passes = [0]
    walk = series._mul_record

    def counting(*args):
        passes[0] += 1
        return walk(*args)

    def build():
        passes[0] = 0
        return stat_gf(family, stat, spec, 40, marker)

    monkeypatch.setattr(series, "_mul_record", counting)
    got = build()
    assert passes[0] > 0  # every build advances a running power of a weight series
    ruled = passes[0]
    # With the estimate never choosing passes, the products by one monomial,
    # the advances among them, still take theirs; under the estimate a
    # polynomial weight (Q = 1) keeps the dot products.
    monkeypatch.setattr(series, "_PASS_RATIO", 0)
    monomial = build()
    assert passes[0] > 0 and (len(spec.rational()[1]) > 1 or passes[0] == ruled)
    # From record-free weight series and atoms, every product is a dot product.
    monkeypatch.setattr(families, "_rational_series",
                        lambda *args: _record_free(series._rational_series(*args)))
    monkeypatch.setattr(families, "lambda_series",
                        lambda spec, order: families._rational_series(*spec.rational(), order))
    want = build()
    assert passes[0] == 0
    for s in (got, monomial):
        assert list(map(type, s.coeffs)) == list(map(type, want.coeffs)) and s == want


class TestOrderZero:
    @pytest.mark.parametrize("family,stat,form", STAT_CASES)
    @pytest.mark.parametrize("marker", [eval_marker(2), moment_marker(8)])
    def test_stat_gf(self, family, stat, form, marker):
        g = build_stat(family, stat, ALL, 0, marker, form)
        assert g == TruncatedSeries.one(0) and g.mod == marker.mod

    @pytest.mark.parametrize("family", ["row-fishburn", "fishburn", "self-dual"])
    def test_family_gf(self, family):
        assert family_gf(family, ALL, 0) == TruncatedSeries.one(0)

    # Every named variant series: the A158690 forms 2 to 5 that
    # identities.verify_a158690_forms compares, and the catalog's variant ids.
    @pytest.mark.parametrize("build", [
        pytest.param(getattr(identities, f"_variant_A158690_form{i}"), id=f"A158690-form{i}")
        for i in range(2, 6)
    ] + [
        pytest.param(lambda n, kind=kind: named_gf(kind, n), id=kind)
        for kind in ("A035378", "A079144", "A158690", "A207557", "A207651", "A207652",
                     "A207653")
    ])
    def test_variant_gf(self, build):
        assert build(0) == build(4).truncate(0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: recursive_gf("A186737", n),
            lambda n: recursive_gf("A224885", n),
            ramanujan_r,
            pytest.param(identities._r_at_one_minus, id="r_at_one_minus"),
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


# Univariate products per build, recorded before every instance of the general
# sum went through one builder: family_gf at order 60, everything else at 30.
# A build that needs more has started to make products it did not make
# before, such as building a power-schedule base it does not use.  The
# stat_profile entries were recorded when profiles became one build at
# v = 2^K; a builder that needs more has started to carry a marked running
# power.  A207386 and A207397 build their base (1+z)/(1+z^k) as one rational
# series, with no product.  The family, statistic and A207557 entries were
# lowered when each factor became a sum of running powers, one product per
# step and j.  The A035378 entries were lowered when the pairing made each
# power of its weight once, at full order, and took its K = 0 term bare.
MUL_PRODUCTS = {
    ("family_gf", "row-fishburn", "all"): 119,
    ("family_gf", "row-fishburn", "01"): 119,
    ("family_gf", "row-fishburn", "even+"): 59,
    ("family_gf", "fishburn", "all"): 92,
    ("family_gf", "fishburn", "01"): 92,
    ("family_gf", "fishburn", "even+"): 47,
    ("family_gf", "self-dual", "all"): 61,
    ("family_gf", "self-dual", "01"): 61,
    ("family_gf", "self-dual", "even+"): 31,
    ("route", "_variant_A158690_form2"): 30,
    ("route", "_variant_A158690_form3"): 31,
    ("route", "_variant_A158690_form4"): 46,
    ("route", "_variant_A158690_form5"): 31,
    ("route", "_variant_A035378_inverted"): 153,
    ("route", "_variant_A035378_paired"): 153,
    ("route", "_variant_A207557_rf"): 52,
    ("route", "_variant_A079144_completed"): 46,
    ("route", "_r_at_exp_neg"): 31,
    ("route", "_r_at_one_minus"): 61,
    ("named_gf", "A035378"): 150,
    ("named_gf", "A207557"): 60,
    ("named_gf", "A207651"): 89,
    ("named_gf", "A207652"): 89,
    ("named_gf", "A207653"): 90,
    ("named_gf", "A207386"): 59,
    ("named_gf", "A207397"): 59,
    ("named_gf", "A207556"): 60,
    ("named_gf", "A207569"): 60,
    ("named_gf", "A207570"): 61,
    ("named_gf", "A207571"): 62,
    ("named_gf", "A158690"): 30,
    ("named_gf", "A079144"): 30,
    ("named_gf", "A196194"): 60,
    ("named_gf", "A207214"): 30,
    ("named_gf", "A215066"): 30,
    ("named_gf", "A209832"): 31,
    ("named_gf", "A214687"): 30,
    ("stat_profile", "row-fishburn", "first_row"): 61,
    ("stat_profile", "row-fishburn", "diagonal"): 59,
    ("stat_profile", "row-fishburn", "ones"): 59,
    ("stat_profile", "row-fishburn", "twos"): 59,
    ("stat_profile", "fishburn", "first_row"): 47,
    ("stat_profile", "fishburn", "diagonal"): 48,
    ("stat_profile", "fishburn", "ones"): 47,
    ("stat_profile", "fishburn", "twos"): 47,
    ("stat_profile", "self-dual", "first_row"): 31,
    ("stat_profile", "self-dual", "diagonal"): 31,
    ("stat_profile", "self-dual", "ones"): 31,
}


def _count_products(monkeypatch) -> list:
    """A one-item list counting the _mul_into calls from here on, those of
    the running powers' advances, which families makes by its imported
    name, included."""
    calls = [0]
    kernel = series._mul_into

    def counting(a, b, order):
        calls[0] += 1
        return kernel(a, b, order)

    monkeypatch.setattr(series, "_mul_into", counting)
    monkeypatch.setattr(families, "_mul_into", counting)
    return calls


@pytest.mark.parametrize(
    "case", sorted(c for c in MUL_PRODUCTS if c[0] != "stat_profile"), ids="-".join
)
def test_univariate_products_do_not_grow(case, monkeypatch):
    calls = _count_products(monkeypatch)
    kind, name = case[:2]
    if kind == "family_gf":
        family_gf(name, LambdaSpec(case[2]), 60)
    elif kind == "route":  # the second route of an identity
        getattr(identities, name)(30)
    else:
        named_gf(name, 30)
    assert 0 < calls[0] <= MUL_PRODUCTS[case]


@pytest.mark.parametrize(
    "family,stat", sorted(c[1:] for c in MUL_PRODUCTS if c[0] == "stat_profile")
)
def test_bivariate_products_do_not_grow(family, stat, monkeypatch):
    family_series(family, ALL, 30)  # the counts that set the base, built beforehand
    calls = _count_products(monkeypatch)
    stat_profile.__wrapped__(family, stat, ALL, 30)  # past the cache
    assert 0 < calls[0] <= MUL_PRODUCTS["stat_profile", family, stat]


def test_paired_sum_takes_its_first_term_bare():
    # w = z, pair(a, b) = a b, prefactor(p) = 1 + p:
    # sum_K (1 + z^{2K+1}) z^{2K^2+K} = (1 + z) + (1 + z^3) z^3 + O(z^10)
    z, asked, made = TruncatedSeries.x(8), [], []

    def prefactor(p):
        asked.append(p)
        made.append(TruncatedSeries.one(p.order) + p)
        return made[-1]

    f = families._paired_sum(z, mul, prefactor, 8)
    assert f.coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0)
    assert asked == [z, z * z * z]
    # at order 0 the sum is its K = 0 term, the prefactor's own result, not
    # a product of it by the 1
    assert families._paired_sum(TruncatedSeries.x(0), mul, prefactor, 0) is made[-1]


def test_quotient_factors_take_the_rational_shortcut(monkeypatch):
    # d_j = 1/(1 - z^j) is a rational series, so every product by it divides
    calls = [0]
    walk = series._mul_record

    def counting(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(series, "_mul_record", counting)
    named_gf("A207652", 30)
    assert calls[0] > 0


def test_jets_make_no_bivariate_products(monkeypatch):
    calls = {"_mul_into": 0, "_bv_mul_into": 0}
    for name in calls:
        kernel = getattr(series, name)

        def counting(a, b, order, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(a, b, order)

        monkeypatch.setattr(series, name, counting)
    for family, stat, form in STAT_CASES:
        build_stat(family, stat, ALL, 12, moment_marker(64), form)
    assert calls["_bv_mul_into"] == 0
    assert calls["_mul_into"] > 0


class TestDistributionTables:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_first_row_table(self, n):
        g = stat_profile("fishburn", "first_row", ALL, 7)
        got = (g[n] + (0,) * n)[1 : n + 1]
        assert got == FIRST_ROW_TRIANGLE[n - 1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_diagonal_table(self, n):
        g = stat_profile("fishburn", "diagonal", ALL, 7)
        got = {k: c for k, c in enumerate(g[n]) if c}
        assert got == DIAGONAL_TRIANGLE[n - 1]

    def test_rows_sum_to_family_counts(self):
        g = stat_profile("fishburn", "diagonal", ALL, 7)
        for n in range(1, 8):
            assert sum(g[n]) == FISHBURN[n]


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
        # the weight series in the factorial-normalized variant is z/(e^z-1):
        # times (e^z - 1)/z it gives 1, and B_9..B_12 are 0, 5/66, 0, -691/2730
        d = _bernoulli_egf(12)
        quotient = (exp_linear(1, 13) - TruncatedSeries.one(13)).shift_down(1)
        assert d * quotient == TruncatedSeries.one(12)
        tail = [d.coeff(n) * factorial(n) for n in range(9, 13)]
        assert tail == [0, Fraction(5, 66), 0, Fraction(-691, 2730)]

    def test_log_derivative_terms(self):
        # b_n = n a_n - sum b_j a_{n-j}, with a the binomial-weight row counts
        b = named_sequence("A207434", 8)
        f = family_gf("row-fishburn", PRIMITIVE, 8)
        a = ints(f, 9)
        for n in range(1, 9):
            assert b[n - 1] == n * a[n] - sum(
                b[j - 1] * a[n - j] for j in range(1, n)
            )

    def test_two_each_weight_series(self):
        # the weight series of A289312, (1+z)/(1-z), has every positive weight 2
        f = named_entry("A289312").instance(6).prefactor
        opz = TruncatedSeries([1, 1, 0, 0, 0, 0, 0], 6)
        omz = TruncatedSeries([1, -1, 0, 0, 0, 0, 0], 6)
        assert f == opz * omz.inv()


class TestCatalog:
    def test_catalog_size(self):
        assert len(NAMED_IDS) == 34

    @pytest.mark.parametrize("name", NAMED_IDS)
    def test_terms_are_integers(self, name):
        terms = named_sequence(name, 12)
        assert len(terms) == 12
        assert all(isinstance(t, int) for t in terms)

    @pytest.mark.parametrize("name", NAMED_IDS)
    def test_no_terms(self, name):
        assert named_sequence(name, 0) == []
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            named_sequence(name, -1)

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


@lru_cache(maxsize=None)
def binomial_profile(n_max):
    """(totals, rows) of the prototype sum_k prod_{1<=j<=k}(e^{jz}-1) by
    binomial convolution, independent of the Stirling route: rows[n][k] =
    n![z^n] of the k-th partial product P_k, from n![z^n] P (e^{kz} - 1) =
    sum_{i<n} C(n, i) (i![z^i] P) k^{n-i}, and totals[n] = sum(rows[n])."""
    binomials = [[comb(n, i) for i in range(n + 1)] for n in range(n_max + 1)]
    cur = [1] + [0] * n_max
    rows = [[0] * (n + 1) for n in range(n_max + 1)]
    rows[0][0] = 1
    for k in range(1, n_max + 1):
        kp = [1] * (n_max + 1)
        for t in range(1, n_max + 1):
            kp[t] = kp[t - 1] * k
        new = [0] * (n_max + 1)
        for n in range(k, n_max + 1):
            new[n] = sum(map(mul, map(mul, binomials[n][k - 1 : n], cur[k - 1 : n]),
                             kp[n - k + 1 : 0 : -1]))
        cur = new
        for n in range(k, n_max + 1):
            rows[n][k] = cur[n]
    return tuple(sum(r) for r in rows), tuple(tuple(r) for r in rows)


class TestLabeledFastPath:
    def test_totals_match_kernel(self):
        totals = labeled_numbers(20)
        f = named_gf("A158690", 20)
        for n in range(21):
            assert totals[n] == factorial(n) * f.coeff(n)

    def test_rows_are_partial_products(self):
        rows = [labeled_profile(n) for n in range(13)]
        prod = TruncatedSeries.one(12)
        for n in range(13):
            assert rows[n][0] == (n == 0) and len(rows[n]) == n + 1
        for k in range(1, 13):
            prod = prod * (exp_linear(k, 12) - TruncatedSeries.one(12))
            for n in range(k, 13):
                assert rows[n][k] == factorial(n) * prod.coeff(n)

    def test_row_sums(self):
        for n in range(16):
            assert sum(labeled_profile(n)) == labeled_numbers(n)[n]

    @pytest.mark.parametrize("n", [*range(41), 120])
    def test_stirling_transform_matches_the_profile(self, n):
        # Both Stirling routes against the binomial-convolution recurrence.
        totals, rows = binomial_profile(120)
        assert labeled_numbers.__wrapped__(n) == totals[: n + 1]
        assert labeled_profile.__wrapped__(n) == rows[n]

    def test_running_products_drag_no_record(self, monkeypatch):
        # A record on the running product would grow with k (one call of
        # 1,288 term pairs at n = 40); the partial products carry none, so
        # the record products that build each factor stay small.
        largest, yielded = [0], [0]
        combo, partial = series._combo_mul, series._partial_products

        def counting(x, y):
            largest[0] = max(largest[0], len(x) * len(y))
            return combo(x, y)

        def checked(factor, order):
            for p in partial(factor, order):
                assert p._record is None
                yielded[0] += 1
                yield p

        monkeypatch.setattr(series, "_combo_mul", counting)
        monkeypatch.setattr(families, "_partial_products", checked)
        labeled_profile.__wrapped__(40)
        assert yielded[0] == 41 and largest[0] <= 4

    def test_totals_build_no_profile(self):
        labeled_numbers.cache_clear()
        labeled_profile.cache_clear()
        labeled_numbers(60)
        assert labeled_profile.cache_info().misses == 0

    def test_cache_clear_drops_the_build(self, monkeypatch):
        labeled_profile(30)
        labeled_profile.cache_clear()
        sums, row_sum = [], families._row_sum
        monkeypatch.setattr(families, "_row_sum", lambda L: sums.append(L) or row_sum(L))
        labeled_profile(30)
        assert sums, "served from a build made before cache_clear"
        assert labeled_profile.cache_info().misses == 1

    def test_budget(self):
        with pytest.raises(ValueError, match=r"exceeds the series budget \(500\)"):
            labeled_numbers(501)

    @pytest.mark.parametrize("build, value, match", [
        pytest.param(labeled_profile, -1, "order must be >= 0", id="labeled_profile"),
        pytest.param(labeled_numbers, -1, "order must be >= 0", id="labeled_numbers"),
        pytest.param(labeled_profile, True, "must be an int, got True",
                     id="labeled_profile-True"),
        pytest.param(labeled_profile, 2.0, "must be an int, got 2.0",
                     id="labeled_profile-2.0"),
        pytest.param(labeled_profile, 501, r"exceeds the series budget \(500\)",
                     id="labeled_profile-501"),
    ])
    def test_negative_order(self, build, value, match):
        # Cached builds at 1 and 2 must not answer a bool or float equal to them.
        build(1)
        build(2)
        with pytest.raises(ValueError, match=match):
            build(value)


class TestOrderCache:
    """One build per key at the largest order asked for; smaller orders are cut."""

    def test_one_entry_per_cell_across_orders(self):
        cell = ("self-dual", "first_row", ALL)
        stat_profile.cache_clear()
        for order in (10, 20, 30, 40, 50, 60, 35):
            got = stat_profile(*cell, order)
            fresh = stat_profile.__wrapped__(*cell, order)
            assert got == fresh
            assert [list(map(type, row)) for row in got] == [
                list(map(type, row)) for row in fresh
            ]
        assert stat_profile.cache_info().currsize == 1

    def test_alias_shares_the_canonical_entry(self):
        family_series.cache_clear()
        family_series("row", ALL, 50)
        family_series("row-fishburn", ALL, 50)
        info = family_series.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    def test_cut_lambda_series_keeps_its_rational_form(self):
        spec = LambdaSpec("odd")
        lambda_series.cache_clear()
        lambda_series(spec, 20)
        cut = lambda_series(spec, 7)
        assert lambda_series.cache_info().hits == 1
        assert cut == lambda_series.__wrapped__(spec, 7)
        assert cut._record[0] == (spec.rational(),)

    def test_least_recently_used_key_is_dropped_at_the_cap(self):
        cap = families._CACHE_KEYS
        specs = [LambdaSpec("custom", (i + 1,)) for i in range(cap + 1)]
        lambda_series.cache_clear()
        for spec in specs:
            lambda_series(spec, 2)
        assert lambda_series.cache_info().currsize == cap
        lambda_series(specs[0], 2)
        assert lambda_series.cache_info().misses == cap + 2


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
        # digit t of the packed moment row n is sum_m C(m, t) [v^m z^n] profile
        family, stat, form = case
        assume(stat != "ones" or weights[0])
        spec = LambdaSpec("custom", tuple(weights))
        if form == "product":
            jet = stat_jet(family, stat, spec, order)
        else:
            counts = family_series(family, spec, order).coeffs
            marker = moment_marker(max(counts).bit_length() + 2 * order.bit_length() + 2)
            packed = build_stat(family, stat, spec, order, marker, form)
            jet = _unpack_moments(packed, counts, marker.mod)
        prof = stat_profile(family, stat, spec, order)
        for n in range(order + 1):
            row = prof[n]
            assert jet[n] == tuple(sum(comb(m, t) * c for m, c in enumerate(row))
                                   for t in range(3))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(st.integers(0, 3), max_size=4),
        st.integers(min_value=0, max_value=15),
    )
    def test_direct_form_equals_andrews_form(self, lam1, rest, order):
        # the family series and every statistic, 1s included since lam1 > 0
        rep = identities.verify_andrews_jelinek(LambdaSpec("custom", (lam1, *rest)), order)
        assert rep.ok, str(rep)

    @settings(max_examples=25, deadline=None)
    @given(lambda_specs(), st.integers(min_value=1, max_value=10))
    def test_row_counts_nonnegative_and_bounded(self, spec, n):
        f = family_gf("row-fishburn", spec, n)
        assert all(c >= 0 for c in f.coeffs)
        assert f.coeff(0) == 1

    @settings(max_examples=15, deadline=None)
    @given(lambda_specs(), st.integers(min_value=1, max_value=8))
    def test_fishburn_at_most_row(self, spec, n):
        # column constraints only remove matrices
        row = family_gf("row-fishburn", spec, n)
        fish = family_gf("fishburn", spec, n)
        assert all(a <= b for a, b in zip(fish.coeffs, row.coeffs))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=9))
    def test_k_sum_terminates_at_valuation_bound(self, lam2, n):
        # with no 1s allowed, products vanish past k = n/2
        spec = LambdaSpec("custom", (0, lam2))
        f = family_gf("row-fishburn", spec, n)
        g = lambda_series(spec, n)
        prod = TruncatedSeries.one(n)
        total = TruncatedSeries.one(n)
        p = TruncatedSeries.one(n)
        for j in range(1, n // 2 + 1):
            p = p * g
            prod = prod * (p - TruncatedSeries.one(n))
            total = total + prod
        assert total == f
