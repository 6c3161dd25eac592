"""Unit and property tests for the truncated-series carriers."""

import pickle
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishburn.families as families
import fishburn.series as series
from fishburn.families import (ALL, _NAMED_RATIONAL, LambdaSpec, _bernoulli_egf,
                               lambda_atom, lambda_series)
from fishburn.series import (
    TruncatedSeries,
    eval_marker,
    exp_linear,
    moment_marker,
    sum_product,
)

ORDER = 8

coeff_st = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
series_st = st.lists(coeff_st, min_size=0, max_size=ORDER + 1).map(
    lambda cs: TruncatedSeries(cs, ORDER)
)
unit_series_st = st.lists(coeff_st, min_size=0, max_size=ORDER).map(
    lambda cs: TruncatedSeries([1] + cs, ORDER)
)


class TestRingAxioms:
    @given(series_st, series_st, series_st)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(series_st, series_st)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(series_st, series_st, series_st)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(series_st)
    def test_additive_inverse(self, a):
        assert (a + (-a)) == TruncatedSeries.zero(ORDER)

    @given(unit_series_st)
    def test_inverse(self, a):
        assert a * a.inv() == TruncatedSeries.one(ORDER)

    @given(unit_series_st, st.integers(min_value=-4, max_value=6))
    def test_pow_matches_repeated_mul(self, a, k):
        expected = TruncatedSeries.one(ORDER)
        base = a if k >= 0 else a.inv()
        for _ in range(abs(k)):
            expected = expected * base
        assert a.pow(k) == expected

    @pytest.mark.parametrize("k,products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2)])
    def test_pow_makes_no_product_by_one(self, k, products, monkeypatch):
        calls = [0]
        kernel = series._mul_into

        def counting(a, b, order):
            calls[0] += 1
            return kernel(a, b, order)

        monkeypatch.setattr(series, "_mul_into", counting)
        a = TruncatedSeries([1, 2, -1], ORDER)
        assert a.pow(k) is not None
        assert calls[0] == products

    @given(series_st, series_st)
    @settings(max_examples=40)
    def test_truncation_commutes_with_mul(self, a, b):
        m = 4
        assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)


class TestOrderDiscipline:
    def test_mixed_orders_raise(self):
        a = TruncatedSeries.one(5)
        b = TruncatedSeries.one(6)
        with pytest.raises(ValueError, match="mixed truncation orders"):
            a + b
        with pytest.raises(ValueError, match="mixed truncation orders"):
            a * b

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(3).truncate(5)

    def test_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            TruncatedSeries.one(3).coeff(4)

    def test_short_factor_rejected_without_valuation_cover(self):
        # multiplying a full-order series by an under-truncated one must fail
        # unless the first factor's valuation covers the missing window
        from fishburn.series import _mul_into

        a = TruncatedSeries.one(6)
        b = TruncatedSeries.one(3)
        with pytest.raises(ValueError, match="truncated too short"):
            _mul_into(a, b, 6)
        ok = TruncatedSeries([0, 0, 0, 1], 6)  # valuation 3 covers order 3 factor
        assert _mul_into(ok, b, 6).coeff(3) == 1


# ---------------------------------------------------------------------------
# The product and inverse kernels against schoolbook references
# ---------------------------------------------------------------------------

def _exact(x):
    """The normal form of an exact coefficient: int when integral."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _schoolbook(a: TruncatedSeries, b: TruncatedSeries, order: int) -> list:
    """Reference product: the double loop over nonzero coefficients."""
    va, vb = a.valuation(), b.valuation()
    if va + vb > order:
        return [0] * (order + 1)
    if b.order < order and va + b.order < order:
        raise ValueError("factor truncated too short for this product")
    out = [0] * (order + 1)
    for i in range(va, order + 1 - vb):
        if a.coeffs[i]:
            for j in range(vb, min(b.order, order - i) + 1):
                if b.coeffs[j]:
                    out[i + j] += a.coeffs[i] * b.coeffs[j]
    return [_exact(c) for c in out]


def _schoolbook_inv(a: TruncatedSeries) -> list:
    """Reference inverse: out[n] = -(sum_{1<=i<=n} a_i out[n-i]) / a_0."""
    a0 = a.coeffs[0]
    if a0 == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    out = [_exact(Fraction(1) / a0)]
    for n in range(1, a.order + 1):
        s = 0
        for i in range(1, n + 1):
            if a.coeffs[i]:
                s += a.coeffs[i] * out[n - i]
        out.append(_exact(Fraction(-s) / a0))
    return out


def _typed(coeffs) -> list:
    return [(type(c), c) for c in coeffs]


def _outcome(fn, *args):
    """(True, typed coefficients) or (False, exception type and message)."""
    try:
        result = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return False, (type(exc), str(exc))
    coeffs = result.coeffs if isinstance(result, TruncatedSeries) else result
    return True, _typed(coeffs)


KERNEL_COEFFS = {
    "int": st.integers(min_value=-30, max_value=30),
    "fraction": st.fractions(min_value=-4, max_value=4, max_denominator=6),
    "integral-fraction": st.integers(min_value=-30, max_value=30).map(Fraction),
}


@st.composite
def kernel_operands(draw, order: int, valuation: int, step: int):
    """A series of `order` whose nonzero coefficients sit at valuation +
    step * i, with runs of zeros, in one of the coefficient kinds."""
    coeff = KERNEL_COEFFS[draw(st.sampled_from(sorted(KERNEL_COEFFS)))]
    cs = [0] * (order + 1)
    if valuation > order:
        return TruncatedSeries(cs, order)
    cs[valuation] = draw(coeff.filter(bool))
    for i in range(valuation + step, order + 1, step):
        cs[i] = draw(st.one_of(st.just(0), st.just(0), coeff))
    return TruncatedSeries(cs, order)


@st.composite
def kernel_cases(draw):
    """(a, b, order): b may be shorter than order, and the valuation sum
    may sit anywhere, including at order and at order + 1."""
    order = draw(st.integers(min_value=0, max_value=14))
    b_order = draw(st.one_of(st.just(order), st.integers(min_value=0, max_value=order)))
    va = draw(st.integers(min_value=0, max_value=order + 1))
    at_edge = [v for v in (order - va, order + 1 - va) if 0 <= v <= b_order + 1]
    if at_edge and draw(st.booleans()):
        vb = draw(st.sampled_from(at_edge))
    else:
        vb = draw(st.integers(min_value=0, max_value=b_order + 1))
    steps = st.sampled_from([1, 2, 3, 4, 6])
    a = draw(kernel_operands(order, va, draw(steps)))
    b = draw(kernel_operands(b_order, vb, draw(steps)))
    return a, b, order


class TestKernelOracle:
    @given(kernel_cases())
    @settings(max_examples=400)
    def test_mul_matches_schoolbook(self, case):
        a, b, order = case
        assert _outcome(series._mul_into, a, b, order) == _outcome(_schoolbook, a, b, order)

    @given(st.integers(min_value=0, max_value=14), st.integers(min_value=1, max_value=4),
           st.data())
    @settings(max_examples=200)
    def test_inv_matches_schoolbook(self, order, step, data):
        a = data.draw(kernel_operands(order, 0, step))
        assert _outcome(TruncatedSeries.inv, a) == _outcome(_schoolbook_inv, a)

    def test_zero_constant_term_has_no_inverse(self):
        a = TruncatedSeries([0, 1], 3)
        assert _outcome(TruncatedSeries.inv, a) == _outcome(_schoolbook_inv, a)

    def test_inverse_across_a_gap_stays_exact(self):
        # a_1 = 0 with a_0 outside {1, -1}: the odd coefficients are int 0
        inv = TruncatedSeries([2, 0, 1], 6).inv()
        assert _typed(inv.coeffs) == _typed(
            [Fraction(1, 2), 0, Fraction(-1, 4), 0, Fraction(1, 8), 0, Fraction(-1, 16)]
        )

    def test_integral_fractions_collapse_to_int(self):
        f = TruncatedSeries([Fraction(4, 2), Fraction(1, 2), 3], 3)
        assert _typed(f.coeffs) == _typed([2, Fraction(1, 2), 3, 0])
        half = TruncatedSeries([Fraction(1, 2), Fraction(3, 2)], 3)
        assert _typed((half * TruncatedSeries([2, 2], 3)).coeffs) == _typed([1, 4, 3, 0])


# ---------------------------------------------------------------------------
# The kernel's shortcuts: rational factors and squares
# ---------------------------------------------------------------------------

def _plain(f: TruncatedSeries) -> TruncatedSeries:
    """The same coefficients without the record: the dot-product path."""
    return TruncatedSeries(f.coeffs, f.order)


# (P, Q) of every named multiset and of a few custom lists (Q = 1).
LAMBDA_PAIRS = [LambdaSpec(t).rational() for t in ("all", "01", "012", "odd", "even+", "no1")] + [
    LambdaSpec("custom", w).rational() for w in ((), (0, 1), (2, 0, 1), (1, 1, 1))
]

drawn_pair = st.tuples(
    st.lists(st.integers(min_value=-3, max_value=3), max_size=5).map(tuple),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=4).map(lambda q: (1, *q)),
)


@st.composite
def rational_cases(draw):
    """(a, b, order) with one factor a P/Q carrying its pair, maybe stretched
    by z -> z^m.  The factor on the right may be shorter than order."""
    order = draw(st.integers(min_value=0, max_value=14))
    short = st.one_of(st.just(order), st.integers(min_value=0, max_value=order))
    pq = draw(st.one_of(st.sampled_from(LAMBDA_PAIRS), drawn_pair))
    stretch = draw(st.sampled_from([1, 1, 2, 3]))
    rational_left = draw(st.booleans())
    r_order = order if rational_left else draw(short)
    r = series._rational_series(*pq, order).substitute_power(stretch).truncate(r_order)
    x_order = draw(short) if rational_left else order
    valuation = draw(st.integers(min_value=0, max_value=x_order + 1))
    x = draw(kernel_operands(x_order, valuation, draw(st.sampled_from([1, 2, 3]))))
    return (r, x, order) if rational_left else (x, r, order)


class TestRationalFactor:
    @given(rational_cases())
    @settings(max_examples=400)
    def test_matches_the_dot_product(self, case):
        a, b, order = case
        got = _outcome(series._mul_into, a, b, order)
        assert got == _outcome(series._mul_into, _plain(a), _plain(b), order)
        assert got == _outcome(_schoolbook, a, b, order)

    @pytest.mark.parametrize("pq", LAMBDA_PAIRS, ids=str)
    def test_named_and_custom_weights_against_plain(self, pq):
        r = series._rational_series(*pq, 30)
        x = TruncatedSeries([(-1) ** i * (i + 1) for i in range(31)], 30)
        xf = x.scalar_mul(Fraction(1, 3))
        for f in (r, r.substitute_power(2)):
            for y in (x, xf):
                assert _typed((y * f).coeffs) == _typed((y * _plain(f)).coeffs)
                assert _typed((f * y).coeffs) == _typed((_plain(f) * y).coeffs)

    def test_expansion_and_pair_survive_truncate_and_stretch(self):
        odd = series._rational_series((1, 1, -1), (1, 0, -1), 9)
        assert odd.coeffs == (1, 1, 0, 1, 0, 1, 0, 1, 0, 1)
        assert odd.truncate(4)._record == odd._record
        assert odd.substitute_power(2)._record[0] == (((1, 0, 1, 0, -1), (1, 0, 0, 0, -1)),)
        with pytest.raises(ValueError, match="constant term 1"):
            series._rational_series((1,), (2, 1), 5)

    def test_denominator_one_stays_on_the_dot_product(self, monkeypatch):
        calls = []
        walk = series._mul_record
        monkeypatch.setattr(
            series, "_mul_record", lambda *args: calls.append(1) or walk(*args)
        )
        x = TruncatedSeries(range(1, 12), 10)
        for pq in LAMBDA_PAIRS:
            r = series._rational_series(*pq, 10)
            calls.clear()
            x * (r - TruncatedSeries.one(10))  # two monomials: the estimate decides
            assert len(calls) == (len(pq[1]) > 1), pq
            calls.clear()
            x * r  # one monomial with c = 1 skips the estimate, Q = 1 too
            assert len(calls) == 1, pq

    def test_short_factor(self):
        geometric = series._rational_series((1,), (1, -1), 6).truncate(3)
        with pytest.raises(ValueError, match="truncated too short"):
            series._mul_into(TruncatedSeries.one(6), geometric, 6)
        covered = TruncatedSeries([0, 0, 0, 1, 2], 6)
        assert series._mul_into(covered, geometric, 6).coeffs == (0, 0, 0, 1, 3, 3, 3)
        with pytest.raises(ValueError, match="truncated too short"):
            series._mul_into(geometric.truncate(6 - 3), TruncatedSeries.one(3), 6)

    def test_valuation_past_the_window_is_zero(self):
        z3_over = series._rational_series((0, 0, 0, 1), (1, -1), 6)  # z^3/(1-z)
        x = TruncatedSeries([0, 0, 0, 0, 5], 6)
        assert series._mul_into(x, z3_over, 6) == TruncatedSeries.zero(6)
        assert series._mul_into(z3_over, x, 6) == TruncatedSeries.zero(6)


# Records: a series over weights P_i/Q_i may record the combination
# sum c prod_i (P_i/Q_i)^{e_i} it expands, and products by it may run as
# passes.

RECORD_PAIRS = sorted(set(_NAMED_RATIONAL.values()))
RECORD_PAIRS += [series._rational_series(*pq, 0).substitute_power(2)._record[0][0]
                 for pq in RECORD_PAIRS]

# The terms of a record over one pair.
records = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    max_size=4,
).map(lambda terms: tuple(((e,), c) for e, c in sorted(terms.items())))


@lru_cache(maxsize=4096)
def _monomial(pairs, exponents, order: int) -> tuple:
    """prod_i (P_i/Q_i)^{e_i} at `order`, by the schoolbook references."""
    for i, e in enumerate(exponents):
        if e:
            P, Q = (TruncatedSeries(t[: order + 1], order) for t in pairs[i])
            base = TruncatedSeries(_schoolbook(P, TruncatedSeries(_schoolbook_inv(Q), order), order), order)
            rest = TruncatedSeries(_monomial(pairs, exponents[:i] + (e - 1,) + exponents[i + 1 :], order), order)
            return tuple(_schoolbook(base, rest, order))
    return (1,) + (0,) * order


def _expand(pairs, terms, order: int) -> list:
    """sum c prod_i (P_i/Q_i)^{e_i} at `order`, from the schoolbook
    references alone; a constant's record (no pair) has only e = ()."""
    out = [0] * (order + 1)
    for exponents, c in terms:
        out = [_exact(o + c * p) for o, p in zip(out, _monomial(pairs, exponents, order))]
    return out


def _recorded(pairs, terms, order: int) -> TruncatedSeries:
    f = TruncatedSeries(_expand(pairs, terms, order), order)
    f._record = pairs, terms
    return f


def _assert_exact_record(f: TruncatedSeries) -> None:
    if f._record is not None:
        pairs, terms = f._record
        assert list(pairs) == sorted(set(pairs))
        assert list(terms) == sorted(terms) and all(c for _, c in terms)
        assert all(len(e) == len(pairs) for e, _ in terms)
        assert _typed(f.coeffs) == _typed(_expand(pairs, terms, f.order))


@st.composite
def record_cases(draw):
    """(f, g, h, x, order): f and g record combinations over one named pair,
    plain or stretched by z -> z^2, h over any such pair, and x is a plain
    int or Fraction series."""
    order = draw(st.integers(min_value=0, max_value=40))
    pq = draw(st.sampled_from(RECORD_PAIRS))
    f, g = (_recorded((pq,), draw(records), order) for _ in range(2))
    h = _recorded((draw(st.sampled_from(RECORD_PAIRS)),), draw(records), order)
    valuation = draw(st.integers(min_value=0, max_value=order + 1))
    x = draw(kernel_operands(order, valuation, draw(st.sampled_from([1, 1, 2]))))
    return f, g, h, x, order


MULTI_BASES = [pq for pq in RECORD_PAIRS[: len(RECORD_PAIRS) // 2] if len(pq[1]) > 1]


def _scaled(pq, c):
    """(P(cz), Q(cz))."""
    return tuple(tuple(x * c**k for k, x in enumerate(poly)) for poly in pq)


@st.composite
def multi_record_cases(draw):
    """(f, g, x, order): f records a combination over two or three pairs and
    g over one to three, drawn from L, L(z^2), L(cz) and L(c^2 z^2) for a
    named weight L with Q != 1, and x is a plain int or Fraction series."""
    order = draw(st.integers(min_value=0, max_value=24))
    L = draw(st.sampled_from(MULTI_BASES))
    c = draw(st.sampled_from([2, 3, 1 << 20]))
    stretched = series._rational_series(*L, 0).substitute_power(2)._record[0][0]
    pool = [L, stretched, _scaled(L, c), _scaled(stretched, c)]

    def record(k):
        pairs = tuple(sorted(draw(st.permutations(pool))[:k]))
        terms = tuple(sorted(draw(st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=5)] * k),
            st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=4)).items()))
        return _recorded(pairs, terms, order)

    f = record(draw(st.integers(min_value=2, max_value=3)))
    g = record(draw(st.integers(min_value=1, max_value=3)))
    valuation = draw(st.integers(min_value=0, max_value=order + 1))
    x = draw(kernel_operands(order, valuation, draw(st.sampled_from([1, 1, 2]))))
    return f, g, x, order


class TestRecords:
    @given(record_cases())
    @settings(max_examples=300, deadline=None)
    def test_products_match_the_plain_product_and_keep_exact_records(self, case):
        f, g, h, x, order = case
        fh = f * h  # a record over two pairs when the pairs differ
        for a, b in ((f, x), (x, f), (f, g), (f, f), (fh, x), (x, fh), (fh, fh)):
            got = a * b
            assert _typed(got.coeffs) == _typed((_plain(a) * _plain(b)).coeffs)
            _assert_exact_record(got)
        pairs, terms = f._record
        if terms and len(pairs[0][1]) > 1 and any(x.coeffs):
            v = x.valuation()  # the passes themselves, whichever way the rule goes
            passes = series._mul_record(x.coeffs[v:], pairs, v, order, terms, None)
            assert _typed(passes.coeffs) == _typed((_plain(f) * x).coeffs)

    @given(record_cases(), st.integers(min_value=0, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_sums_cuts_and_stretches_carry_exact_records(self, case, cut):
        f, g, _, _, order = case
        half = TruncatedSeries.constant(Fraction(1, 2), order)
        terms = dict(f._record[1])
        for e, c in g._record[1]:
            terms[e] = terms.get(e, 0) - c
        assert (f - g)._record[1] == tuple(sorted((e, c) for e, c in terms.items() if c))
        assert (f - g)._record[0] == f._record[0]
        for got in (f + g, f - g, f + half, half - f, half * f, f.truncate(min(cut, order)),
                    f.substitute_power(2), (f - g).substitute_power(3) * g.substitute_power(3)):
            _assert_exact_record(got)

    @given(multi_record_cases(), st.integers(min_value=0, max_value=24))
    @settings(max_examples=150, deadline=None)
    def test_records_over_several_pairs_match_the_plain_operations(self, case, cut):
        f, g, x, order = case
        half = TruncatedSeries.constant(Fraction(1, 2), order)
        ops = [
            lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
            lambda a, b: b * a, lambda a, b: a * a, lambda a, b: a.truncate(min(cut, order)),
            lambda a, b: a.substitute_power(2), lambda a, b: a.substitute_power(3) * b,
        ]
        for a, b in ((f, g), (f, x), (g, f), (f, half), (f * g, f)):
            for op in ops:
                got = op(a, b)
                assert _typed(got.coeffs) == _typed(op(_plain(a), _plain(b)).coeffs)
                _assert_exact_record(got)
        if any(x.coeffs):  # the walk in every order of the pairs, whichever the rule picks
            v = x.valuation()
            pairs, terms = f._record
            want = _typed((_plain(f) * x).coeffs)
            for walk in permutations(range(len(pairs))):
                ordered = sorted((tuple(e[i] for i in walk), c) for e, c in terms)
                got = series._mul_record(x.coeffs[v:], tuple(pairs[i] for i in walk), v,
                                         order, tuple(ordered), None)
                assert _typed(got.coeffs) == want

    @given(multi_record_cases(), st.integers(min_value=0, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_pass_plan_prices_the_walk_it_returns(self, case, span):
        # The cost is (sum of passes_i w_i + terms) n, n = span + 1 off the
        # lattice, counted pair by pair from the P of each pass; the pool's
        # pairs hold distinct P objects, so `is` tells them apart.
        times = series._times_poly
        for f in case[:2]:  # on two or three pairs, then on one to three
            cost, pairs, terms = series._pass_plan(f, span, 1, None)
            seen = []
            with patch.object(series, "_times_poly",
                              lambda y, P, mod: seen.append(P) or times(y, P, mod)):
                series._mul_record((1, 1), pairs, 0, 1, terms, None)
            passes = [sum(P is pq[0] for P in seen) for pq in pairs]
            assert sum(passes) == len(seen)
            steps = sum(k * series._pass_weight(pq, None) for k, pq in zip(passes, pairs))
            assert cost == (steps + len(terms)) * (span + 1)

    @given(st.integers(min_value=0, max_value=30), st.data())
    @settings(max_examples=150, deadline=None)
    def test_passes_under_a_modulus_match_the_reduced_product(self, order, data):
        # moment atoms L(cz) at c = 1 + 2^bits, the weights with Q = 1 among them,
        # and their stretches; every product is compared modulo M
        bits, depth = data.draw(st.sampled_from([(3, 2), (8, 1), (20, 2), (6, 3)]))
        m = moment_marker(bits, depth)
        mask = m.mod.mask
        base = data.draw(st.sampled_from(RECORD_PAIRS))
        pq = data.draw(st.sampled_from([base, _scaled(base, m.value),
                                        _scaled(base, m.value**2)]))
        f = _recorded((pq,), data.draw(records), order)
        packed = TruncatedSeries(f.coeffs, order, m.mod)
        packed._record = f._record
        x = TruncatedSeries(data.draw(st.lists(st.integers(-(1 << 70), 1 << 70),
                                               max_size=order + 1)), order, m.mod)
        want = [c & mask for c in (_plain(f) * _plain(x)).coeffs]
        for got in (packed * x, x * packed):
            assert got.mod == m.mod and [c & mask for c in got.coeffs] == want
        pairs, terms = f._record
        if terms and any(x.coeffs):  # the passes themselves, Q = 1 included
            v = x.valuation()
            got = series._mul_record(x.coeffs[v:], pairs, v, order, terms, m.mod)
            assert list(got.coeffs) == want

    def test_walk_takes_the_cheapest_order(self):
        # first_row's factor B L^{2j} - B L^j - L^{j+1} + L at j = 5: walking L
        # first costs 2j passes of L and 2 of B, B first 3j + 1 of L and 1 of B
        L, B = ((1,), (1, -1)), ((1,), (1, -8))
        f = _recorded((B, L), (((1, 10), 1), ((1, 5), -1), ((0, 6), -1), ((0, 1), 1)), 30)
        cost, pairs, terms = series._pass_plan(f, 30, 1, None)
        assert pairs == (L, B)
        assert terms == (((1, 0), 1), ((5, 1), -1), ((6, 0), -1), ((10, 1), 1))
        weight = series._pass_weight
        assert cost == (10 * weight(L, None) + 2 * weight(B, None) + 4) * 31

    def test_constants_record_without_a_pair(self):
        assert TruncatedSeries.constant(Fraction(4, 2), 3)._record == ((), (((), 2),))
        assert TruncatedSeries.zero(3)._record == ((), ())
        assert TruncatedSeries.one(3)._record[0] == ()
        assert TruncatedSeries([1], 3)._record is None  # built from coefficients: no record
        geometric = TruncatedSeries.geometric(5)
        other = series._rational_series((1,), (1, 0, -1), 5)
        (G,), (O,) = geometric._record[0], other._record[0]
        assert (geometric - TruncatedSeries.one(5))._record == ((G,), (((0,), -1), ((1,), 1)))
        assert (geometric + other)._record == ((G, O), (((0, 1), 1), ((1, 0), 1)))
        product = geometric * other
        assert product._record == ((G, O), (((1, 1), 1),))
        assert (product + geometric)._record == ((G, O), (((1, 0), 1), ((1, 1), 1)))

    def test_a_narrow_power_keeps_its_record(self):
        # The pass rule reads a record against the other factor of a later
        # product, so a product keeps its factors' record however narrow it is.
        L = lambda_series(ALL, 24)
        power = L.pow(34)
        assert power._record == (L._record[0], (((34,), 1),))
        _assert_exact_record(power)

    def test_passes_run_only_where_they_are_cheaper(self, monkeypatch):
        calls = []
        walk = series._mul_record
        monkeypatch.setattr(
            series, "_mul_record", lambda *args: calls.append(args[4]) or walk(*args)
        )
        pq = ((1,), (1, -1))
        x = TruncatedSeries(range(1, 62), 60)
        low = _recorded((pq,), (((0,), -1), ((3,), 1)), 60)
        high = _recorded((pq,), (((0,), -1), ((100,), 1)), 60)
        assert _typed((x * low).coeffs) == _typed((x * _plain(low)).coeffs)
        assert calls == [low._record[1]]
        assert _typed((x * high).coeffs) == _typed((x * _plain(high)).coeffs)
        assert calls == [low._record[1]]  # e_max 100 against a window of 61: dot products


# (first, step) of running powers, by the step: every step records one monomial.
def _advance_powers(order: int) -> dict:
    L = lambda_series(ALL, order)
    L2 = L * L
    B = lambda_atom(ALL, order, eval_marker(1 << 8), "size")
    mod = moment_marker(8).mod
    Lm = series._rational_series(*ALL.rational(), order, mod)
    Bm = lambda_atom(ALL, order, moment_marker(8), "size")
    return {
        "L": (L, L),
        "L^2": (L2 * L, L2),
        "L(z^2)": (lambda_atom(ALL, order, eval_marker(3), "size-sq"), L.substitute_power(2)),
        "polynomial": (L, lambda_series(LambdaSpec("custom", (1, 2, 1)), order)),
        "atom at 2^K": (B * L, B),
        "moment atom": (Lm, Bm),
        "moment weight": (Bm * Lm, Lm),
        "valuation": (series._rational_series((0, 0, 3, 1), (1, -1), order), L),
        "fractions": (L.scalar_mul(Fraction(1, 3)), L),
    }


def _assert_same_product(got: TruncatedSeries, want: TruncatedSeries) -> None:
    assert _typed(got.coeffs) == _typed(want.coeffs)
    assert (got.order, got._record, got.mod) == (want.order, want._record, want.mod)


def _free(f: TruncatedSeries) -> TruncatedSeries:
    """The same coefficients and modulus without the record."""
    return TruncatedSeries(f.coeffs, f.order, f.mod)


def _counting_walks(monkeypatch) -> list:
    """A list that gets one item per _mul_record walk from here on."""
    walks = []
    walk = series._mul_record
    monkeypatch.setattr(series, "_mul_record", lambda *args: walks.append(1) or walk(*args))
    return walks


class TestAdvance:
    """A running power's advance is a product by a step that records one
    monomial with c = 1: one walk of passes, equal to the product of
    record-free copies."""

    @pytest.mark.parametrize("name", list(_advance_powers(1)))
    def test_matches_the_product(self, name, monkeypatch):
        first, step = _advance_powers(24)[name]
        walks = _counting_walks(monkeypatch)
        p = first
        for room in (24, 24, 19, 11, 4, 1, 0):
            walks.clear()
            got = series._mul_into(p, step, room)
            # one walk, unless the product lies past the window
            assert len(walks) == (p.valuation() + step.valuation() <= room)
            walks.clear()
            free = _free(p.truncate(room)) * _free(step.truncate(room))
            assert not walks
            assert _typed(got.coeffs) == _typed(free.coeffs)
            assert (got.order, got.mod) == (free.order, free.mod) == (room, p.mod or step.mod)
            _assert_same_product(got, p.truncate(room) * step.truncate(room))
            if got.mod is None:
                _assert_exact_record(got)
            p = got

    def test_other_steps_take_the_product(self, monkeypatch):
        # other operands take the estimate's product: with the estimate never
        # choosing passes, only a one-monomial factor walks
        monkeypatch.setattr(series, "_PASS_RATIO", 0)
        walks = _counting_walks(monkeypatch)
        L = lambda_series(ALL, 12)
        ones = lambda_atom(ALL, 12, moment_marker(8), "ones")  # two monomials
        one = TruncatedSeries.one(12)
        cases = [(L + L, ones, 0), (ones, L + L, 0), (L + L, one, 0), (_free(L), L + L, 0),
                 (ones, L, 1), (L, one, 1), (one, L, 1), (_free(L), L, 1), (L, _free(L), 1)]
        for a, b, want in cases:
            walks.clear()
            got = series._mul_into(a, b, 12)
            assert len(walks) == want
            assert _typed(got.coeffs) == _typed((_free(a) * _free(b)).coeffs)

    def test_general_sums_advance_in_passes(self, monkeypatch):
        # the Fishburn factor L (L^j - 1)^2 over {0,1} (Q = 1): two advances per j
        walks = _counting_walks(monkeypatch)
        got = families.family_gf("fishburn", LambdaSpec("01"), 30)
        assert len(walks) >= 2 * 14
        walks.clear()
        want = families._andrews_sum(_free(lambda_series(LambdaSpec("01"), 30))).series(30)
        assert not walks and _typed(got.coeffs) == _typed(want.coeffs)


class TestIntSlot:
    """A series built from int operands skips the type scan, and only then."""

    def test_an_integral_product_of_fraction_series_holds_ints(self):
        a = TruncatedSeries([Fraction(1, 2), Fraction(1, 3)], 1)
        b = TruncatedSeries([2, Fraction(-4, 3)], 1)
        assert _typed((a * b).coeffs) == _typed([1, 0])
        n = TruncatedSeries([2, 4], 1)
        assert _typed((n * a).coeffs) == _typed([1, Fraction(8, 3)])
        assert _typed((n * TruncatedSeries([Fraction(1, 2), Fraction(1, 4)], 1)).coeffs) == \
            _typed([1, Fraction(5, 2)])
        half = TruncatedSeries([Fraction(1, 2)], 1)
        assert _typed((half * n).coeffs) == _typed([1, 2])

    def test_a_cut_of_a_fraction_series_keeps_its_fractions(self):
        f = TruncatedSeries([Fraction(1, 2), Fraction(3, 2), 5], 2)
        cut = f.truncate(1)
        assert _typed(cut.coeffs) == _typed([Fraction(1, 2), Fraction(3, 2)])
        assert _typed((cut + cut).coeffs) == _typed([1, 3])
        assert _typed((cut - cut).coeffs) == _typed([0, 0])

    def test_an_int_series_plus_a_fraction_series_is_normalised(self):
        n = TruncatedSeries([1, 2, 3], 2)
        f = TruncatedSeries([Fraction(1, 2), Fraction(1, 3), 0], 2)
        s = n + f
        assert _typed(s.coeffs) == _typed([Fraction(3, 2), Fraction(7, 3), 3])
        assert _typed((s - f).coeffs) == _typed([1, 2, 3])
        assert _typed((f - s).coeffs) == _typed([-1, -2, -3])
        assert _typed((s + s).coeffs) == _typed([3, Fraction(14, 3), 6])

    def test_passes_of_an_int_series_by_a_fraction_record(self):
        # 3/2 (L + L) records 3 L with c = Fraction(3): the passes' sum is normalised
        L = series._rational_series((1,), (1, -1), 6)
        f = TruncatedSeries.constant(Fraction(3, 2), 6) * (L + L)
        assert f._record[1] == (((1,), 3),) and type(f._record[1][0][1]) is Fraction
        x = TruncatedSeries([2] * 7, 6)
        out = series._mul_record(x.coeffs, f._record[0], 0, 6, f._record[1], None, True)
        assert _typed(out.coeffs) == _typed((x * _plain(f)).coeffs)


class TestSquare:
    @given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=15),
           st.sampled_from([1, 2, 3]), st.data())
    @settings(max_examples=300)
    def test_square_matches_product_of_copies(self, order, valuation, step, data):
        a = data.draw(kernel_operands(order, valuation, step))
        out = data.draw(st.integers(min_value=0, max_value=order))
        copy = TruncatedSeries(a.coeffs, a.order)
        assert copy is not a
        assert _outcome(series._mul_into, a, a, out) == _outcome(series._mul_into, a, copy, out)
        assert _outcome(series._mul_into, a, a, out) == _outcome(_schoolbook, a, a, out)

    def test_power_squares(self):
        a = TruncatedSeries([1, Fraction(1, 2), -3, 0, 2], 12)
        assert a.pow(5) == a * a * a * a * a


class TestCalculusAndSubstitution:
    def test_exp_linear_values(self):
        e3 = exp_linear(3, 6)
        for n in range(7):
            assert e3.coeff(n) == Fraction(3**n, factorial(n))
        em1 = exp_linear(-1, 5)
        assert em1.coeff(3) == Fraction(-1, 6)

    def test_substitute_power(self):
        f = TruncatedSeries([1, 2, 3], 6)
        g = f.substitute_power(2)
        assert [g.coeff(n) for n in range(7)] == [1, 0, 2, 0, 3, 0, 0]

    def test_compose_geometric_with_self_inverse(self):
        # 1/(1-w) at w = z/(1+z) is 1+z
        f = TruncatedSeries.geometric(7)
        g = f.substitute_mobius(+1)
        assert g == TruncatedSeries([1, 1], 7)

    def test_shift_down(self):
        f = TruncatedSeries([0, 0, 5, 7], 5)
        g = f.shift_down(2)
        assert g.order == 3
        assert [g.coeff(n) for n in range(4)] == [5, 7, 0, 0]
        with pytest.raises(ValueError, match="not divisible"):
            TruncatedSeries([1], 3).shift_down(1)

    def test_integer_coefficients_stay_int(self):
        f = TruncatedSeries([1, -1, 4], 5)
        g = f.inv() * f * f
        assert all(isinstance(c, int) for c in g.coeffs)


def test_bernoulli_numbers():
    # n! [z^n] z/(e^z - 1), the Bernoulli series that A196194 uses
    d = _bernoulli_egf(8)
    b = [d.coeff(n) * factorial(n) for n in range(9)]
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)


class TestBivariate:
    """Marked series: evaluated at v = c on the univariate carrier, against
    the schoolbook product of v-polynomial rows."""

    def test_round_trip_at_v_one(self):
        m = eval_marker(1)
        assert m == (1, None)
        # v^i -> 1: every marked atom collapses to its weight series
        for kind in ("size", "ones", "twos"):
            assert lambda_atom(ALL, 5, m, kind) == TruncatedSeries.geometric(5)

    def test_v_marking_multiplication(self):
        # (1 + v z)^2 = 1 + 2 v z + v^2 z^2
        f = ((1,), (0, 1))
        assert series._bv_mul_into(f, f, 4) == ((1,), (0, 2), (0, 0, 1), (), ())
        # at v = 10 each row of the product reads as decimal digits
        g = TruncatedSeries([1, eval_marker(10).value], 4)
        assert (g * g).coeffs == (1, 20, 100, 0, 0)

    def test_jet_cap_truncates_polynomials(self):
        m = moment_marker(8, 2)
        low, mask = (1 << 8) - 1, (1 << 24) - 1
        assert m.value == 1 + (1 << 8) and m.mod.mask == mask

        def digits(x):
            return [x >> (8 * t) & low for t in range(3)]

        # v^5 packed: (1+eps)^5 -> 1 + 5 eps + 10 eps^2, eps = 2^8
        f = TruncatedSeries([m.value], 3, m.mod).pow(5)
        assert f.mod == m.mod and digits(f.coeffs[0]) == [1, 5, 10]
        g = f * f  # v^10 -> 1 + 10 eps + 45 eps^2; eps^3 and above are cut
        assert g.coeffs == (1 + (10 << 8) + (45 << 16), 0, 0, 0)
        assert digits(g.coeffs[0]) == [1, 10, 45]

    def test_eval_marker(self):
        m = eval_marker(7)
        assert m == (7, None)
        f = lambda_atom(LambdaSpec("custom", (0, 0, 1)), 3, m)  # 1 + v^3 z^3
        assert f.coeffs == (1, 0, 0, 343) and f.mod is None
        assert (f * f).coeffs == (1, 0, 0, 686)
        assert eval_marker(Fraction(1, 2)).value == Fraction(1, 2)

    def test_mixed_caps_raise(self):
        a = TruncatedSeries([3], 3, moment_marker(8).mod)
        with pytest.raises(ValueError, match="mixed moduli"):
            a + TruncatedSeries([3], 3, moment_marker(9).mod)
        with pytest.raises(ValueError, match="mixed moduli"):
            a * TruncatedSeries([3], 3, moment_marker(8, 1).mod)
        with pytest.raises(ValueError, match="moment depth"):
            moment_marker(8, 0)
        # an exact series joins the modulus of the other
        assert (a - TruncatedSeries.one(3)).mod == (TruncatedSeries.x(3) * a).mod == a.mod

    def test_inv(self):
        # 1 - v z has inverse sum v^n z^n; at v = 2^8, z^n carries 2^(8n)
        f = TruncatedSeries([1, -(1 << 8)], 5)
        g = f.inv()
        assert g.coeffs == tuple(1 << (8 * n) for n in range(6))
        assert f * g == TruncatedSeries.one(5)


# Series in z of order 5, as v-polynomial rows (low degree first).
poly_st = st.lists(st.integers(min_value=-3, max_value=3), max_size=4).map(tuple)
rows_st = st.lists(poly_st, max_size=6).map(tuple)


def _rows_add(a, b, sign=1):
    """a + sign * b, row by row, at order 5."""
    out = []
    for i in range(6):
        p, q = (a[i] if i < len(a) else ()), (b[i] if i < len(b) else ())
        n = max(len(p), len(q))
        p, q = p + (0,) * (n - len(p)), q + (0,) * (n - len(q))
        out.append(tuple(x + sign * y for x, y in zip(p, q)))
    return tuple(out)


def _as_jet(rows, depth: int) -> TruncatedSeries:
    """The rows at v = 1 + 2^8 modulo 2^{8 (depth + 1)}, whose digit t at
    z^n is sum_m C(m, t) [v^m z^n] modulo 2^8."""
    m = moment_marker(8, depth)
    rows = tuple(rows) + ((),) * (6 - len(rows))
    return TruncatedSeries([sum(c * m.value**k for k, c in enumerate(p)) & m.mod.mask
                            for p in rows], 5, m.mod)


def _reduced(f: TruncatedSeries) -> tuple:
    return tuple(c & f.mod.mask for c in f.coeffs)


class TestJet:
    """Moment jets as packed series: the ring map from v-polynomial rows to
    v = 1 + 2^8 modulo 2^{8 (depth + 1)} commutes with the kernel."""

    @given(rows_st, rows_st, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_ring_operations_commute_with_v_equals_one_plus_eps(self, a, b, depth):
        ja, jb = _as_jet(a, depth), _as_jet(b, depth)
        assert _reduced(_as_jet(_rows_add(a, b), depth)) == _reduced(ja + jb)
        assert _reduced(_as_jet(_rows_add(a, b, -1), depth)) == _reduced(ja - jb)
        assert _as_jet(series._bv_mul_into(a, b, 5), depth) == ja * jb
        assert (ja * jb).mod == ja.mod

    @given(rows_st, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_inverse(self, a, depth):
        # 1/(1 + a') = sum_k (-a')^k, which stops at k = 5 as a' has valuation 1
        neg = ((),) + tuple(tuple(-c for c in p) for p in a[1:])
        term = inv = ((1,),)
        for _ in range(5):
            term = series._bv_mul_into(term, neg, 5)
            inv = _rows_add(inv, term)
        ja = _as_jet(((1,),) + a[1:], depth)
        assert ja.inv() == _as_jet(inv, depth)
        assert ja * ja.inv() == TruncatedSeries.one(5)

    @given(rows_st, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_square_matches_product_of_copies(self, a, depth):
        ja = _as_jet(a, depth)
        assert ja * ja == ja * _as_jet(a, depth) == _as_jet(series._bv_mul_into(a, a, 5), depth)

    def test_inverse_needs_invertible_constant(self):
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries([0], 3, moment_marker(8).mod).inv()

    def test_inverse_needs_a_unit_constant_under_a_modulus(self):
        mod = series._Modulus(4, 3)
        for a0 in (3, -3, 1 << 12 | 5, 2):
            with pytest.raises(ValueError, match=r"is not \+-1 modulo 2\^12"):
                TruncatedSeries([a0, 1], 3, mod).inv()
        for a0 in (1, -1, mod.mask, 1 << 12 | 1):  # +-1 modulo M, reduced or not
            f = TruncatedSeries([a0, 1, 7], 3, mod)
            assert _reduced(f * f.inv()) == (1, 0, 0, 0)

    def test_the_mask_is_made_once(self):
        mod = moment_marker(300).mod
        assert mod.mask is mod.mask and mod.mask == (1 << 900) - 1
        assert mod == series._Modulus(300, 3) and hash(mod) == hash((300, 3))
        assert pickle.loads(pickle.dumps(mod)).mask == mod.mask

    def test_truncate_and_valuation(self):
        mod = moment_marker(8, 1).mod
        f = TruncatedSeries([0, 1 << 8, 1], 4, mod)
        assert f.valuation() == 1
        assert f.truncate(2).coeffs == (0, 1 << 8, 1) and f.truncate(2).mod == mod
        assert TruncatedSeries([0], 4, mod).valuation() == 5

    def test_mixed_orders_raise(self):
        mod = moment_marker(8).mod
        with pytest.raises(ValueError, match="mixed truncation orders"):
            TruncatedSeries([1], 3, mod) + TruncatedSeries([1], 4, mod)
        with pytest.raises(ValueError, match="mixed truncation orders"):
            TruncatedSeries([1], 3, mod) * TruncatedSeries.one(4)


class TestSumProduct:
    def test_geometric_factors(self):
        # sum_k prod_{j<=k} z = sum_k z^k = 1/(1-z)
        f = sum_product(lambda j, m: TruncatedSeries([0, 1], m), 10)
        assert f == TruncatedSeries.geometric(10)

    def test_euler_partition_product_style(self):
        # sum_k z^(1+2+...+k) / ... : factors z^j give z^(k(k+1)/2)
        f = sum_product(
            lambda j, m: TruncatedSeries([0] * j + [1], m) if j <= m else
            TruncatedSeries.zero(m),
            12,
        )
        expected = [0] * 13
        k = 0
        while k * (k + 1) // 2 <= 12:
            expected[k * (k + 1) // 2] = 1
            k += 1
        assert [f.coeff(n) for n in range(13)] == expected

    def test_constant_factor_rejected(self):
        with pytest.raises(ValueError, match="nonzero constant term"):
            sum_product(lambda j, m: TruncatedSeries.one(m), 5)

    def test_bivariate_carrier_and_cap_come_from_the_factors(self):
        # sum_k (z(1+eps))^k packed at eps = 2^8 modulo 2^24: z^n carries (1, n, C(n,2))
        m = moment_marker(8, 2)
        f = sum_product(lambda j, room: TruncatedSeries([0, m.value], room, m.mod), 6)
        assert f.mod == m.mod
        assert [tuple(c >> (8 * t) & 255 for t in range(3)) for c in _reduced(f)] == [
            (1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 3, 3), (1, 4, 6), (1, 5, 10), (1, 6, 15)
        ]
        # the same sum of (z(1+v))^k at v = 2^8: z^6 packs C(6, i) as digits
        g = sum_product(lambda j, m: TruncatedSeries([0, 1 + (1 << 8)], m), 6)
        assert isinstance(g, TruncatedSeries)
        assert g.coeff(6) == sum(comb(6, i) << (8 * i) for i in range(7))

    def test_order_zero_keeps_the_carrier(self):
        assert sum_product(lambda j, m: TruncatedSeries.zero(m), 0) == (
            TruncatedSeries.one(0)
        )
        mod = moment_marker(8).mod
        f = sum_product(lambda j, m: TruncatedSeries([0], m, mod), 0)
        assert f == TruncatedSeries.one(0) and f.mod == mod

    def test_partial_products(self):
        # prod_{j<=k} 2z/(1-z) = (2z)^k/(1-z)^k: the recordless 1 first, then
        # one product per k while it reaches the window
        asked = []

        def factor(j, m):
            asked.append((j, m))
            return series._rational_series((0, 2), (1, -1), m)

        products = list(series._partial_products(factor, 4))
        assert products[0] == TruncatedSeries.one(4)
        assert all(p._record is None for p in products)
        assert [p.valuation() for p in products] == [0, 1, 2, 3, 4]
        assert products[2].coeffs == (0, 0, 4, 8, 12)
        assert asked == [(1, 4), (2, 3), (3, 2), (4, 1)]  # none past the window
        # at order 0 the first factor is still requested, at order 0
        asked.clear()
        assert list(series._partial_products(factor, 0)) == [TruncatedSeries.one(0)]
        assert asked == [(1, 0)]
        # every product carries the first factor's modulus
        mod = moment_marker(8).mod
        products = series._partial_products(lambda j, m: TruncatedSeries([0, 1], m, mod), 3)
        assert [p.mod for p in products] == [mod] * 4
