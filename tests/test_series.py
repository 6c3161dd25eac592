"""Unit and property tests for the truncated-series carriers."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishburn.series as series
from fishburn.series import (
    BivariateSeries,
    Jet,
    TruncatedSeries,
    bernoulli_numbers,
    exp_linear,
    jet_marker,
    monomial_marker,
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
        assert (a + (-a)).is_zero()

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
    b = bernoulli_numbers(8)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)


class TestBivariate:
    def test_round_trip_at_v_one(self):
        f = TruncatedSeries([1, 3, 0, 2], 5)
        g = BivariateSeries.from_univariate(f)
        assert g.at_v_one() == f

    def test_v_marking_multiplication(self):
        # (1 + v z)^2 = 1 + 2 v z + v^2 z^2
        f = BivariateSeries([(1,), (0, 1)], 4)
        g = f * f
        assert g.coeff(0) == (1,)
        assert g.coeff(1) == (0, 2)
        assert g.coeff(2) == (0, 0, 1)

    def test_jet_cap_truncates_polynomials(self):
        m = jet_marker(2)
        # v^5 as a jet: (1+eps)^5 -> 1 + 5 eps + 10 eps^2
        assert m.v_power(5) == (1, 5, 10)
        f = m.series([m.v_power(5)], 3)
        assert isinstance(f, Jet) and f.depth == 2
        g = f * f  # v^10 -> 1 + 10 eps + 45 eps^2
        assert [g.coeff_vm(0, t) for t in range(3)] == [1, 10, 45]
        with pytest.raises(IndexError):
            g.coeff_vm(0, 3)

    def test_monomial_marker(self):
        m = monomial_marker()
        assert m.v_power(3) == (0, 0, 0, 1)
        # no cap: the full v-polynomial survives a product
        f = m.series([m.v_power(3)], 3)
        assert isinstance(f, BivariateSeries)
        assert (f * f).coeff(0) == (0,) * 6 + (1,)

    def test_mixed_caps_raise(self):
        a = Jet.one(3, 2)
        b = BivariateSeries.one(3)
        with pytest.raises(ValueError, match="mixed carriers"):
            a + b
        with pytest.raises(ValueError, match="mixed carriers"):
            b + a
        with pytest.raises(ValueError, match="mixed jet depths"):
            a + Jet.one(3, 3)
        with pytest.raises(ValueError, match="mixed jet depths"):
            a * Jet.one(3, 1)

    def test_inv(self):
        # 1 - v z has inverse sum v^n z^n
        f = BivariateSeries([(1,), (0, -1)], 5)
        g = f.inv()
        for n in range(6):
            assert g.coeff_vm(n, n) == 1
        assert (f * g) == BivariateSeries.one(5)


poly_st = st.lists(st.integers(min_value=-3, max_value=3), max_size=4).map(tuple)
bivariate_st = st.lists(poly_st, max_size=6).map(lambda ps: BivariateSeries(ps, 5))


def _as_jet(f: BivariateSeries, depth: int) -> Jet:
    """Substitute v = 1 + eps: the eps^t part at z^n is sum_m C(m, t) [v^m z^n]."""
    return Jet(
        TruncatedSeries(
            [sum(comb(m, t) * c for m, c in enumerate(p)) for p in f.coeffs], f.order
        )
        for t in range(depth + 1)
    )


class TestJet:
    @given(bivariate_st, bivariate_st, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_ring_operations_commute_with_v_equals_one_plus_eps(self, a, b, depth):
        ja, jb = _as_jet(a, depth), _as_jet(b, depth)
        assert _as_jet(a + b, depth) == ja + jb
        assert _as_jet(a - b, depth) == ja - jb
        assert _as_jet(a * b, depth) == ja * jb

    @given(bivariate_st, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_inverse(self, a, depth):
        a = BivariateSeries(((1,),) + a.coeffs[1:], a.order)
        ja = _as_jet(a, depth)
        assert ja.inv() == _as_jet(a.inv(), depth)
        assert ja * ja.inv() == Jet.one(a.order, depth)

    def test_inverse_needs_invertible_constant(self):
        with pytest.raises(ZeroDivisionError):
            Jet.from_univariate(TruncatedSeries.zero(3), 2).inv()

    def test_truncate_and_valuation(self):
        f = Jet([TruncatedSeries([0, 0, 1], 4), TruncatedSeries([0, 1], 4)])
        assert f.valuation() == 1
        assert f.truncate(2) == Jet(
            [TruncatedSeries([0, 0, 1], 2), TruncatedSeries([0, 1], 2)]
        )
        assert Jet.from_univariate(TruncatedSeries.zero(4), 1).valuation() == 5

    def test_mixed_orders_raise(self):
        with pytest.raises(ValueError, match="mixed truncation orders"):
            Jet.one(3, 2) + Jet.one(4, 2)
        with pytest.raises(ValueError, match="mixed truncation orders"):
            Jet([TruncatedSeries.one(3), TruncatedSeries.one(4)])


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
        # sum_k (z(1+eps))^k as a depth-2 jet: z^n carries (1, n, C(n,2))
        z = TruncatedSeries.x
        f = sum_product(lambda j, m: Jet([z(m), z(m), TruncatedSeries.zero(m)]), 6)
        assert isinstance(f, Jet)
        assert f.depth == 2
        assert [tuple(f.coeff_vm(n, t) for t in range(3)) for n in range(7)] == [
            (1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 3, 3), (1, 4, 6), (1, 5, 10), (1, 6, 15)
        ]
        g = sum_product(lambda j, m: BivariateSeries([(), (1, 1)], m), 6)
        assert isinstance(g, BivariateSeries)
        assert g.coeff(6) == tuple(comb(6, i) for i in range(7))

    def test_order_zero_keeps_the_carrier(self):
        assert sum_product(lambda j, m: TruncatedSeries.zero(m), 0) == (
            TruncatedSeries.one(0)
        )
        f = sum_product(lambda j, m: Jet.from_univariate(TruncatedSeries.zero(m), 2), 0)
        assert f == Jet.one(0, 2)
        g = sum_product(lambda j, m: BivariateSeries.zero(m), 0)
        assert g == BivariateSeries.one(0)

    def test_dpart_prefactor(self):
        # sum_k 2^k z^k = 1/(1-2z) with dpart(k)=2^k, factor z
        f = sum_product(
            lambda j, m: TruncatedSeries([0, 1], m),
            8,
            dpart=lambda k: TruncatedSeries.constant(2**k, 8),
        )
        assert [f.coeff(n) for n in range(9)] == [2**n for n in range(9)]
