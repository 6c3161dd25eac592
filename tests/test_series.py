"""Unit and property tests for the truncated-series carriers."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishburn.series import (
    BivariateSeries,
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


class TestCalculusAndSubstitution:
    def test_exp_linear_values(self):
        e3 = exp_linear(3, 6)
        for n in range(7):
            assert e3.coeff(n) == Fraction(3**n, factorial(n))
        em1 = exp_linear(-1, 5)
        assert em1.coeff(3) == Fraction(-1, 6)

    def test_log_of_geometric(self):
        # log(1/(1-z)) = sum z^n/n
        f = TruncatedSeries.geometric(8).log()
        assert f.coeff(0) == 0
        for n in range(1, 9):
            assert f.coeff(n) == Fraction(1, n)

    @given(unit_series_st)
    @settings(max_examples=40)
    def test_exp_log_roundtrip_via_coefficients(self, a):
        # exp(log a) = a checked through the defining ODE: (log a)' * a = a'
        la = a.log()
        assert la.derivative() * a.truncate(ORDER - 1) == a.derivative()

    def test_substitute_scale(self):
        f = TruncatedSeries([1, 1, 1, 1], 3)
        g = f.substitute_scale(2)
        assert [g.coeff(n) for n in range(4)] == [1, 2, 4, 8]

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
        f = BivariateSeries([m.v_power(5)], 3, cap=2)
        g = f * f  # v^10 -> 1 + 10 eps + 45 eps^2
        assert g.coeff(0) == (1, 10, 45)

    def test_monomial_marker(self):
        m = monomial_marker()
        assert m.v_power(3) == (0, 0, 0, 1)
        assert m.cap is None

    def test_mixed_caps_raise(self):
        a = BivariateSeries.one(3, cap=2)
        b = BivariateSeries.one(3)
        with pytest.raises(ValueError, match="mixed marking caps"):
            a + b

    def test_inv(self):
        # 1 - v z has inverse sum v^n z^n
        f = BivariateSeries([(1,), (0, -1)], 5)
        g = f.inv()
        for n in range(6):
            assert g.coeff_vm(n, n) == 1
        assert (f * g) == BivariateSeries.one(5)


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
        # sum_k (z(1+v))^k with the jet capped at v^2: z^n carries (1, n, C(n,2))
        f = sum_product(lambda j, m: BivariateSeries([(), (1, 1)], m, 2), 6)
        assert isinstance(f, BivariateSeries)
        assert f.cap == 2
        assert [f.coeff(n) for n in range(7)] == [
            (1,), (1, 1), (1, 2, 1), (1, 3, 3), (1, 4, 6), (1, 5, 10), (1, 6, 15)
        ]

    def test_order_zero_keeps_the_carrier(self):
        assert sum_product(lambda j, m: TruncatedSeries.zero(m), 0) == (
            TruncatedSeries.one(0)
        )
        f = sum_product(lambda j, m: BivariateSeries.zero(m, 2), 0)
        assert f == BivariateSeries.one(0, 2)

    def test_dpart_prefactor(self):
        # sum_k 2^k z^k = 1/(1-2z) with dpart(k)=2^k, factor z
        f = sum_product(
            lambda j, m: TruncatedSeries([0, 1], m),
            8,
            dpart=lambda k: TruncatedSeries.constant(2**k, 8),
        )
        assert [f.coeff(n) for n in range(9)] == [2**n for n in range(9)]
