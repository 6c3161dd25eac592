"""Tests for the closed-form growth constants and convergence reports."""

import dataclasses
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishburn.asymptotics import (
    TABLE_IDS,
    AsymptoticForm,
    a158690_expansion,
    blr_expansion,
    constants_ext,
    constants_fishburn,
    constants_fractional,
    constants_general,
    constants_proto,
    constants_row_fishburn,
    constants_self_dual,
    constants_small2,
    named_form,
    ratio_sequence,
    refined_a158690,
    refined_blr,
)
from fishburn.families import (
    ALL,
    PRIMITIVE,
    family_series,
    fishburn_numbers,
    labeled_numbers,
)

mp.mp.dps = 40

REL_12 = mp.mpf(10) ** -12


def _num(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def agree(x, y, rel=REL_12):
    return mp.almosteq(_num(x), _num(y), rel_eps=rel, abs_eps=0)


# ---------------------------------------------------------------------------
# Printed constant pairs.  Each entry types in the closed form exactly as
# published for that sequence, independently of how the module builds it.

def _pi():
    return mp.pi


PRINTED_PAIRS = {
    # (c, rho, n_power) as lambdas so they evaluate at test-time precision.
    "A158690": (lambda: 12 / mp.pi ** mp.mpf("1.5"),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A196194": (lambda: 6 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5"),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A207214": (lambda: 24 / mp.pi ** mp.mpf("1.5"),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A207386": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(-mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A207397": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(-mp.pi**2 / 8),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A207556": (lambda: 24 / mp.pi ** mp.mpf("1.5") * mp.exp(-mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A158691": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A179525": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(-mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A207433": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A289316": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(-mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A289313": (lambda: 12 / mp.pi ** mp.mpf("1.5"),
                lambda: 24 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A022493": (lambda: 12 * mp.sqrt(6) / mp.pi**2 * mp.exp(mp.pi**2 / 12),
                lambda: 6 / (mp.e * mp.pi**2), 1),
    "A138265": (lambda: 12 * mp.sqrt(6) / mp.pi**2 * mp.exp(-mp.pi**2 / 12),
                lambda: 6 / (mp.e * mp.pi**2), 1),
    "A289317": (lambda: 12 * mp.sqrt(6) / mp.pi**2 * mp.exp(-mp.pi**2 / 12),
                lambda: 6 / (mp.e * mp.pi**2), 1),
    "A289312": (lambda: 12 * mp.sqrt(6) / mp.pi**2,
                lambda: 12 / (mp.e * mp.pi**2), 1),
    "A215066": (lambda: 2 * mp.sqrt(3) / mp.pi,
                lambda: 24 / (mp.e * mp.pi**2), 0),
    "A209832": (lambda: 2 * mp.sqrt(6) / mp.pi,
                lambda: 24 / (mp.e * mp.pi**2), 0),
    "A214687": (lambda: 4 * mp.sqrt(3) / mp.pi,
                lambda: 24 / (mp.e * mp.pi**2), 0),
    "A207569": (lambda: 2 * mp.sqrt(3) / mp.pi * mp.exp(-mp.pi**2 / 48),
                lambda: 24 / (mp.e * mp.pi**2), 0),
    "A207570": (lambda: (mp.gamma(mp.mpf(2) / 3) * mp.mpf(3) ** (mp.mpf(5) / 6)
                         / (mp.mpf(2) ** (mp.mpf(1) / 3)
                            * mp.pi ** (mp.mpf(7) / 6))
                         * mp.exp(-mp.pi**2 / 72)),
                lambda: 36 / (mp.e * mp.pi**2), Fraction(-1, 6)),
    "A207571": (lambda: (mp.mpf(12) ** (mp.mpf(2) / 3)
                         / (mp.pi ** (mp.mpf(5) / 6) * mp.gamma(mp.mpf(2) / 3))
                         * mp.exp(-mp.pi**2 / 72)),
                lambda: 36 / (mp.e * mp.pi**2), Fraction(1, 6)),
    "A207652": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(-mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A207653": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A207651": (lambda: 12 * mp.sqrt(6) / mp.pi**2 * mp.exp(mp.pi**2 / 12),
                lambda: 6 / (mp.e * mp.pi**2), 1),
    "A207434": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(-mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(3, 2)),
    "A035378": (lambda: 48 * mp.sqrt(3) / mp.pi**2 * mp.exp(mp.pi**2 / 48),
                lambda: 24 / (mp.e * mp.pi**2), 1),
    "A207557": (lambda: 24 * mp.sqrt(6) / mp.pi**3 * mp.exp(-mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), 1),
    "A186737": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(mp.pi**2 / 24),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
    "A224885": (lambda: 12 / mp.pi ** mp.mpf("1.5") * mp.exp(mp.pi**2 / 8),
                lambda: 12 / (mp.e * mp.pi**2), Fraction(1, 2)),
}


def test_registry_covers_printed_table():
    assert set(TABLE_IDS) == set(PRINTED_PAIRS)


@pytest.mark.parametrize("name", sorted(PRINTED_PAIRS))
def test_printed_constant_pairs(name):
    c_fn, rho_fn, theta = PRINTED_PAIRS[name]
    form = named_form(name)
    assert agree(form.c, c_fn()), name
    assert agree(form.rho, rho_fn()), name
    assert agree(form.n_power, theta) or form.n_power == theta
    assert form.label == name
    assert not form.half_exponent


def test_named_form_unknown():
    with pytest.raises(KeyError, match="A000001"):
        named_form("A000001")


def test_table_power_offsets():
    assert named_form("A207434").n_power == mp.mpf(3) / 2
    assert agree(named_form("A207570").n_power, Fraction(-1, 6))
    assert agree(named_form("A207571").n_power, Fraction(1, 6))
    # Doubling every weight doubles rho but leaves c alone here.
    assert agree(named_form("A289313").c, named_form("A158690").c)
    assert agree(named_form("A289313").rho, 2 * named_form("A158690").rho)


# ---------------------------------------------------------------------------
# Exponential prototype and its specializations


def test_proto_base_case():
    form = constants_proto(1, 0)
    assert agree(form.c, 12 / mp.pi ** mp.mpf("1.5"))
    assert agree(form.rho, 12 / (mp.e * mp.pi**2))
    assert form.n_power == mp.mpf(1) / 2
    assert form.beta == 0 and not form.half_exponent and not form.bound_only


def test_proto_negative_half_shift():
    form = constants_proto(1, Fraction(-1, 2))
    assert agree(form.c, 2 * mp.sqrt(3) / mp.pi)
    assert form.n_power == 0


@pytest.mark.parametrize("omega", [-1, -2, -5, Fraction(-3, 1), -1.0])
def test_proto_negative_integer_shift_is_bound_only(omega):
    form = constants_proto(1, omega)
    assert form.bound_only
    assert form.c == 0
    with pytest.raises(ValueError, match="bound-only"):
        form.evaluate(10)


@pytest.mark.parametrize("omega", [Fraction(-1, 2), Fraction(-99, 100), 0, 2])
def test_proto_other_shifts_not_bound_only(omega):
    assert not constants_proto(2, omega).bound_only


@pytest.mark.parametrize("alpha,omega", [
    (1, 0), (2, 0), (3, 0), (1, Fraction(1, 2)), (2, Fraction(-1, 4)),
])
def test_general_specializes_to_proto(alpha, omega):
    proto = constants_proto(alpha, omega)
    gen = constants_general(alpha, omega, 0, 1, Fraction(1, 2))
    assert agree(proto.c, gen.c)
    assert agree(proto.rho, gen.rho)
    assert proto.n_power == gen.n_power


@pytest.mark.parametrize("lam1,lam2", [(1, 0), (1, 1), (2, 2), (3, 1)])
def test_row_fishburn_is_general_alpha_one(lam1, lam2):
    row = constants_row_fishburn(lam1, lam2)
    gen = constants_general(1, 0, 0, lam1, lam2)
    assert agree(row.c, gen.c) and agree(row.rho, gen.rho)
    assert row.n_power == mp.mpf(1) / 2


@pytest.mark.parametrize("lam1,lam2", [(1, 0), (1, 1), (2, 2), (2, 3)])
def test_fishburn_is_general_alpha_two(lam1, lam2):
    fish = constants_fishburn(lam1, lam2)
    gen = constants_general(2, 0, lam1, lam1, lam2)
    assert agree(fish.c, gen.c) and agree(fish.rho, gen.rho)
    assert fish.n_power == 1


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (3, 2), (5, 3)])
def test_fractional_is_shifted_general(p, s):
    frac = constants_fractional(p, s)
    gen = constants_general(1, Fraction(-s, p), 0, p, Fraction(p * (p - 1), 2))
    assert agree(frac.c, gen.c)
    assert agree(frac.rho, gen.rho)
    assert agree(frac.n_power, gen.n_power)


def test_rho_ignores_d_and_higher_e_coefficients():
    base = constants_general(1, 0, 0, 1, 0)
    for d1 in (Fraction(-1, 2), 0, 1, 7):
        for e2 in (-1, 0, Fraction(1, 2), 3):
            form = constants_general(1, 0, d1, 1, e2)
            assert form.rho == base.rho  # bit-identical, not just close


def test_d1_enters_only_through_power_of_two():
    base = constants_general(1, 0, 0, 1, 0)
    for d1 in (1, 2, Fraction(-1, 2)):
        form = constants_general(1, 0, d1, 1, 0)
        assert agree(form.c / base.c, mp.power(2, _num(Fraction(d1))))


def test_general_rejects_zero_or_negative_e1():
    with pytest.raises(ValueError, match="constants_ext"):
        constants_general(1, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="positive"):
        constants_general(1, 0, 0, -1, 1)


@pytest.mark.parametrize("fn", [constants_row_fishburn, constants_fishburn,
                                constants_self_dual])
def test_lambda_families_require_ones(fn):
    with pytest.raises(ValueError, match="constants_small2"):
        fn(0, 1)


@pytest.mark.parametrize("bad_alpha", [0, -1, Fraction(1, 2), 1.5, True])
def test_alpha_must_be_positive_integer(bad_alpha):
    with pytest.raises(ValueError, match="positive integer"):
        constants_proto(bad_alpha, 0)


def test_omega_must_be_real():
    with pytest.raises(TypeError, match="real"):
        constants_proto(1, 1j)


@pytest.mark.parametrize("p,s", [(2, 0), (2, 2), (2, 3), (3, -1)])
def test_fractional_requires_proper_ratio(p, s):
    with pytest.raises(ValueError, match="0 < s < p"):
        constants_fractional(p, s)


# ---------------------------------------------------------------------------
# e1 = 0 regime


def test_self_dual_printed_value():
    form = constants_self_dual(1, 1)
    # c = (6/pi^(3/2)) * exp(pi^2/24 - 1/4 + 3*(log 2)^2/(2 pi^2))
    closed = (6 / mp.pi ** mp.mpf("1.5")
              * mp.exp(mp.pi**2 / 24 - mp.mpf(1) / 4
                       + 3 * mp.ln2**2 / (2 * mp.pi**2)))
    assert agree(form.c, closed)
    assert abs(form.c - mp.mpf("1.361951039")) < mp.mpf("5e-10")
    assert agree(form.beta, mp.sqrt(6) * mp.ln2 / mp.pi)
    assert agree(form.rho, 6 / (mp.e * mp.pi**2))
    assert form.n_power == mp.mpf(1) / 2
    assert form.half_exponent


def test_primitive_self_dual_printed_value():
    form = constants_self_dual(1, 0)
    assert mp.nstr(form.c, 3) == "0.299"
    assert agree(form.beta, mp.sqrt(6) * mp.ln2 / mp.pi)


@pytest.mark.parametrize("lam1,lam2", [(1, 0), (1, 1), (2, 2), (3, 1)])
def test_self_dual_closed_form(lam1, lam2):
    """The two-parameter closed form versus the seven-parameter route."""
    form = constants_self_dual(lam1, lam2)
    L1, L2 = mp.mpf(lam1), mp.mpf(lam2)
    c = (3 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5")
         * mp.power(2, L2 / L1 - L1 / 2)
         * mp.exp(-L1 / 4 - mp.pi**2 / 24 + mp.pi**2 * L2 / (12 * L1**2)
                  + 3 * L1 * mp.ln2**2 / (2 * mp.pi**2)))
    assert agree(form.c, c)
    assert agree(form.beta, mp.sqrt(6 * L1) * mp.ln2 / mp.pi)
    assert agree(form.rho, 6 * L1 / (mp.e * mp.pi**2))


@pytest.mark.parametrize("alpha,omega", [
    (1, 0), (2, 0), (1, Fraction(1, 2)), (3, Fraction(-1, 3)),
])
def test_ext_matches_exponential_prototype(alpha, omega):
    """d = e^z, e = e^(z^2) reduces to the printed square-root prototype."""
    form = constants_ext(alpha, omega, 1, Fraction(1, 2), 1, 0, Fraction(1, 2))
    a = mp.mpf(alpha)
    om = _num(Fraction(omega))
    c = (mp.sqrt(3) / (mp.sqrt(2) * a * mp.pi)
         * (mp.rgamma(1 + om) * mp.sqrt(12 / (a * mp.pi))
            * (6 / (a * mp.pi**2)) ** om) ** alpha
         * mp.exp(-1 / (4 * a) + 3 * mp.ln2**2 / (2 * a * mp.pi**2)))
    assert agree(form.c, c)
    assert agree(form.beta, mp.sqrt(6) * mp.ln2 / (mp.sqrt(a) * mp.pi))
    assert agree(form.rho, 6 / (mp.e * mp.pi**2 * a))
    assert form.n_power == a / 2 + a * om
    assert form.half_exponent


def test_ext_rho_depends_only_on_alpha_and_e2():
    base = constants_ext(1, 0, 1, 0, 2, 0, 0)
    for d1, d2, e3, e4 in [(1, 5, 0, 0), (2, 0, 1, 0), (1, 0, 0, -3),
                           (Fraction(1, 2), 1, Fraction(1, 3), 2)]:
        form = constants_ext(1, 0, d1, d2, 2, e3, e4)
        assert form.rho == base.rho


def test_ext_beta_positive_condition():
    # Positive beta whenever alpha*e3*pi^2 + 12*d1*e2*log 2 > 0.
    assert constants_ext(1, 0, 1, 0, 1, 0, 0).beta > 0
    assert constants_ext(1, 0, 0, 0, 1, Fraction(1, 10), 0).beta > 0
    # d1 slightly negative but e3 large enough still works.
    form = constants_ext(1, 0, Fraction(-1, 100), 0, 1, 1, 0)
    assert form.beta > 0
    with pytest.raises(ValueError, match="constants_small2"):
        constants_ext(1, 0, 0, 0, 1, 0, 0)
    with pytest.raises(ValueError, match="constants_small2"):
        constants_ext(1, 0, 1, 0, 1, -10, 0)


def test_ext_requires_positive_e2():
    with pytest.raises(ValueError, match="e2 must be positive"):
        constants_ext(1, 0, 1, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="e2 must be positive"):
        constants_ext(1, 0, 1, 0, -1, 1, 0)


# ---------------------------------------------------------------------------
# Smallest entry 2 (no 1s at all)


def test_small2_no_ones_printed_example():
    form = constants_small2(1, 1, 1)
    assert agree(form.beta, mp.pi / (2 * mp.sqrt(3)))
    assert agree(form.c, 3 * mp.sqrt(6) / mp.pi**2 * mp.exp(-mp.pi**2 / 16))
    assert agree(form.rho, 3 / (mp.e * mp.pi**2))
    assert form.n_power == 1 and form.half_exponent
    assert form.parity is None


def test_small2_beta_scales_with_lam3():
    slope = mp.pi / (2 * mp.sqrt(3))
    for lam3 in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
        form = constants_small2(1, lam3, 1)
        assert agree(form.beta, slope * _num(lam3))
    assert constants_small2(1, 0, 1).beta == 0


def test_small2_m2_parity_pair():
    # Entry values {2, 4, 5}: m = 2, lam_odd = lam5 = 1.
    form = constants_small2(1, 0, 1, 1, m=2)
    even, odd = form.parity
    shared = mp.exp(mp.pi**2 / 12)
    assert agree(even.c, 6 * mp.sqrt(6) / mp.pi**2 * shared)
    assert agree(odd.c, mp.sqrt(2) * mp.pi * shared)
    assert even.n_power == 1
    assert odd.n_power == mp.mpf(1) / 2
    assert even.rho == odd.rho and agree(even.rho, 3 / (mp.e * mp.pi**2))
    assert even.beta == 0 and odd.beta == 0
    # Top-level fields mirror the even branch.
    assert form.c == even.c and form.n_power == even.n_power
    # Explicit branch selection returns the bare forms.
    assert constants_small2(1, 0, 1, 1, m=2, parity="even") == even
    assert constants_small2(1, 0, 1, 1, m=2, parity="odd") == odd


def test_small2_m3_odd_power_drops():
    form = constants_small2(1, 0, 0, 1, m=3)
    assert form.parity[1].n_power == mp.mpf(5) / 2 - 3
    # c_odd is linear in the first odd weight.
    double = constants_small2(1, 0, 0, 2, m=3)
    assert agree(double.parity[1].c, 2 * form.parity[1].c)
    assert agree(double.parity[0].c, form.parity[0].c)


def test_small2_validation():
    with pytest.raises(ValueError, match="lam2 must be positive"):
        constants_small2(0, 1, 1)
    with pytest.raises(ValueError, match="lam3 itself"):
        constants_small2(1, 1, 1, lam_odd=2)
    with pytest.raises(ValueError, match="parity"):
        constants_small2(1, 1, 1, parity="even")
    with pytest.raises(ValueError, match="lam3 = 0"):
        constants_small2(1, 1, 1, 1, m=2)
    with pytest.raises(ValueError, match="2m\\+1"):
        constants_small2(1, 0, 1, m=2)
    with pytest.raises(ValueError, match="parity must be"):
        constants_small2(1, 0, 1, 1, m=2, parity="both")


def test_small2_parity_branch_evaluation():
    form = constants_small2(1, 0, 1, 1, m=2)
    even, odd = form.parity
    assert form.evaluate(10) == even.evaluate(10)
    assert form.evaluate(11) == odd.evaluate(11)
    assert form.branch(10) is even and form.branch(11) is odd


# ---------------------------------------------------------------------------
# AsymptoticForm evaluation mechanics


def test_evaluate_full_exponent_matches_direct():
    form = constants_proto(1, 0)
    n = 10
    direct = form.c * form.rho**n * mp.mpf(n) ** (n + form.n_power)
    assert agree(form.evaluate(n), direct)


def test_evaluate_half_exponent_matches_direct():
    form = constants_self_dual(1, 1)
    n = 9
    direct = (form.c * mp.exp(form.beta * mp.sqrt(n))
              * form.rho ** (mp.mpf(n) / 2)
              * mp.mpf(n) ** (mp.mpf(n) / 2 + form.n_power))
    assert agree(form.evaluate(n), direct)


def test_evaluate_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        constants_proto(1, 0).evaluate(0)


def test_describe_mentions_shape():
    assert "rho^n" in constants_proto(1, 0).describe()
    assert "rho^(n/2)" in constants_self_dual(1, 1).describe()
    assert "exp(beta*sqrt(n))" in constants_self_dual(1, 1).describe()
    assert "parity pair" in constants_small2(1, 0, 1, 1, m=2).describe()
    assert "bound" in constants_proto(1, -1).describe()


# ---------------------------------------------------------------------------
# Refined expansions


def _egf_coefficients(n_max):
    values = labeled_numbers(n_max)
    return [Fraction(v, factorial(n)) for n, v in enumerate(values)]


def test_refined_a158690_error_decays_cubically():
    coeffs = _egf_coefficients(100)
    errs = {}
    for n in (50, 100):
        exact = mp.mpf(coeffs[n].numerator) / coeffs[n].denominator
        errs[n] = abs(refined_a158690(n, 3) / exact - 1)
    assert errs[100] < errs[50]
    ratio = errs[100] / errs[50]
    assert 0.06 < ratio < 0.25  # consistent with O(n^-3)


def test_refined_a158690_term_count_improves():
    coeffs = _egf_coefficients(80)
    exact = mp.mpf(coeffs[80].numerator) / coeffs[80].denominator
    errors = [abs(refined_a158690(80, t) / exact - 1) for t in (1, 2, 3)]
    assert errors[0] > errors[1] > errors[2]


def test_refined_a158690_single_term_is_bare_form():
    exp = a158690_expansion(1)
    assert exp.coefficients == ()
    n = 12
    bare = (6 * mp.sqrt(2) / mp.pi**2) * (12 / mp.pi**2) ** n * mp.factorial(n)
    assert agree(refined_a158690(n, 1), bare)


def test_refined_a158690_coefficients():
    exp = a158690_expansion(4)
    seed = -(mp.pi**2) / 288
    for j, cj in enumerate(exp.coefficients, start=1):
        assert agree(cj, seed**j / mp.factorial(j))
    assert exp.falling


def test_blr_printed_coefficients():
    exp = blr_expansion()
    c1, c2, c3 = exp.coefficients
    assert abs(c1 - mp.mpf("0.43333")) < mp.mpf("1e-5")
    # The paper prints c2 = -0.056119 and c3 = -0.033780; the exact counts
    # give the values below (test_blr_c3_matches_exact_counts).
    assert abs(c2 - mp.mpf("-0.056127")) < mp.mpf("1e-5")
    assert abs(c3 - mp.mpf("-0.033679")) < mp.mpf("1e-5")
    assert agree(exp.c, 6 * mp.sqrt(2) / mp.pi**2 * mp.exp(-mp.pi**2 / 24))
    assert agree(exp.rho, 12 / mp.pi**2)
    assert not exp.falling


def test_blr_c3_matches_exact_counts():
    # s_n = n^3 (a_n / (c rho^n n!) - 1 - c1/n - c2/n^2) = c3 + O(1/n); a
    # 10-node polynomial extrapolation in 1/n over n = 300, 297, ... lands
    # within about 1e-23 of the closed form.
    counts = family_series("row-fishburn", PRIMITIVE, 300).coeffs
    exp = blr_expansion()
    c1, c2, c3 = exp.coefficients
    with mp.workdps(150):
        nodes = [300 - 3 * j for j in range(10)]
        xs = [mp.mpf(1) / n for n in nodes]
        ys = [n**3 * (mp.mpf(counts[n]) / (exp.c * exp.rho**n * mp.factorial(n))
                      - 1 - c1 / n - c2 / n**2) for n in nodes]
        limit = mp.fsum(
            y * mp.fprod(xi / (xi - x) for xi in xs if xi != x) for x, y in zip(xs, ys)
        )
        assert abs(limit - mp.mpf("-0.03367929529329243272")) < mp.mpf("1e-19")
        assert abs(c3 - limit) < mp.mpf("1e-15")


def test_refined_blr_tracks_exact_coefficients():
    series = family_series("row-fishburn", PRIMITIVE, 90)
    errs = {}
    for n in (30, 60, 90):
        errs[n] = abs(refined_blr(n) / mp.mpf(series.coeff(n)) - 1)
    assert errs[30] < mp.mpf("1e-7")
    assert errs[90] < errs[60] < errs[30]


def test_refined_expansion_validation():
    with pytest.raises(ValueError, match="positive integer"):
        a158690_expansion(0)
    with pytest.raises(ValueError):
        blr_expansion().evaluate(0)


# ---------------------------------------------------------------------------
# Ratio sequences and Richardson extrapolation


def test_fishburn_ratio_extrapolates_to_one():
    counts = fishburn_numbers(60)
    report = ratio_sequence(counts, constants_fishburn(1, 1), [30, 45, 60])
    assert abs(report.extrapolated_limit - 1) < mp.mpf("1e-4")
    # Corrections behave like 1/n.
    assert abs(report.correction_exponent - 1) < mp.mpf("0.1")
    assert report.n_values == (30, 45, 60)
    assert not report.half_exponent


def test_primitive_row_ratio_extrapolates_to_one():
    series = family_series("row-fishburn", PRIMITIVE, 90)
    values = [series.coeff(n) for n in range(91)]
    report = ratio_sequence(values, constants_row_fishburn(1, 0), [45, 60, 90])
    assert abs(report.extrapolated_limit - 1) < mp.mpf("1e-4")


def test_self_dual_ratio_uses_sqrt_scale():
    series = family_series("self-dual", ALL, 160)
    values = [series.coeff(n) for n in range(161)]
    form = constants_self_dual(1, 1)
    report = ratio_sequence(values, form, [80, 120, 160])
    assert report.half_exponent
    # Extrapolation beats the raw ratio by a wide margin.
    raw_err = abs(report.ratios[-1] - 1)
    assert abs(report.extrapolated_limit - 1) < raw_err / 10
    assert abs(report.extrapolated_limit - 1) < mp.mpf("5e-3")
    # Corrections behave like 1/sqrt(n): |r - 1| * sqrt(n) stays bounded.
    for n, r in report.rows():
        assert abs(r - 1) * mp.sqrt(n) < mp.mpf("0.5")


def test_fishburn_error_times_n_is_bounded():
    counts = fishburn_numbers(60)
    form = constants_fishburn(1, 1)
    for n in (20, 40, 60):
        ratio = mp.mpf(counts[n]) / form.evaluate(n)
        assert abs(ratio - 1) * n < 1


def test_ratio_sequence_two_points():
    counts = fishburn_numbers(40)
    report = ratio_sequence(counts, constants_fishburn(1, 1), [20, 40])
    assert len(report.ratios) == 2
    assert abs(report.extrapolated_limit - 1) < mp.mpf("1e-2")


def test_ratio_sequence_accepts_fractions():
    coeffs = _egf_coefficients(60)
    report = ratio_sequence(coeffs, constants_proto(1, 0), [20, 40, 60])
    assert abs(report.extrapolated_limit - 1) < mp.mpf("1e-3")


def test_ratio_sequence_validation():
    counts = fishburn_numbers(20)
    form = constants_fishburn(1, 1)
    with pytest.raises(ValueError, match="two distinct"):
        ratio_sequence(counts, form, [10])
    with pytest.raises(ValueError, match="too short"):
        ratio_sequence(counts, form, [10, 30])
    with pytest.raises(ValueError, match="not positive"):
        ratio_sequence([0] * 21, form, [10, 20])
    with pytest.raises(ValueError, match=">= 1"):
        ratio_sequence(counts, form, [0, 10])


def test_ratio_sequence_rows_roundtrip():
    counts = fishburn_numbers(30)
    report = ratio_sequence(counts, constants_fishburn(1, 1), [15, 30])
    rows = report.rows()
    assert [n for n, _ in rows] == [15, 30]
    assert rows[0][1] == report.ratios[0]


# ---------------------------------------------------------------------------
# Property-style checks


@given(alpha=st.integers(1, 4),
       omega=st.fractions(min_value=-2, max_value=2, max_denominator=6))
@settings(max_examples=40, deadline=None)
def test_general_proto_coherence_property(alpha, omega):
    proto = constants_proto(alpha, omega)
    gen = constants_general(alpha, omega, 0, 1, Fraction(1, 2))
    if proto.bound_only:
        assert gen.bound_only and gen.c == 0
    else:
        assert agree(proto.c, gen.c, rel=mp.mpf(10) ** -25)


@given(d1=st.fractions(min_value=-3, max_value=3, max_denominator=4),
       e2=st.fractions(min_value=-2, max_value=4, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_general_rho_invariance_property(d1, e2):
    form = constants_general(2, 0, d1, 3, e2)
    assert form.rho == constants_general(2, 0, 0, 3, 0).rho


@given(lam1=st.integers(1, 5), lam2=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_family_constants_positive_property(lam1, lam2):
    for form in (constants_row_fishburn(lam1, lam2),
                 constants_fishburn(lam1, lam2),
                 constants_self_dual(lam1, lam2)):
        assert form.c > 0 and form.rho > 0
        assert form.beta >= 0


@given(lam2=st.integers(1, 4), lam4=st.integers(0, 4),
       lam_odd=st.integers(1, 4), m=st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_small2_shared_rho_property(lam2, lam4, lam_odd, m):
    form = constants_small2(lam2, 0, lam4, lam_odd, m=m)
    even, odd = form.parity
    assert even.rho == odd.rho
    assert odd.n_power == mp.mpf(5) / 2 - m
    assert even.n_power == 1
