"""Exact identity checks between alternative series representations.

Each verifier recomputes both sides of an identity from scratch with exact
arithmetic and reports the first mismatching coefficient, if any.  These are
the dual-route checks backing the series builders in `families`: an identity
holding to a substantial truncation order is strong evidence that both
constructions implement the intended object.

One side of each identity is a public builder of `families` (``family_gf``,
``stat_gf``, ``named_gf``, ``named_sequence`` or ``ramanujan_r``), built
first, so an order above the series budget is rejected before anything is
built.  The other side, a route no builder needs, is stated here, just above
the verifier that compares it: a ``GeneralSum`` built from the factor helpers
of `families`, or for the A035378 rewritings a ``_paired_sum``, as for the
defining sum, whose k-dependent prefactor is no ``GeneralSum``.  The direct
Fishburn forms take a marker, as ``stat_gf`` does, so they build packed
profiles and moments too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .series import (Marker, TruncatedSeries, _as_int, _rational_series,
                     eval_marker, exp_linear)
from .families import (
    ALL,
    FAMILY_STATS,
    PRIMITIVE,
    GeneralSum,
    LambdaSpec,
    Power,
    family_gf,
    lambda_atom,
    lambda_series,
    named_gf,
    named_sequence,
    ramanujan_r,
    stat_gf,
    _ONE_MINUS_Z,
    _ONE_PLUS_Z,
    _check_budget,
    _exps,
    _inverse_binomials,
    _paired_sum,
    _require_count,
)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    order: int
    ok: bool
    first_mismatch: Optional[int] = None
    lhs_value: Optional[Fraction] = None
    rhs_value: Optional[Fraction] = None

    def __str__(self):
        if self.ok:
            return f"{self.name}: exact through z^{self.order}"
        return (
            f"{self.name}: first mismatch at z^{self.first_mismatch} "
            f"({self.lhs_value} != {self.rhs_value})"
        )


def _compare(name: str, lhs: TruncatedSeries, rhs: TruncatedSeries) -> IdentityReport:
    return _compare_terms(name, lhs.coeffs, rhs.coeffs)


def _compare_terms(name: str, lhs: Sequence, rhs: Sequence) -> IdentityReport:
    """The first index where two term lists differ; the shorter sets the order."""
    order = min(len(lhs), len(rhs)) - 1
    for n, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return IdentityReport(name, order, False, n, Fraction(a), Fraction(b))
    return IdentityReport(name, order, True)


def _merge(name: str, parts: Sequence[IdentityReport]) -> IdentityReport:
    """The first failing part, named `name [part]`, else the least order compared."""
    for p in parts:
        if not p.ok:
            return IdentityReport(f"{name} [{p.name}]", p.order, False,
                                  p.first_mismatch, p.lhs_value, p.rhs_value)
    return IdentityReport(name, min(p.order for p in parts), True)


# ---------------------------------------------------------------------------
# The inverse-product / squared-product transformation
# ---------------------------------------------------------------------------

def _direct_sum(L: TruncatedSeries) -> GeneralSum:
    """sum_k prod_{1<=j<=k} (1 - L^{-j})."""
    Li = L.inv()
    return GeneralSum(y=Power(Li, Li))


def _direct_family(spec: LambdaSpec, order: int) -> TruncatedSeries:
    """The Fishburn series in its direct form sum_k prod_j (1 - L^{-j})."""
    return _direct_sum(lambda_series(spec, order)).series(order)


def _direct_stat(stat: str, spec: LambdaSpec, order: int,
                 marker: Marker) -> TruncatedSeries:
    """The direct form of ``stat_gf("fishburn", stat, spec, order, marker)``,
    B the atom marking the statistic:

    first_row  sum_k prod_j (1 - B^{-1} L^{1-j})
    diagonal   B + (B - 1)^2 sum_k prod_j (B - L^{-j})
    ones/twos  sum_k prod_j (1 - B^{-j})
    """
    if stat in ("ones", "twos"):
        return _direct_sum(lambda_atom(spec, order, marker, stat)).series(order)
    B = lambda_atom(spec, order, marker, "size")
    Li = lambda_series(spec, order).inv()
    if stat == "first_row":
        return GeneralSum(y=Power(B.inv(), Li)).series(order)
    bm1 = B - TruncatedSeries.one(order)
    return B + (bm1 * bm1) * GeneralSum(B, y=Power(Li, Li)).series(order)


def verify_andrews_jelinek(spec: LambdaSpec, order: int) -> IdentityReport:
    """sum_k prod_j (1 - L^{-j})  ==  L sum_k prod_j L (L^j - 1)^2, exactly,
    for the family series through z^order and, at v = 2 through
    z^min(order, 30), for the marking series of each Fishburn statistic
    (the 1s only when the value 1 is allowed)."""
    rhs = family_gf("fishburn", spec, order)
    parts = [_compare("family", _direct_family(spec, order), rhs)]
    m, marker = min(order, 30), eval_marker(2)
    for stat in FAMILY_STATS["fishburn"]:
        if stat != "ones" or spec.weight(1):
            rhs = stat_gf("fishburn", stat, spec, m, marker)
            parts.append(_compare(stat, _direct_stat(stat, spec, m, marker), rhs))
    return _merge("inverse-product transform", parts)


def _variant_A207557_rf(order: int) -> TruncatedSeries:
    """A207557 after the Rogers-Fine transformation:
    1 + z^{-1} sum_{k>=1} (1+z)^{2k+1} prod_{1<=j<=k} ((1+z)^{2j-1} - 1)^2.
    """
    m = order + 1
    opz = _rational_series(*_ONE_PLUS_Z, m)
    opz_sq = opz * opz
    power = Power(opz, opz_sq)  # (1+z)^{2j-1}
    s = GeneralSum(power, d=opz_sq, alpha=2, prefactor=opz).series(m) - opz  # k >= 1 only
    return TruncatedSeries.one(order) + s.shift_down(1)


def verify_a207557_transform(order: int) -> IdentityReport:
    """The same transformation for the quadratic-prefactor series."""
    return _compare(
        "quadratic-prefactor transform",
        named_gf("A207557", order),
        _variant_A207557_rf(order),
    )


def _variant_A079144_completed(order: int) -> TruncatedSeries:
    """e^z sum_k prod_j [e^z (e^{jz} - 1)^2] -- the transformed route."""
    e1 = exp_linear(1, order)
    return GeneralSum(_exps(1), d=e1, alpha=2, prefactor=e1).series(order)


def verify_a079144_transform(order: int) -> IdentityReport:
    """Labeled variant: sum prod (1-e^{-jz})  ==  e^z sum prod e^z (e^{jz}-1)^2."""
    return _compare(
        "labeled inverse-product transform",
        named_gf("A079144", order),
        _variant_A079144_completed(order),
    )


# ---------------------------------------------------------------------------
# Glaisher's odd-coefficient identity
# ---------------------------------------------------------------------------

def glaisher_product_terms(count: int) -> tuple:
    """T_n = 24^n n! [z^n] e^{-z/24} sum_k prod_{1<=j<=k}(1 - e^{-jz})."""
    _require_count(count)
    order = max(count - 1, 0)  # the series needs order >= 0; count 0 reads none of it
    f = exp_linear(Fraction(-1, 24), order) * named_gf("A079144", order)
    return tuple(_as_int(24 ** n * factorial(n) * f.coeff(n), f"T_{n}")
                 for n in range(count))


def glaisher_trig_terms(count: int) -> tuple:
    """T_n = (2n+1)! [z^{2n+1}] sin(2z) / (2 cos 3z)."""
    return tuple(named_sequence("A002439", count))


def verify_glaisher(count: int) -> IdentityReport:
    """The first ``count`` T_n agree along both routes of the identity

        e^{-z/24} sum_k prod_j (1 - e^{-jz})  =  sum_n T_n z^n / (n! 24^n)

    where the same T_n also satisfy sum_n T_n z^(2n+1)/(2n+1)! =
    sin(2z) / (2 cos 3z).  The report indexes T_n by n; at ``count = 0`` it
    compares nothing and reports order -1.
    """
    trig = glaisher_trig_terms(count)  # first: it checks the budget of order 2 count
    return _compare_terms("Glaisher odd-coefficient identity",
                          glaisher_product_terms(count), trig)


# ---------------------------------------------------------------------------
# The five labeled forms and the lost-notebook series
# ---------------------------------------------------------------------------

# Forms 2 to 5 of the labeled prototype sum_k prod_j (e^{jz} - 1), which is
# form 1, ``named_gf("A158690")``.

def _variant_A158690_form2(order: int) -> TruncatedSeries:
    """sum_k prod_j (1 - e^{-(2j-1)z})."""
    return GeneralSum(y=_exps(-2, 1)).series(order)


def _variant_A158690_form3(order: int) -> TruncatedSeries:
    """e^{-z} sum_k prod_j (e^{-z} - e^{-(2j+1)z})."""
    em1 = exp_linear(-1, order)
    return GeneralSum(em1, y=_exps(-2, -1), prefactor=em1).series(order)


def _variant_A158690_form4(order: int) -> TruncatedSeries:
    """e^z sum_k prod_j e^{2z} (e^{(2j-1)z} - 1)(e^{2jz} - 1): d_j carries the
    first difference."""
    def d(j, room):
        first = exp_linear(2 * j - 1, room) - TruncatedSeries.one(room)
        return exp_linear(2, room) * first

    return GeneralSum(_exps(2), d=d, prefactor=exp_linear(1, order)).series(order)


def _variant_A158690_form5(order: int) -> TruncatedSeries:
    """(1 + e^z sum_k prod_j (e^{(j+1)z} - e^z)) / 2."""
    e1 = exp_linear(1, order)
    inner = GeneralSum(_exps(1, 1), y=e1, prefactor=e1).series(order)
    return (TruncatedSeries.one(order) + inner).scalar_mul(Fraction(1, 2))


def _r_at_exp_neg(order: int) -> TruncatedSeries:
    """R(e^{-z}) via 1 + e^{-z} sum_k prod_j (e^{-(j+1)z} - e^{-z})."""
    em1 = exp_linear(-1, order)
    return TruncatedSeries.one(order) + GeneralSum(_exps(-1, -1), y=em1,
                                                   prefactor=em1).series(order)


def verify_a158690_forms(order: int) -> IdentityReport:
    """All five series forms of the labeled prototype agree coefficientwise,
    and the prototype is (-1)^n/2 times the q -> e^{-z} specialisation of the
    lost-notebook series."""
    f1 = named_gf("A158690", order)
    forms = (_variant_A158690_form2, _variant_A158690_form3, _variant_A158690_form4,
             _variant_A158690_form5)
    parts = [_compare(f"form{i} vs form1", form(order), f1)
             for i, form in enumerate(forms, start=2)]
    r = _r_at_exp_neg(order)
    half = TruncatedSeries(
        [Fraction((-1) ** n, 2) * r.coeff(n) for n in range(order + 1)], order
    )
    parts.append(_compare("alternating-sign half relation", f1, half))
    return _merge("labeled prototype forms", parts)


def _r_quotient(order: int) -> TruncatedSeries:
    """R(q) = sum_k q^{k(k+1)/2} / prod_{1<=j<=k} (1 + q^j), as the general sum
    with q^j / (1 + q^j) = 1 - 1/(1 + q^j)."""
    return GeneralSum(y=_inverse_binomials(1)).series(order)


def _r_at_one_minus(order: int) -> TruncatedSeries:
    """R(1-z) via 1 + (1-z) sum_k prod_j ((1-z)^{j+1} - (1-z))."""
    omz = _rational_series(*_ONE_MINUS_Z, order)
    x = Power(omz * omz, omz)  # (1-z)^{j+1}
    return TruncatedSeries.one(order) + GeneralSum(x, y=omz, prefactor=omz).series(order)


def verify_r_series(order: int) -> IdentityReport:
    """The two q-expansions of the lost-notebook series agree, and its
    q -> 1-z specialisation halves onto the binomial-weight row series."""
    parts = [_compare("alternating vs quotient", ramanujan_r(order), _r_quotient(order))]
    prim = family_gf("row-fishburn", PRIMITIVE, order)
    r = _r_at_one_minus(order)
    half = TruncatedSeries(
        [Fraction((-1) ** n, 2) * r.coeff(n) for n in range(order + 1)], order
    )
    parts.append(_compare("q -> 1-z half relation", prim, half))
    return _merge("lost-notebook series", parts)


def _variant_A035378_inverted(order: int) -> TruncatedSeries:
    """sum_k (z-1)^{-k-1} prod_{1<=j<=k} (1 - (z-1)^{-j})^2, consecutive terms
    paired as in the defining sum ``named_gf("A035378")``."""
    w = -TruncatedSeries.geometric(order)  # (z-1)^{-1}

    def pair(a, b):  # a = (z-1)^{-(2i-1)}, b = (z-1)^{-2i}
        one = TruncatedSeries.one(a.order)
        fa, fb = one - a, one - b
        return (fa * fa) * (fb * fb)

    def prefactor(p):  # p = (z-1)^{-(2K+1)}
        one = TruncatedSeries.one(order)
        q = one - p
        return p * (one + w * (q * q))

    return _paired_sum(w, pair, prefactor, order)


def _variant_A035378_paired(order: int) -> TruncatedSeries:
    """The explicitly paired rewriting:
    sum_K u^{2K+1} (u (1 + u^{2K+1})^2 - 1) prod_{1<=i<=K} (u^{2i-1} + 1)^2 (u^{2i} - 1)^2
    with u = 1/(1-z).  (Odd powers enter with a + sign: they carry the
    residual (-1)^j from the inverted-series factors.)
    """
    u = TruncatedSeries.geometric(order)

    def pair(a, b):  # a = u^{2i-1}, b = u^{2i}
        one = TruncatedSeries.one(a.order)
        fa, fb = a + one, b - one
        return (fa * fa) * (fb * fb)

    def prefactor(p):  # p = u^{2K+1}
        one = TruncatedSeries.one(order)
        q = one + p
        return p * (u * (q * q) - one)

    return _paired_sum(u, pair, prefactor, order)


def verify_a035378_pairing(order: int) -> IdentityReport:
    """The defining sum, its inverted-power rewriting, and the explicitly
    paired form of the (z-1)-weight series all agree."""
    a = named_gf("A035378", order)
    parts = [
        _compare("inverted form", _variant_A035378_inverted(order), a),
        _compare("paired form", _variant_A035378_paired(order), a),
    ]
    return _merge("(z-1)-weight pairing", parts)


def verify_log_derivative(count: int) -> IdentityReport:
    """b_n = n [z^n] log f  matches the convolution recurrence
    b_n = n a_n - sum_{1<=j<n} b_j a_{n-j}  for the binomial-weight row series.

    The report indexes b_n by n; at ``count = 0`` it compares nothing and
    reports order -1.
    """
    got = named_sequence("A207434", count)
    if count == 0:
        return _compare_terms("log-derivative recurrence", (), ())
    f = family_gf("row-fishburn", PRIMITIVE, count)
    a = [int(f.coeff(n)) for n in range(count + 1)]
    want = []
    for n in range(1, count + 1):
        s = n * a[n] - sum(want[j - 1] * a[n - j] for j in range(1, n))
        want.append(s)
    lhs = TruncatedSeries([0] + got, count)
    rhs = TruncatedSeries([0] + want, count)
    return _compare("log-derivative recurrence", lhs, rhs)


def identity_suite(order: int = 30, aj_order: int = 60) -> list:
    """The standard battery, as (name, report) pairs.  Glaisher's identity
    builds at order 2 order; both orders are checked before any build."""
    for o in (order, 2 * order, aj_order):
        _check_budget(o)
    out = []
    for tag, lam in (("all", ALL), ("01", PRIMITIVE), ("even+", LambdaSpec("even+"))):
        out.append((f"transform[{tag}]", verify_andrews_jelinek(lam, aj_order)))
    out.append(("glaisher", verify_glaisher(order)))
    out.append(("labeled-forms", verify_a158690_forms(25)))
    out.append(("lost-notebook", verify_r_series(order)))
    out.append(("pairing", verify_a035378_pairing(order)))
    out.append(("quadratic-transform", verify_a207557_transform(order)))
    out.append(("labeled-transform", verify_a079144_transform(25)))
    out.append(("log-derivative", verify_log_derivative(order)))
    return out
