"""Exact identity checks between alternative series representations.

Each verifier recomputes both sides of an identity from scratch with exact
arithmetic and reports the first mismatching coefficient, if any.  These are
the dual-route checks backing the series builders in `families`: an identity
holding to a substantial truncation order is strong evidence that both
constructions implement the intended object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .series import TruncatedSeries, exp_linear
from .families import (
    LambdaLike,
    fishburn_gf,
    ramanujan_r,
    r_at_exp_neg,
    r_at_one_minus,
    row_fishburn_gf,
    variant_gf,
    _binomial_series,
    _variant_A035378_inverted,
    _variant_A035378_paired,
    _variant_A079144_completed,
    _variant_A207557_rf,
    _variant_table_egf,
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
    order = min(lhs.order, rhs.order)
    for n in range(order + 1):
        a, b = lhs.coeff(n), rhs.coeff(n)
        if a != b:
            return IdentityReport(name, order, False, n, Fraction(a), Fraction(b))
    return IdentityReport(name, order, True)


def _merge(name: str, parts: Sequence[IdentityReport]) -> IdentityReport:
    for p in parts:
        if not p.ok:
            return IdentityReport(
                name, p.order, False, p.first_mismatch, p.lhs_value, p.rhs_value
            )
    return IdentityReport(name, min(p.order for p in parts), True)


# ---------------------------------------------------------------------------
# The inverse-product / squared-product transformation
# ---------------------------------------------------------------------------

def verify_andrews_jelinek(lam: LambdaLike, order: int) -> IdentityReport:
    """sum_k prod_j (1 - L^{-j})  ==  L sum_k prod_j L (L^j - 1)^2, exactly."""
    lhs = fishburn_gf(lam, order, form="direct")
    rhs = fishburn_gf(lam, order, form="andrews")
    return _compare("inverse-product transform", lhs, rhs)


def verify_a207557_transform(order: int) -> IdentityReport:
    """The same transformation for the quadratic-prefactor series."""
    return _compare(
        "quadratic-prefactor transform",
        variant_gf("A207557", order),
        _variant_A207557_rf(order),
    )


def verify_a079144_transform(order: int) -> IdentityReport:
    """Labeled variant: sum prod (1-e^{-jz})  ==  e^z sum prod e^z (e^{jz}-1)^2."""
    return _compare(
        "labeled inverse-product transform",
        variant_gf("A079144", order),
        _variant_A079144_completed(order),
    )


# ---------------------------------------------------------------------------
# Glaisher's odd-coefficient identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlaisherPair:
    """T_n computed along both routes of the identity

        e^{-z/24} sum_k prod_j (1 - e^{-jz})  =  sum_n T_n z^n / (n! 24^n)

    where the same T_n also satisfy sum_n T_n z^(2n+1)/(2n+1)! =
    sin(2z) / (2 cos 3z).
    """

    count: int
    from_product: tuple
    from_trig: tuple

    @property
    def ok(self) -> bool:
        return self.from_product == self.from_trig

    def first_mismatch(self) -> Optional[int]:
        for n, (a, b) in enumerate(zip(self.from_product, self.from_trig)):
            if a != b:
                return n
        return None


def glaisher_product_terms(count: int) -> tuple:
    """T_n = 24^n n! [z^n] e^{-z/24} sum_k prod_{1<=j<=k}(1 - e^{-jz})."""
    order = count - 1
    f = exp_linear(Fraction(-1, 24), order) * _variant_table_egf(order, "A079144")
    out = []
    for n in range(count):
        t = Fraction(24) ** n * factorial(n) * f.coeff(n)
        if t.denominator != 1:
            raise ValueError(f"route produced a non-integer T_{n} = {t}")
        out.append(int(t))
    return tuple(out)


def glaisher_trig_terms(count: int) -> tuple:
    """T_n = (2n+1)! [z^{2n+1}] sin(2z) / (2 cos 3z)."""
    from .families import _glaisher_terms

    return tuple(_glaisher_terms(count))


def verify_glaisher(count: int) -> GlaisherPair:
    return GlaisherPair(count, glaisher_product_terms(count), glaisher_trig_terms(count))


# ---------------------------------------------------------------------------
# The five labeled forms and the lost-notebook series
# ---------------------------------------------------------------------------

def verify_a158690_forms(order: int) -> IdentityReport:
    """All five series forms of the labeled prototype agree coefficientwise,
    and the prototype is (-1)^n/2 times the q -> e^{-z} specialisation of the
    lost-notebook series."""
    f1 = variant_gf("A158690-form1", order)
    parts = [
        _compare(f"form{i} vs form1", variant_gf(f"A158690-form{i}", order), f1)
        for i in range(2, 6)
    ]
    r = r_at_exp_neg(order)
    half = TruncatedSeries(
        [Fraction((-1) ** n, 2) * r.coeff(n) for n in range(order + 1)], order
    )
    parts.append(_compare("alternating-sign half relation", f1, half))
    return _merge("labeled prototype forms", parts)


def verify_r_series(order: int) -> IdentityReport:
    """The two q-expansions of the lost-notebook series agree, and its
    q -> 1-z specialisation halves onto the binomial-weight row series."""
    parts = [
        _compare(
            "alternating vs quotient",
            ramanujan_r(order, "alternating"),
            ramanujan_r(order, "quotient"),
        )
    ]
    opz = _binomial_series(order)
    prim = row_fishburn_gf(opz, order)
    r = r_at_one_minus(order)
    half = TruncatedSeries(
        [Fraction((-1) ** n, 2) * r.coeff(n) for n in range(order + 1)], order
    )
    parts.append(_compare("q -> 1-z half relation", prim, half))
    return _merge("lost-notebook series", parts)


def verify_a035378_pairing(order: int) -> IdentityReport:
    """The defining sum, its inverted-power rewriting, and the explicitly
    paired form of the (z-1)-weight series all agree."""
    a = variant_gf("A035378", order)
    parts = [
        _compare("inverted form", _variant_A035378_inverted(order), a),
        _compare("paired form", _variant_A035378_paired(order), a),
    ]
    return _merge("(z-1)-weight pairing", parts)


def verify_log_derivative(count: int) -> IdentityReport:
    """b_n = n [z^n] log f  matches the convolution recurrence
    b_n = n a_n - sum_{1<=j<n} b_j a_{n-j}  for the binomial-weight row series."""
    from .families import _log_weighted_terms

    f = row_fishburn_gf(_binomial_series(count), count)
    a = [int(f.coeff(n)) for n in range(count + 1)]
    got = _log_weighted_terms(count)
    want = []
    for n in range(1, count + 1):
        s = n * a[n] - sum(want[j - 1] * a[n - j] for j in range(1, n))
        want.append(s)
    lhs = TruncatedSeries([0] + got, count)
    rhs = TruncatedSeries([0] + want, count)
    return _compare("log-derivative recurrence", lhs, rhs)


def identity_suite(order: int = 30, aj_order: int = 60) -> list:
    """The standard battery, as (name, report) pairs."""
    from .families import ALL, PRIMITIVE, LambdaSpec

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
