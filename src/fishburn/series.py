"""Truncated formal power series over exact rationals.

Everything downstream (generating functions, identity checks, enumeration
cross-checks) runs on the three carrier types in this module, one per job:

* :class:`TruncatedSeries` -- a univariate series known exactly through a
  fixed order N.  Coefficients are `int` or `fractions.Fraction`; integer
  inputs stay integers through ring operations, which matters for the large
  counting runs (hundreds of terms with two-hundred-digit coefficients).
  An all-int coefficient list is stored as it is; only lists holding a
  Fraction are normalised (integral Fractions collapse to int).

* :class:`BivariateSeries` -- the same thing with polynomial coefficients in
  a marking variable v: full statistic distributions.

* :class:`Jet` -- a moment jet: v = 1 + eps with the eps-polynomials cut
  after a small depth, held as depth + 1 univariate series.  It gives exact
  factorial moments without the full polynomial, and its products run on the
  univariate kernel.

A :class:`Marker` picks the carrier of a marked series: ``monomial_marker``
selects BivariateSeries, ``jet_marker`` selects Jet.  The marker lifts
univariate series and builds marked atoms, so the statistic builders are
written once for both.

The univariate kernel :func:`_mul_into` computes each output coefficient as
one C-level dot product, ``sum(map(mul, ...))`` over slices of the two
nonzero spans, and ``TruncatedSeries.inv`` does the same for its recurrence
sum.  When both factors are supported on a lattice z^g (offsets from their
valuations all multiples of g > 1, as for even-only multisets or L(z^2)),
the product runs on that lattice.  The bivariate kernel keeps its loop that
skips zero coefficients: monomial-marked v-polynomials are sparse, and a
dense dot-product ``_poly_mul`` made the benchmark's ``profiles`` call list
about 1.9x slower.

Every type refuses to mix truncation orders silently: combining series of
different orders raises, it never truncates behind your back.  Combining
different carriers, or jets of different depths, raises too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import comb, factorial, gcd
from operator import mul
from typing import Callable, Sequence, Union

Coeff = Union[int, Fraction]

__all__ = [
    "TruncatedSeries",
    "BivariateSeries",
    "Jet",
    "Marker",
    "monomial_marker",
    "jet_marker",
    "exp_linear",
    "bernoulli_numbers",
    "sum_product",
]


def _norm(x: Coeff) -> Coeff:
    """Collapse integral Fractions back to int (keeps the int fast path hot)."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _check_same_order(a, b) -> None:
    if a.order != b.order:
        raise ValueError(
            f"mixed truncation orders: {a.order} vs {b.order}; "
            "truncate explicitly before combining"
        )


def _power(base, k: int, one):
    """base^k for k >= 0 by squaring from the top set bit of k, so that no
    product by `one` is made: k = 1 costs no product and k = 2 costs one."""
    if k == 0:
        return one
    result = base
    for bit in bin(k)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class TruncatedSeries:
    """A power series known exactly for coefficients 0..order (inclusive)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Coeff], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order admits")
        cs.extend([0] * (order + 1 - len(cs)))
        # An all-int list is already normal; only Fractions can collapse.
        self.coeffs = tuple(cs) if set(map(type, cs)) == {int} else tuple(map(_norm, cs))
        self.order = order

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,), order)

    @classmethod
    def constant(cls, c: Coeff, order: int) -> "TruncatedSeries":
        return cls((c,), order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls((0, 1)[: order + 1], order)

    @classmethod
    def geometric(cls, order: int) -> "TruncatedSeries":
        """1/(1-z): the all-nonnegative-entries weight series."""
        return cls((1,) * (order + 1), order)

    # -- inspection ---------------------------------------------------

    def coeff(self, n: int) -> Coeff:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside known range 0..{self.order}")
        return self.coeffs[n]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def is_zero(self) -> bool:
        return self.valuation() > self.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[: min(7, self.order + 1)])
        tail = ", ..." if self.order > 6 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_same_order(self, other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_same_order(self, other)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def scalar_mul(self, c: Coeff) -> "TruncatedSeries":
        return TruncatedSeries([c * a for a in self.coeffs], self.order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_same_order(self, other)
        return _mul_into(self, other, self.order)

    def truncate(self, m: int) -> "TruncatedSeries":
        """Restrict to order m <= current order."""
        if m > self.order:
            raise ValueError("cannot extend a truncated series; recompute instead")
        return TruncatedSeries(self.coeffs[: m + 1], m)

    def shift_down(self, m: int) -> "TruncatedSeries":
        """Divide by z^m, losing the top m coefficients (order drops by m)."""
        if m < 0:
            raise ValueError("shift_down takes m >= 0")
        if self.valuation() < m:
            raise ValueError("series is not divisible by z^m")
        if m > self.order:
            raise ValueError("shift_down past the truncation order")
        return TruncatedSeries(self.coeffs[m:], self.order - m)

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse; constant term must be invertible (nonzero)."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        if a0 == 1:
            r0: Coeff = 1
        elif a0 == -1:
            r0 = -1
        else:
            r0 = Fraction(1, 1) / a0
        out: list[Coeff] = [r0]
        a = self.coeffs
        for n in range(1, self.order + 1):
            s = sum(map(mul, a[1 : n + 1], out[::-1]))
            out.append(_norm(-s * r0) if a0 in (1, -1) else _norm(-s / a0))
        return TruncatedSeries(out, self.order)

    def pow(self, k: int) -> "TruncatedSeries":
        """Integer power; negative k goes through inv()."""
        if k < 0:
            return self.inv().pow(-k)
        return _power(self, k, TruncatedSeries.one(self.order))

    # -- calculus and substitutions -----------------------------------

    def derivative(self) -> "TruncatedSeries":
        """d/dz; the top coefficient of the result is unknowable and the
        order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(
            [n * c for n, c in enumerate(self.coeffs)][1:], self.order - 1
        )

    def substitute_power(self, m: int) -> "TruncatedSeries":
        """z -> z^m (m >= 1); result truncated at the same order."""
        if m < 1:
            raise ValueError("substitute_power takes m >= 1")
        out: list[Coeff] = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if i * m > self.order:
                break
            out[i * m] = a
        return TruncatedSeries(out, self.order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """f(g(z)) for g with valuation >= 1 (same truncation order)."""
        _check_same_order(self, inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs inner valuation >= 1")
        # Horner from the top coefficient down
        acc = TruncatedSeries.zero(self.order)
        for a in reversed(self.coeffs):
            acc = acc * inner
            if a:
                acc = acc + TruncatedSeries.constant(a, self.order)
        return acc

    def substitute_mobius(self, sign: int) -> "TruncatedSeries":
        """z -> z/(1+z) for sign=+1, z -> z/(1-z) for sign=-1."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        denom_inv = TruncatedSeries(
            [(-sign) ** n for n in range(self.order + 1)], self.order
        )  # 1/(1 + sign*z)
        w = TruncatedSeries.x(self.order) * denom_inv
        return self.compose(w)


def _mul_into(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Product truncated at `order`, one C-level dot product per coefficient.

    Only the nonzero spans take part: a from its valuation to its last
    nonzero coefficient that can reach the window, and b likewise.  When the
    nonzero coefficients of both sit on a lattice va + g*i and vb + g*j with
    g > 1 (the gcd of their offsets), the product is taken on that lattice
    and only every g-th output coefficient is computed.  Zeros left inside
    the spans are multiplied, not skipped: an int product by 0 costs little
    next to a Python-level loop, whereas the sparse v-polynomials of
    :func:`_bv_mul_into` keep their skipping loop (see the module docstring).

    b may carry a *smaller* order than a when a's valuation guarantees the
    missing top coefficients of b cannot reach the truncation window; this is
    what lets the sum-of-products kernel truncate its factors adaptively.
    """
    va, vb = a.valuation(), b.valuation()
    if va + vb > order:
        return TruncatedSeries.zero(order)
    if b.order < order and va + b.order < order:
        raise ValueError("factor truncated too short for this product")
    acs, bcs = a.coeffs, b.coeffs
    ta = _last_nonzero(acs, order - vb)
    tb = _last_nonzero(bcs, order - va)
    g = _lattice_step(acs, va, ta, 0)
    if g != 1:
        g = _lattice_step(bcs, vb, tb, g) or 1
    xs = acs[va : ta + 1 : g]
    ys = bcs[vb : tb + 1 : g][::-1]
    la, lb = len(xs), len(ys)
    # Output m of the lattice product is sum_i xs[i] * ys[lb - 1 - m + i]
    # over the i with both indices in range.
    dots = []
    for m in range(min((order - va - vb) // g, la + lb - 2) + 1):
        lo = m - lb + 1 if m >= lb else 0
        hi = m + 1 if m < la else la
        dots.append(sum(map(mul, xs[lo:hi], ys[lb - 1 - m + lo : lb - 1 - m + hi])))
    out: list[Coeff] = [0] * (order + 1)
    out[va + vb : va + vb + g * len(dots) : g] = dots
    return TruncatedSeries(out, order)


def _last_nonzero(cs: Sequence[Coeff], hi: int) -> int:
    """Largest i <= hi with cs[i] nonzero; one such i must exist."""
    while not cs[hi]:
        hi -= 1
    return hi


def _lattice_step(cs: Sequence[Coeff], lo: int, hi: int, g: int) -> int:
    """gcd of g and the offsets i - lo of the nonzero cs[i], lo < i <= hi.

    Stops at the first gcd of 1; 0 means no offset was seen and g was 0.
    """
    for offset in compress(count(1), cs[lo + 1 : hi + 1]):
        g = gcd(g, offset)
        if g == 1:
            break
    return g


def exp_linear(j: int, order: int) -> TruncatedSeries:
    """The series of exp(j*z): coefficient n is j^n/n! exactly.

    j may be negative (exp(-j z) shows up in several alternative series
    forms); j = 0 gives the constant series 1.
    """
    out: list[Coeff] = [1]
    num = 1
    for n in range(1, order + 1):
        num *= j
        out.append(_norm(Fraction(num, factorial(n))))
    return TruncatedSeries(out, order)


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m with the B_1 = -1/2 convention, by the defining recurrence."""
    out: list[Fraction] = []
    for n in range(m + 1):
        if n == 0:
            out.append(Fraction(1))
            continue
        s = Fraction(0)
        for j in range(n):
            s += comb(n + 1, j) * out[j]
        out.append(-s / (n + 1))
    return out


# ---------------------------------------------------------------------------
# Bivariate series with a marking variable
# ---------------------------------------------------------------------------

Poly = tuple  # v-polynomial, low degree first


def _poly_trim(p: Sequence[Coeff]) -> Poly:
    i = len(p)
    while i > 0 and not p[i - 1]:
        i -= 1
    return tuple(p[:i])


def _poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _poly_trim(out)


def _poly_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def _poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return _poly_trim(out)


class BivariateSeries:
    """Series in z with v-polynomial coefficients, truncated at `order` in z.

    coeffs[n] is the v-polynomial attached to z^n (low degree first, trailing
    zeros trimmed).  Arithmetic requires both operands to share the order.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Sequence[Coeff]], order: int):
        cs = [_poly_trim(tuple(p)) for p in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order admits")
        cs.extend([()] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "BivariateSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "BivariateSeries":
        return cls(((1,),), order)

    @classmethod
    def from_univariate(cls, f: TruncatedSeries) -> "BivariateSeries":
        return cls(tuple((c,) if c else () for c in f.coeffs), f.order)

    def _check_compat(self, other) -> None:
        if not isinstance(other, BivariateSeries):
            raise ValueError(
                f"mixed carriers: BivariateSeries vs {type(other).__name__}"
            )
        _check_same_order(self, other)

    def valuation(self) -> int:
        for i, p in enumerate(self.coeffs):
            if p:
                return i
        return self.order + 1

    def coeff(self, n: int) -> Poly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside known range 0..{self.order}")
        return self.coeffs[n]

    def coeff_vm(self, n: int, m: int) -> Coeff:
        p = self.coeff(n)
        return p[m] if m < len(p) else 0

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_compat(other)
        return BivariateSeries(
            [_poly_add(p, q) for p, q in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_compat(other)
        return BivariateSeries(
            [_poly_add(p, _poly_neg(q)) for p, q in zip(self.coeffs, other.coeffs)],
            self.order,
        )

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries([_poly_neg(p) for p in self.coeffs], self.order)

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_compat(other)
        return _bv_mul_into(self, other, self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def pow(self, k: int) -> "BivariateSeries":
        if k < 0:
            raise ValueError("negative bivariate powers are not needed; invert first")
        return _power(self, k, BivariateSeries.one(self.order))

    def inv(self) -> "BivariateSeries":
        """Inverse when the z^0 coefficient is the constant polynomial 1."""
        if self.coeffs[0] != (1,):
            raise ZeroDivisionError("bivariate inverse needs constant coefficient 1")
        out: list[Poly] = [(1,)]
        for n in range(1, self.order + 1):
            s: Poly = ()
            for i in range(1, n + 1):
                ai = self.coeffs[i]
                if ai:
                    s = _poly_add(s, _poly_mul(ai, out[n - i]))
            out.append(_poly_neg(s))
        return BivariateSeries(out, self.order)

    def truncate(self, m: int) -> "BivariateSeries":
        if m > self.order:
            raise ValueError("cannot extend a truncated series; recompute instead")
        return BivariateSeries(self.coeffs[: m + 1], m)

    def at_v_one(self) -> TruncatedSeries:
        """Collapse the marking variable: v = 1."""
        return TruncatedSeries(
            [_norm(sum(p)) if p else 0 for p in self.coeffs], self.order
        )

    def max_v_degree(self) -> int:
        return max((len(p) - 1 for p in self.coeffs if p), default=-1)


def _bv_mul_into(a: BivariateSeries, b: BivariateSeries, order: int) -> BivariateSeries:
    va, vb = a.valuation(), b.valuation()
    if va + vb > order:
        return BivariateSeries.zero(order)
    if b.order < order and va + b.order < order:
        raise ValueError("factor truncated too short for this product")
    out: list[Poly] = [()] * (order + 1)
    btop = min(b.order, order)
    for i in range(va, order + 1 - vb):
        ai = a.coeffs[i]
        if not ai:
            continue
        for j in range(vb, min(btop, order - i) + 1):
            bj = b.coeffs[j]
            if bj:
                out[i + j] = _poly_add(out[i + j], _poly_mul(ai, bj))
    return BivariateSeries(out, order)


# ---------------------------------------------------------------------------
# Moment jets
# ---------------------------------------------------------------------------

class Jet:
    """A series in z whose coefficients are polynomials in eps cut after
    eps^depth, held as depth + 1 univariate series of one order.

    parts[t] carries the eps^t coefficients.  Marking with v = 1 + eps turns
    v^i into sum_t C(i, t) eps^t, so the eps^t coefficient at z^n is
    sum_m C(m, t) [v^m z^n]: factorial moments of the statistic without its
    degree-n polynomial.  Arithmetic requires both operands to share the
    order and the depth.
    """

    __slots__ = ("parts", "order", "depth")

    def __init__(self, parts: Sequence[TruncatedSeries]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a jet needs at least its eps^0 part")
        for p in parts[1:]:
            _check_same_order(parts[0], p)
        self.parts = parts
        self.order = parts[0].order
        self.depth = len(parts) - 1

    @classmethod
    def one(cls, order: int, depth: int) -> "Jet":
        return cls.from_univariate(TruncatedSeries.one(order), depth)

    @classmethod
    def from_univariate(cls, f: TruncatedSeries, depth: int) -> "Jet":
        return cls((f,) + (TruncatedSeries.zero(f.order),) * depth)

    def _check_compat(self, other) -> None:
        if not isinstance(other, Jet):
            raise ValueError(f"mixed carriers: Jet vs {type(other).__name__}")
        _check_same_order(self, other)
        if self.depth != other.depth:
            raise ValueError(f"mixed jet depths: {self.depth} vs {other.depth}")

    def valuation(self) -> int:
        return min(p.valuation() for p in self.parts)

    def coeff_vm(self, n: int, m: int) -> Coeff:
        """The eps^m coefficient at z^n."""
        if not 0 <= m <= self.depth:
            raise IndexError(f"eps power {m} outside known range 0..{self.depth}")
        return self.parts[m].coeff(n)

    def __add__(self, other: "Jet") -> "Jet":
        self._check_compat(other)
        return Jet([p + q for p, q in zip(self.parts, other.parts)])

    def __sub__(self, other: "Jet") -> "Jet":
        self._check_compat(other)
        return Jet([p - q for p, q in zip(self.parts, other.parts)])

    def __mul__(self, other: "Jet") -> "Jet":
        self._check_compat(other)
        return _jet_mul_into(self, other, self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def inv(self) -> "Jet":
        """Inverse when the eps^0 part is invertible, with u = 1/parts[0]:
        c_0 = u and c_t = -u * sum_{q=1..t} parts[q] * c_{t-q}."""
        u = self.parts[0].inv()
        out = [u]
        for t in range(1, self.depth + 1):
            s = _convolve(self.parts[1 : t + 1], out[::-1], self.order)
            out.append(-(u * s))
        return Jet(out)

    def truncate(self, m: int) -> "Jet":
        return Jet([p.truncate(m) for p in self.parts])


def _convolve(
    a: Sequence[TruncatedSeries], b: Sequence[TruncatedSeries], order: int
) -> TruncatedSeries:
    """sum_s a[s] * b[s] at `order`, skipping zero series."""
    acc = None
    for x, y in zip(a, b):
        if x.is_zero() or y.is_zero():
            continue
        p = _mul_into(x, y, order)
        acc = p if acc is None else acc + p
    return TruncatedSeries.zero(order) if acc is None else acc


def _jet_mul_into(a: Jet, b: Jet, order: int) -> Jet:
    """c_t = sum_{s<=t} a_s * b_{t-s}, each product truncated at `order`.

    b may carry a smaller order than a, as _mul_into allows.
    """
    if a.depth != b.depth:
        raise ValueError(f"mixed jet depths: {a.depth} vs {b.depth}")
    return Jet(
        [_convolve(a.parts[: t + 1], b.parts[t::-1], order) for t in range(a.depth + 1)]
    )


# ---------------------------------------------------------------------------
# Markers: which carrier holds the marking variable
# ---------------------------------------------------------------------------

class Marker:
    """How the marking variable v enters a marked series.

    v_power(i) is the coefficient tuple that stands for v^i.  series(rows,
    order) builds a series of the marker's carrier from one such tuple per
    z-coefficient, and lift(f) embeds a univariate series in that carrier.
    """

    __slots__ = ("_vp", "_series", "_lift")

    def __init__(
        self,
        vp: Callable[[int], Poly],
        series: Callable[[Sequence[Poly], int], Union[BivariateSeries, Jet]],
        lift: Callable[[TruncatedSeries], Union[BivariateSeries, Jet]],
    ):
        self._vp = vp
        self._series = series
        self._lift = lift

    def v_power(self, i: int) -> Poly:
        return self._vp(i)

    def series(self, rows: Sequence[Poly], order: int) -> Union[BivariateSeries, Jet]:
        return self._series(rows, order)

    def lift(self, f: TruncatedSeries) -> Union[BivariateSeries, Jet]:
        return self._lift(f)


def monomial_marker() -> Marker:
    """v^i is the honest monomial -- full distribution polynomials, carried
    by BivariateSeries."""
    return Marker(
        lambda i: (0,) * i + (1,), BivariateSeries, BivariateSeries.from_univariate
    )


def jet_marker(depth: int = 2) -> Marker:
    """v = 1 + eps truncated at eps^depth: coefficient t of v^i is C(i, t).

    The carrier is Jet.  With depth 2 the z^n coefficient of a marked GF is
    (total, sum of m*count_m, sum of C(m,2)*count_m), enough for exact mean
    and variance without carrying degree-n polynomials.
    """
    if depth < 1:
        raise ValueError("jet depth must be >= 1")

    def series(rows, order):
        return Jet(
            TruncatedSeries([r[t] if t < len(r) else 0 for r in rows], order)
            for t in range(depth + 1)
        )

    return Marker(
        lambda i: tuple(comb(i, t) for t in range(depth + 1)),
        series,
        lambda f: Jet.from_univariate(f, depth),
    )


# ---------------------------------------------------------------------------
# The sum-of-finite-products kernel
# ---------------------------------------------------------------------------

def sum_product(factor, order: int, dpart=None):
    """Sum over k >= 0 of dpart(k) * prod_{1<=j<=k} factor(j), truncated.

    factor(j, m) must return the j-th factor as a series of order m (m shrinks
    as the running product's valuation climbs -- returning a full-order series
    is always allowed).  Every factor must have valuation >= 1; that makes the
    running product's valuation strictly increasing, so the loop provably
    stops by k = order+1.  dpart(k), when given, is the k-dependent prefactor
    (think d(z)^{k+omega0}) at full order with nonzero constant term.

    Works for every carrier type.  The first factor is always requested, as
    factor(1, order), even when order is 0; its type (TruncatedSeries,
    BivariateSeries or Jet) and, for a jet, its depth set the carrier of the
    result.
    """
    first = factor(1, order)
    if isinstance(first, Jet):
        one, mul = Jet.one(order, first.depth), _jet_mul_into
    elif isinstance(first, BivariateSeries):
        one, mul = BivariateSeries.one(order), _bv_mul_into
    else:
        one, mul = TruncatedSeries.one(order), _mul_into
    acc = one if dpart is None else dpart(0)
    prod = one
    k = 0
    while True:
        k += 1
        room = order - prod.valuation()
        if room < 1:
            break
        f = first if k == 1 else factor(k, room)
        if f.valuation() < 1:
            raise ValueError(
                f"factor {k} has nonzero constant term; the sum would not terminate"
            )
        prod = mul(prod, f, order)
        if prod.valuation() > order:
            break
        term = prod if dpart is None else dpart(k) * prod
        acc = acc + term
        if k > order + 1:  # pragma: no cover - guarded by the valuation argument
            raise RuntimeError("sum-of-products failed to terminate")
    return acc
