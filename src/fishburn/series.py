"""Truncated formal power series over exact rationals.

Everything downstream (generating functions, identity checks, enumeration
cross-checks) runs on the two carrier types in this module:

* :class:`TruncatedSeries` -- a univariate series known exactly through a
  fixed order N.  Coefficients are `int` or `fractions.Fraction`; integer
  inputs stay integers through ring operations, which matters for the large
  counting runs (hundreds of terms with two-hundred-digit coefficients).

* :class:`BivariateSeries` -- the same thing with polynomial coefficients in
  a marking variable v.  A "marker" decides what the atom v^i means: either a
  genuine monomial (full distributions) or the jet (1+eps)^i truncated at a
  small epsilon order (exact factorial moments without the full polynomial).

Both types refuse to mix truncation orders silently: combining series of
different orders raises, it never truncates behind your back.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence, Union

Coeff = Union[int, Fraction]

__all__ = [
    "TruncatedSeries",
    "BivariateSeries",
    "Marker",
    "monomial_marker",
    "jet_marker",
    "exp_linear",
    "bernoulli_numbers",
    "sum_product",
]


def _norm(x: Coeff) -> Coeff:
    """Collapse integral Fractions back to int (keeps the int fast path hot)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _check_same_order(a, b) -> None:
    if a.order != b.order:
        raise ValueError(
            f"mixed truncation orders: {a.order} vs {b.order}; "
            "truncate explicitly before combining"
        )


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
        self.coeffs = tuple(_norm(c) for c in cs)
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
        return cls((0, 1), order)

    @classmethod
    def geometric(cls, order: int) -> "TruncatedSeries":
        """1/(1-z): the all-nonnegative-entries weight series."""
        return cls((1,) * (order + 1), order)

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[Coeff], order: int) -> "TruncatedSeries":
        """Polynomial as a series; coefficients beyond the order must be zero."""
        cs = list(coeffs)
        for c in cs[order + 1 :]:
            if c:
                raise ValueError("polynomial degree exceeds truncation order")
        return cls(cs[: order + 1], order)

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

    def shift(self, m: int) -> "TruncatedSeries":
        """Multiply by z^m.  Negative m divides by z^m (needs valuation >= -m).

        The result keeps the same order; a positive shift therefore forgets
        the top m coefficients, a negative shift introduces coefficients that
        were not known and is only allowed when they exist (valuation check).
        """
        if m >= 0:
            return TruncatedSeries((0,) * m + self.coeffs[: self.order + 1 - m], self.order)
        if self.valuation() < -m:
            raise ValueError("negative shift below the valuation is not a power series")
        # top -m coefficients of the result are unknown; that would silently
        # shrink knowledge, so refuse unless they are irrelevant to the caller
        raise ValueError(
            "negative shift would require coefficients beyond the truncation order; "
            "use shift_down"
        )

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
            s = 0
            for i in range(1, n + 1):
                ai = a[i]
                if ai:
                    s += ai * out[n - i]
            out.append(_norm(-s * r0) if a0 in (1, -1) else _norm(-s / a0))
        return TruncatedSeries(out, self.order)

    def pow(self, k: int) -> "TruncatedSeries":
        """Integer power; negative k goes through inv()."""
        if k < 0:
            return self.inv().pow(-k)
        result = TruncatedSeries.one(self.order)
        base = self
        e = k
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __pow__(self, k: int) -> "TruncatedSeries":
        return self.pow(k)

    # -- calculus (internal plumbing for log, used by one variant GF) --

    def derivative(self) -> "TruncatedSeries":
        """d/dz; the top coefficient of the result is unknowable and the
        order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(
            [n * c for n, c in enumerate(self.coeffs)][1:], self.order - 1
        )

    def integrate(self, const: Coeff = 0) -> "TruncatedSeries":
        """Antiderivative with given constant term; order grows by one."""
        out: list[Coeff] = [const]
        for n, c in enumerate(self.coeffs):
            out.append(_norm(Fraction(c, n + 1)) if c else 0)
        return TruncatedSeries(out, self.order + 1)

    def log(self) -> "TruncatedSeries":
        """log(f) for f with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        # (log f)' = f'/f, integrated with log f(0) = 0
        return (self.derivative() * self.truncate(self.order - 1).inv()).integrate(0)

    # -- substitutions --------------------------------------------------

    def substitute_scale(self, c: Coeff) -> "TruncatedSeries":
        """z -> c*z."""
        out: list[Coeff] = []
        p: Coeff = 1
        for a in self.coeffs:
            out.append(_norm(a * p))
            p *= c
        return TruncatedSeries(out, self.order)

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
    """Schoolbook product truncated at `order`, skipping leading zeros.

    b may carry a *smaller* order than a when a's valuation guarantees the
    missing top coefficients of b cannot reach the truncation window; this is
    what lets the sum-of-products kernel truncate its factors adaptively.
    """
    va, vb = a.valuation(), b.valuation()
    if va + vb > order:
        return TruncatedSeries.zero(order)
    if b.order < order and va + b.order < order:
        raise ValueError("factor truncated too short for this product")
    out: list[Coeff] = [0] * (order + 1)
    acs, bcs = a.coeffs, b.coeffs
    btop = min(b.order, order)
    for i in range(va, order + 1 - vb):
        ai = acs[i]
        if not ai:
            continue
        for j in range(vb, min(btop, order - i) + 1):
            bj = bcs[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeries(out, order)


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


class Marker:
    """How the marking variable enters: v_power(i) is the coefficient
    polynomial representing v^i, and cap is the polynomial truncation degree
    (None = no cap)."""

    __slots__ = ("cap", "_vp")

    def __init__(self, cap, vp: Callable[[int], Poly]):
        self.cap = cap
        self._vp = vp

    def v_power(self, i: int) -> Poly:
        return self._vp(i)


def monomial_marker() -> Marker:
    """v^i is the honest monomial -- full distribution polynomials."""
    return Marker(None, lambda i: (0,) * i + (1,))


def jet_marker(depth: int = 2) -> Marker:
    """v = 1 + eps truncated at eps^depth: coefficient t of v^i is C(i, t).

    With depth 2 the z^n coefficient of a marked GF is
    (total, sum of m*count_m, sum of C(m,2)*count_m), enough for exact mean
    and variance without carrying degree-n polynomials.
    """
    if depth < 1:
        raise ValueError("jet depth must be >= 1")
    return Marker(depth, lambda i: tuple(comb(i, t) for t in range(depth + 1)))


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


def _poly_mul(p: Poly, q: Poly, cap) -> Poly:
    if not p or not q:
        return ()
    top = len(p) + len(q) - 2
    if cap is not None:
        top = min(top, cap)
    out = [0] * (top + 1)
    for i, a in enumerate(p):
        if not a or i > top:
            continue
        jmax = min(len(q) - 1, top - i)
        for j in range(jmax + 1):
            b = q[j]
            if b:
                out[i + j] += a * b
    return _poly_trim(out)


class BivariateSeries:
    """Series in z with v-polynomial coefficients, truncated at `order` in z.

    coeffs[n] is the v-polynomial attached to z^n (low degree first, trailing
    zeros trimmed).  `cap`, when set, truncates every polynomial degree (the
    jet mode); arithmetic requires both operands to share order and cap.
    """

    __slots__ = ("coeffs", "order", "cap")

    def __init__(self, coeffs: Sequence[Sequence[Coeff]], order: int, cap=None):
        cs = [_poly_trim(tuple(p)) for p in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order admits")
        cs.extend([()] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order
        self.cap = cap

    @classmethod
    def zero(cls, order: int, cap=None) -> "BivariateSeries":
        return cls((), order, cap)

    @classmethod
    def one(cls, order: int, cap=None) -> "BivariateSeries":
        return cls(((1,),), order, cap)

    @classmethod
    def from_univariate(cls, f: TruncatedSeries, cap=None) -> "BivariateSeries":
        return cls(tuple((c,) if c else () for c in f.coeffs), f.order, cap)

    def _check_compat(self, other: "BivariateSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed truncation orders: {self.order} vs {other.order}"
            )
        if self.cap != other.cap:
            raise ValueError("mixed marking caps")

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
            [_poly_add(p, q) for p, q in zip(self.coeffs, other.coeffs)],
            self.order,
            self.cap,
        )

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_compat(other)
        return BivariateSeries(
            [_poly_add(p, _poly_neg(q)) for p, q in zip(self.coeffs, other.coeffs)],
            self.order,
            self.cap,
        )

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries(
            [_poly_neg(p) for p in self.coeffs], self.order, self.cap
        )

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_compat(other)
        return _bv_mul_into(self, other, self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.cap, self.coeffs))

    def pow(self, k: int) -> "BivariateSeries":
        if k < 0:
            raise ValueError("negative bivariate powers are not needed; invert first")
        result = BivariateSeries.one(self.order, self.cap)
        base = self
        e = k
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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
                    s = _poly_add(s, _poly_mul(ai, out[n - i], self.cap))
            out.append(_poly_neg(s))
        return BivariateSeries(out, self.order, self.cap)

    def truncate(self, m: int) -> "BivariateSeries":
        if m > self.order:
            raise ValueError("cannot extend a truncated series; recompute instead")
        return BivariateSeries(self.coeffs[: m + 1], m, self.cap)

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
        return BivariateSeries.zero(order, a.cap)
    if b.order < order and va + b.order < order:
        raise ValueError("factor truncated too short for this product")
    out: list[Poly] = [()] * (order + 1)
    btop = min(b.order, order)
    cap = a.cap
    for i in range(va, order + 1 - vb):
        ai = a.coeffs[i]
        if not ai:
            continue
        for j in range(vb, min(btop, order - i) + 1):
            bj = b.coeffs[j]
            if bj:
                out[i + j] = _poly_add(out[i + j], _poly_mul(ai, bj, cap))
    return BivariateSeries(out, order, cap)


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

    Works for both carrier types.  The first factor is always requested, as
    factor(1, order), even when order is 0; its type (TruncatedSeries or
    BivariateSeries) and, for a bivariate factor, its marking cap set the
    carrier and the cap of the result.
    """
    first = factor(1, order)
    if isinstance(first, BivariateSeries):
        one, mul = BivariateSeries.one(order, first.cap), _bv_mul_into
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
