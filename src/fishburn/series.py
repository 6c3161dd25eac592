"""Truncated formal power series over exact rationals.

Everything downstream (generating functions, identity checks, enumeration
cross-checks) runs on one carrier, :class:`TruncatedSeries`: a univariate
series known exactly through a fixed order N.  Coefficients are `int` or
`fractions.Fraction`; integer inputs stay integers through ring operations,
which matters for the large counting runs (hundreds of terms with
two-hundred-digit coefficients).  An all-int coefficient list is stored as
it is; only lists holding a Fraction are normalised (integral Fractions
collapse to int).

A :class:`Marker` says how a marking variable v enters a marked series:
``eval_marker(c)`` evaluates v = c, and ``moment_marker(K, d)`` evaluates
v = 1 + 2^K with every coefficient reduced modulo M = 2^{(d+1)K}.  Full
statistic distributions come from one evaluation at v = 2^K: when every
v-coefficient is a nonnegative integer below 2^K, the base-2^K digits of a
z-coefficient are its v-polynomial (Kronecker substitution).  Moments come
from the ring map Z[eps]/(eps^{d+1}) -> Z/M that sends eps to 2^K: v^m =
(1 + eps)^m goes to sum_t C(m, t) 2^{tK}, so digit t of a reduced
z^n coefficient is sum_m C(m, t) [v^m z^n] whenever each such sum is below
2^K.  A series built by such a marker carries the modulus (``mod``, the
digit width K and the digit count d + 1), and so does every series combined
with it; series of two different moduli do not combine.  The kernel
reduces where values grow: after the dot products, at the end of a pass
walk, in the scaled running sums and products by constants of the passes,
and in ``inv``.  A pass multiplies by P as its digit planes P = sum_k
2^{kK} P_k, whose terms are small for a moment build's atoms, so a product
by c = 1 + 2^K costs one shift and one add; and a record's coefficients
are reduced too, so that its terms past eps^d drop.  A series without a
modulus pays nothing for it.

The univariate kernel :func:`_mul_into` computes each output coefficient as
one C-level dot product, ``sum(map(mul, ...))`` over slices of the two
nonzero spans, and ``TruncatedSeries.inv`` does the same for its recurrence
sum.  When both factors are supported on a lattice z^g (offsets from their
valuations all multiples of g > 1, as for even-only multisets or L(z^2)),
the product runs on that lattice.

Two shortcuts inside the same kernel cut the big-integer products.  A
series built over weights P_i(z)/Q_i(z) records the integer combination of
monomials prod_i (P_i/Q_i)^{e_i} that it expands, as one value (pairs,
terms): ``_rational_series`` records (P/Q)^1, a constant c records c over
no pair, and sums, differences, products, ``truncate`` and
``substitute_power`` carry the
record over the pairs of both operands.  Over one pair the record is the
combination sum_e c_e (P/Q)^e of powers.  So the factors of the paper's
sums arrive at the kernel with their records: the Fishburn factor
L (L^j - 1)^2 = L^{2j+1} - 2 L^{j+1} + L over L; the self-dual factor
L (L(z^2)^j - 1) over L and L(z^2); and, at v = c, where a marked atom
such as B = L(cz) is itself a rational series, the statistic factors,
such as fishburn/first_row's L (B L^{j-1} - 1)(L^j - 1) =
B L^{2j} - B L^j - L^{j+1} + L over L and B.  The one loop that makes
running products, ``_partial_products``, gives them no record: a record
would grow at every step, and past the second step the factor passes more
cheaply.

A product by such a series may run as passes: a running copy of the other
factor is multiplied by P_i and divided by Q_i once per unit step of e_i,
walking the monomials as a trie, one pair at a time with exponents
increasing, so that monomials sharing a prefix share its passes; c times
the copy joins the result at each monomial.  That is O(A N) additions
instead of O(N^2) multiplications, A the passes of the walk weighted by
the nonzero terms of each P_i and Q_i.  Dividing by Q = 1 - c z^g is one
running sum per residue class, scaled by c (a shift for c = 2^K).  The
kernel takes the passes only where its estimate says they are cheaper: the
estimate weighs the walk (in the cheapest order of the pairs) and the span
lengths, and lets a dot term cost more the longer the shorter factor's
coefficients are, since a product of two big integers grows with both
lengths and an addition only with the longer.  A polynomial weight (Q = 1)
keeps the dot products, which run in C, except under a modulus: there a
marked build's coefficients are 3K bits wide from z^1 on, and the shifted
adds of P win.  A factor that records one monomial prod_i (P_i/Q_i)^e_i
with c = 1, as a weight series and its powers do, skips the estimate: the
product runs in passes at once, for a polynomial weight too, so a running
power's advance by such a step costs e passes and no pricing.  A square
(both factors the same object, as ``_power`` makes) computes half the cross
products.  Every product goes through ``_mul_into``.  A series keeps what
its constructor's type scan found (``_ints``), so the sums, differences,
cuts, products and passes of all-int operands skip the scan (``_series``);
a Fraction operand keeps the normalisation.

Series of different truncation orders do not combine silently: combining
them raises, it never truncates behind your back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, count, islice, permutations, repeat
from math import factorial, gcd
from operator import add, and_, itemgetter, lshift, mul, sub
from typing import NamedTuple, Optional, Sequence, Union

Coeff = Union[int, Fraction]

__all__ = [
    "TruncatedSeries",
    "Marker",
    "eval_marker",
    "moment_marker",
    "exp_linear",
    "sum_product",
]


class _ModulusFields(NamedTuple):
    bits: int
    digits: int


class _Modulus(_ModulusFields):
    """Z/M with M = 2^{bits * digits}, read as `digits` base-2^bits digits;
    mask, M - 1, is made once: x & mask is x mod M, negative x included."""

    def __new__(cls, bits: int, digits: int):
        self = super().__new__(cls, bits, digits)
        self.mask = (1 << bits * digits) - 1
        return self


def _norm(x: Coeff) -> Coeff:
    """Collapse integral Fractions back to int (keeps the int fast path hot)."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _as_int(value, what: str) -> int:
    """An int or integral Fraction as an int; `what` names the value in the
    ValueError that any other Fraction raises."""
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"{what} is not an integer: {value}")
        return value.numerator
    if isinstance(value, int):
        return value
    raise TypeError(f"{what} has type {type(value).__name__}, not int or Fraction")


def _check_same_order(a, b) -> None:
    if a.order != b.order:
        raise ValueError(
            f"mixed truncation orders: {a.order} vs {b.order}; "
            "truncate explicitly before combining"
        )


def _modulus(a, b) -> Optional[_Modulus]:
    """The modulus of a combination of a and b: the one either carries."""
    if a.mod is not None and b.mod is not None and a.mod != b.mod:
        raise ValueError(f"mixed moduli: {a.mod} vs {b.mod}")
    return a.mod or b.mod


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
    """A power series known exactly for coefficients 0..order (inclusive),
    its coefficients taken modulo `mod` when that is not None."""

    # _record: for a series built over weights P_i/Q_i, the integer
    # combination of monomials prod_i (P_i/Q_i)^{e_i} that its coefficients
    # expand, as (pairs, terms): the pairs (P, Q), int tuples with Q[0] == 1,
    # sorted, and terms ((exponents, c), ...), one exponent per pair, sorted,
    # every c nonzero.  A constant c has ((), (((), c),)), ((), ()) for zero:
    # no pair, so that it combines with any record (see _tag).  None for any
    # other series; equality and hashing ignore it.
    # mod: the _Modulus of a packed moment build (int coefficients, not
    # always reduced), None for exact coefficients.
    # _ints: every coefficient was an int when built, so that a result of
    # int operands skips the type scan (``_series``).
    __slots__ = ("coeffs", "order", "_record", "mod", "_ints")

    def __init__(self, coeffs: Sequence[Coeff], order: int,
                 mod: Optional[_Modulus] = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the truncation order admits")
        cs.extend([0] * (order + 1 - len(cs)))
        # An all-int list is already normal; only Fractions can collapse.
        self._ints = set(map(type, cs)) == {int}
        self.coeffs = tuple(cs) if self._ints else tuple(map(_norm, cs))
        self.order = order
        self._record = None
        self.mod = mod

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def constant(cls, c: Coeff, order: int) -> "TruncatedSeries":
        out = cls((c,), order)
        out._record = (), (((), out.coeffs[0]),) if c else ()
        return out

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls((0, 1)[: order + 1], order)

    @classmethod
    def geometric(cls, order: int) -> "TruncatedSeries":
        """1/(1-z): the all-nonnegative-entries weight series, built by
        ``_rational_series``, so products by it divide by 1 - z."""
        return _rational_series((1,), (1, -1), order)

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
        out = _series(map(add, self.coeffs, other.coeffs), self.order,
                      _modulus(self, other), self._ints and other._ints)
        return _tag(out, self, other, _combo_add)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_same_order(self, other)
        out = _series(map(sub, self.coeffs, other.coeffs), self.order,
                      _modulus(self, other), self._ints and other._ints)
        return _tag(out, self, other, _combo_sub)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.order, self.mod)

    def scalar_mul(self, c: Coeff) -> "TruncatedSeries":
        return TruncatedSeries([c * a for a in self.coeffs], self.order, self.mod)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_same_order(self, other)
        return _mul_into(self, other, self.order)

    def truncate(self, m: int) -> "TruncatedSeries":
        """Restrict to order m <= current order."""
        if m > self.order:
            raise ValueError("cannot extend a truncated series; recompute instead")
        out = _series(self.coeffs[: m + 1], m, self.mod, self._ints)
        out._record = self._record
        return out

    def shift_down(self, m: int) -> "TruncatedSeries":
        """Divide by z^m, losing the top m coefficients (order drops by m)."""
        if m < 0:
            raise ValueError("shift_down takes m >= 0")
        if self.valuation() < m:
            raise ValueError("series is not divisible by z^m")
        if m > self.order:
            raise ValueError("shift_down past the truncation order")
        return TruncatedSeries(self.coeffs[m:], self.order - m, self.mod)

    def inv(self) -> "TruncatedSeries":
        """Multiplicative inverse; constant term must be invertible (nonzero,
        and +-1 under a modulus)."""
        a0 = self.coeffs[0]
        if self.mod is not None:
            a0 = -1 if a0 & self.mod.mask == self.mod.mask else a0 & self.mod.mask
            if a0 not in (0, 1, -1):
                raise ValueError(f"constant term {self.coeffs[0]} is not +-1 modulo "
                                 f"2^{self.mod.bits * self.mod.digits}")
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
        mask = None if self.mod is None else self.mod.mask
        for n in range(1, self.order + 1):
            s = sum(map(mul, a[1 : n + 1], out[::-1]))
            r = -s * r0 if a0 in (1, -1) else -s / a0
            out.append(_norm(r) if mask is None else r & mask)
        return TruncatedSeries(out, self.order, self.mod)

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
            [n * c for n, c in enumerate(self.coeffs)][1:], self.order - 1, self.mod
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
        result = TruncatedSeries(out, self.order, self.mod)
        if self._record is not None:
            # z -> z^m keeps the pairs distinct and in order
            pairs, terms = self._record
            result._record = tuple(tuple(_stretch(c, m) for c in pq) for pq in pairs), terms
        return result

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
        denom_inv = _rational_series((1,), (1, sign), self.order)  # 1/(1 + sign*z)
        w = TruncatedSeries.x(self.order) * denom_inv
        return self.compose(w)


def _mul_into(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Product truncated at `order`, one C-level dot product per coefficient
    or, for a factor with a record over pairs P_i/Q_i, passes.

    Only the nonzero spans take part: a from its valuation to its last
    nonzero coefficient that can reach the window, and b likewise.  When the
    nonzero coefficients of both sit on a lattice va + g*i and vb + g*j with
    g > 1 (the gcd of their offsets), the product is taken on that lattice
    and only every g-th output coefficient is computed.  Zeros left inside
    the spans are multiplied, not skipped: an int product by 0 costs little
    next to a Python-level loop.  When a is b (a square, as ``_power``
    makes), each coefficient is 2 sum_{i<m-i} x_i x_{m-i} + x_{m/2}^2, half
    the cross products.  Under a modulus each dot product is reduced.

    A factor f that records a combination of monomials prod_i (P_i/Q_i)^e_i
    (a weight series from ``_rational_series``, a marked atom at v = c, and
    the sums and products built from them) may instead multiply the other
    factor x by passes walking the monomials pair by pair (``_mul_record``).
    When f records one monomial with c = 1 (b is tried first, then a), the
    passes run at once, with no estimate: a running power's advance by its
    step, a weight series or a power of one, Q = 1 included.  Otherwise the
    rule decides: with n the window from x's valuation to `order` on the
    lattice, the passes cost (A + number of terms) n additions, A the
    additions per coefficient of the cheapest walk (``_pass_plan``, from
    ``_pass_weight`` of each pair); they run when that is at most
    ``_pass_ratio(b)`` times the terms the dot products would multiply
    (``_dot_terms`` of the span lengths, halved for a square), b the
    shorter bit length of the two spans' last nonzero coefficients (under a
    modulus, of their widest: a polynomial's last one can be 1, and a build
    whose marks vanish stays count-sized); when both factors qualify, the
    cheaper runs.  A polynomial weight (Q = 1) takes passes only under a
    modulus: elsewhere its dot products run in C, while a shifted sum over
    P's terms gains nothing at the sizes used here.  The product carries the
    combination of both factors' records, over the pairs of both.

    b may carry a *smaller* order than a when a's valuation guarantees the
    missing top coefficients of b cannot reach the truncation window; this is
    what lets the sum-of-products kernel truncate its factors adaptively.
    Either factor may carry a larger order, so a running power advances
    without cutting its step.
    """
    mod = _modulus(a, b)
    va, vb = a.valuation(), b.valuation()
    if va + vb > order:
        out = TruncatedSeries.zero(order)
        out.mod = mod
        return out
    if b.order < order and va + b.order < order:
        raise ValueError("factor truncated too short for this product")
    for f, x, lo in ((b, a, va), (a, b, vb)):
        r = f._record
        if r is not None and r[0] and len(r[1]) == 1 and r[1][0][1] == 1:
            out = _mul_record(x.coeffs[lo : order + 1], r[0], lo, order, r[1], mod, x._ints)
            return _tag(out, a, b, _combo_mul)
    acs, bcs = a.coeffs, b.coeffs
    ta = _last_nonzero(acs, order - vb)
    tb = _last_nonzero(bcs, order - va)
    g = _lattice_step(acs, va, ta, 0)
    if g != 1:
        g = _lattice_step(bcs, vb, tb, g) or 1
    xs = acs[va : ta + 1 : g]
    ys = bcs[vb : tb + 1 : g][::-1]
    la, lb = len(xs), len(ys)
    width = min((order - va - vb) // g, la + lb - 2) + 1
    square = a is b
    terms = _dot_terms(la, lb, width) // (2 if square else 1)
    best = None
    for f, x, lo, hi in ((b, a, va, ta), (a, b, vb, tb)):
        plan = _pass_plan(f, order - lo, g, mod)
        if plan is not None and (best is None or plan[0] < best[0][0]):
            best = plan, x, lo, hi
    if mod is None:
        bits = min(_bits(acs[ta]), _bits(bcs[tb]))
    else:
        bits = min(max(map(int.bit_length, xs)), max(map(int.bit_length, ys)))
    if best is not None and best[0][0] <= _pass_ratio(bits) * terms:
        (_, pairs, walk), x, lo, hi = best
        out = _mul_record(x.coeffs[lo : hi + 1], pairs, lo, order, walk, mod, x._ints)
        return _tag(out, a, b, _combo_mul)
    # Output m of the lattice product is sum_i xs[i] * ys[lb - 1 - m + i]
    # over the i with both indices in range.
    dots = []
    for m in range(width):
        lo = m - lb + 1 if m >= lb else 0
        hi = (m + 1) // 2 if square else (m + 1 if m < la else la)
        s = sum(map(mul, xs[lo:hi], ys[lb - 1 - m + lo : lb - 1 - m + hi]))
        if square:  # each pair i < m - i counts twice; add the middle term
            s += s
            if not m & 1:
                s += xs[m // 2] * xs[m // 2]
        dots.append(s)
    if mod is not None:
        dots = list(map(and_, dots, repeat(mod.mask)))
    out: list[Coeff] = [0] * (order + 1)
    out[va + vb : va + vb + g * len(dots) : g] = dots
    return _tag(_series(out, order, mod, a._ints and b._ints), a, b, _combo_mul)


def _series(cs, order: int, mod: Optional[_Modulus], ints: bool) -> TruncatedSeries:
    """TruncatedSeries(cs, order, mod), cs of length order + 1; with `ints`,
    cs holds only ints, and the constructor's type scan is skipped."""
    if not ints:
        return TruncatedSeries(cs, order, mod)
    out = object.__new__(TruncatedSeries)
    out.coeffs, out.order, out._record, out.mod, out._ints = tuple(cs), order, None, mod, True
    return out


# The rule's ratio of pass additions to dot terms.  A pass addition costs
# about as much as adding two coefficients of the longer operand, while a dot
# term multiplies two coefficients, which grows with the bit lengths of both
# (in CPython's schoolbook range, with the shorter one): on this code's
# sizes a dot term measured 2-4 additions below 256 bits, 15-30 at 1,024
# and 44-74 at 4,096.  So passes run when their estimated additions are at
# most _PASS_RATIO * max(1, b / _PASS_BITS) times the dot terms, b the
# shorter bit length of the two spans' last nonzero coefficients (the
# largest, for the growing coefficients of these series).  _PASS_RATIO = 2.5
# gave the least total time, of 2, 2.5, 3 and 4, over fishburn, row-fishburn
# and self-dual builds on the named multisets with Q != 1 at orders 200-250,
# whose b stays below 256.  _PASS_BITS = 256, of 64, 128, 256, 512 and no
# size term, gave within 1% of the least total time over family builds at
# orders 200-400 and packed profile builds at orders 30-60 (b up to 14,000),
# and keeps every choice of the family builds up to order 250.
_PASS_RATIO = 2.5
_PASS_BITS = 256


def _pass_ratio(bits: int) -> float:
    """The most pass additions per dot term at which passes run, for
    coefficients of `bits` bits in the shorter factor."""
    return _PASS_RATIO * max(1, bits / _PASS_BITS)


def _bits(c: Coeff) -> int:
    """The bit length of an int, or of a Fraction's numerator and denominator
    together."""
    if type(c) is int:
        return c.bit_length()
    return c.numerator.bit_length() + c.denominator.bit_length()


def _dot_terms(la: int, lb: int, width: int) -> int:
    """The pairs (i, j) with i < la, j < lb and i + j < width: the terms of
    the dot products of spans of lengths la and lb at `width` outputs."""
    a = min(la, width)
    full = max(0, min(a, width - lb + 1))  # rows i that pair with all of lb
    return full * lb + (a - full) * (2 * width - full - a + 1) // 2


@lru_cache(maxsize=1024)
def _pass_weight(pq: tuple, mod: Optional[_Modulus]) -> Optional[int]:
    """Additions per coefficient of one pass of P/Q under `mod` (None for
    exact coefficients), None for Q = 1 without a modulus, which takes no
    passes.  A pass multiplies by P (``_poly_price``).  The division by
    Q = 1 - z^g is one running sum; by Q = 1 - c z^g a scaled running sum,
    priced at 2 for a shift (c a power of two) and 2 + b/32 for a product by
    a b-bit c, or under a modulus 1 + the product by c's digits; and by any
    other Q a Python-level step per coefficient, priced at 8 additions plus
    two per nonzero term of Q past its first two."""
    P, Q = pq
    if len(Q) == 1 and mod is None:
        return None
    w = _poly_price(P, mod)
    c = _scaled_step(Q)
    if len(Q) == 1 or c == 1:
        return w + (len(Q) > 1)
    if c is None:
        return w + 8 + 2 * (sum(map(bool, Q)) - 2)
    if mod is None:
        return w + 2 + (0 if _is_power_of_two(c) else _bits(c) // 32)
    return w + 1 + _poly_price((c,), mod)


def _poly_price(P: tuple, mod: Optional[_Modulus]) -> int:
    """Additions per coefficient of y * P (``_times_poly``): one per term of
    P past the first, and 1 + b/32 per b-bit term p other than +-1, the
    price the rule was fitted with; under a modulus, per digit plane
    (``_planes``), one product per distinct |p| whose first term is not 1,
    as ``_times_poly`` makes them, 2 for each plane reduced and shifted, and
    one addition per plane past the first."""
    if mod is None:
        return sum(map(bool, P)) - 1 + sum(1 + _bits(p) // 32 for p in P if p not in (0, 1, -1))
    planes = _planes(P, mod)
    return sum(sum(map(bool, plane)) - 1 + 2 * (k > 0) + sum(
        1 + _bits(p) // 32 for _, p, _ in _poly_groups(plane) if p != 1)
        for k, plane in planes) + len(planes) - 1


@lru_cache(maxsize=1024)
def _planes(P: tuple, mod: _Modulus) -> tuple:
    """P = sum_k 2^k P_k modulo M, as the pairs (k, P_k) with P_k nonzero:
    P_k holds the base-2^K digit at 2^k of each |p| mod M, with the sign of
    p.  The terms of a moment build's atoms are w (1 + 2^K)^m, so their
    planes have the small terms w, w m and w C(m, 2)."""
    low, planes = (1 << mod.bits) - 1, {}
    for i, p in enumerate(P):
        r = abs(p) & mod.mask
        for k in range(0, mod.bits * mod.digits, mod.bits):
            if r >> k & low:
                planes.setdefault(k, [0] * len(P))[i] = (r >> k & low) * (1 if p > 0 else -1)
    return tuple((k, tuple(plane)) for k, plane in sorted(planes.items()))


def _is_power_of_two(c: Coeff) -> bool:
    return type(c) is int and c > 0 and not c & (c - 1)


def _scaled_step(Q: tuple) -> Optional[Coeff]:
    """c when Q = 1 - c z^g for some g >= 1, so that dividing by Q is a
    (scaled) running sum; None otherwise."""
    if len(Q) > 1 and not any(Q[1:-1]):
        return -Q[-1]
    return None


def _pass_plan(f: TruncatedSeries, span: int, g: int, mod: Optional[_Modulus]
               ) -> Optional[tuple]:
    """(cost, pairs, terms) for multiplying by f in passes, under `mod`, a
    factor whose product with f fills the `span` coefficients past its
    valuation on the lattice step g: the estimated additions, and the pairs
    in the order of the cheapest walk (``_walk_additions``; over one pair,
    passes up to the last term's exponent) with the terms sorted in that
    order.  None when f has no record over a pair, or when a pair with
    Q = 1 would need passes without a modulus."""
    if f._record is None or not f._record[0]:  # no record, or a constant's
        return None
    pairs, terms = f._record
    n = span // gcd(g, *map(_pair_step, pairs)) + 1
    if len(pairs) == 1:  # O(1), for the many products by one weight series
        w = _pass_weight(pairs[0], mod)
        return None if w is None else ((terms[-1][0][0] * w + len(terms)) * n, pairs, terms)
    best = None
    # Records span a few pairs; past four, only the first 24 orders are tried.
    for walk in islice(permutations(range(len(pairs))), 24):
        get = itemgetter(*walk)
        steps = _walk_additions(get(pairs), [get(e) for e, _ in terms], mod)
        if steps is not None and (best is None or steps < best[0]):
            best = steps, get
    if best is None:
        return None
    steps, get = best
    walked = get(pairs)
    if walked != pairs:
        terms = tuple(sorted((get(e), c) for e, c in terms))
    return (steps + len(terms)) * n, walked, terms


def _walk_additions(pairs: tuple, exponents: list, mod: Optional[_Modulus]
                    ) -> Optional[int]:
    """Additions per coefficient of the passes under `mod` that walk these
    exponent tuples as a trie, pair by pair in the order given: below each
    prefix the running copy takes passes of the next pair up to the largest
    exponent that follows the prefix.  None when a pair with Q = 1 would
    need passes without a modulus."""
    total = 0
    for level, pq in enumerate(pairs):
        reach: dict = {}
        for e in exponents:
            if e[level] > reach.get(e[:level], 0):
                reach[e[:level]] = e[level]
        passes = sum(reach.values())
        if passes:
            w = _pass_weight(pq, mod)
            if w is None:
                return None
            total += passes * w
    return total


@lru_cache(maxsize=1024)
def _pair_step(pq: tuple) -> int:
    """The gcd of the exponents of the nonzero terms of P and Q: P/Q is a
    series in z^step."""
    P, Q = pq
    return gcd(*compress(count(), P), *compress(count(), Q))


def _mul_record(
    xs: Sequence[Coeff], pairs: tuple, lo: int, order: int, terms: tuple,
    mod: Optional[_Modulus], ints: bool = False,
) -> TruncatedSeries:
    """x * sum c prod_i (P_i/Q_i)^{e_i} truncated at `order`, for terms
    ((exponents, c), ...) sorted, one exponent per pair of `pairs`, where x
    is zero below z^lo and xs holds its coefficients from z^lo on.

    The terms are walked as a trie, one pair per level in the order given:
    base[i] holds x times the passes of the pairs before i at the current
    term's prefix of exponents.  A term that first differs from the one
    before at level k continues the copy of level k from the exponent it
    had there and starts every deeper level afresh from the copy above it;
    a pass of P_i/Q_i is the shifted adds of P_i, then the division by Q_i.
    c times the copy reached joins the result.  When x and every P_i and
    Q_i live on a lattice step g > 1, the passes run on it.  Under a
    modulus the result is reduced once, at the end, besides the reductions
    inside the passes.  `ints` says that xs holds only ints.
    """
    g = _lattice_step(xs, 0, len(xs) - 1, gcd(*map(_pair_step, pairs))) or 1
    if g > 1:
        xs, pairs = xs[::g], tuple((P[::g], Q[::g]) for P, Q in pairs)
    n = (order - lo) // g + 1
    y = list(xs[:n])
    y.extend(repeat(0, n - len(y)))
    depth = len(pairs)
    base = [y] * (depth + 1)
    prev = (0,) * depth
    out = None
    for e, c in terms:
        k = 0
        while k < depth and e[k] == prev[k]:
            k += 1
        if k < depth:
            y, start = base[k + 1], prev[k]
            for i in range(k, depth):
                P, Q = pairs[i]
                for _ in range(e[i] - start):
                    y = _divide(_times_poly(y, P, mod), Q, mod)
                base[i + 1], start = y, 0
            prev = e
        if c == 1:
            term = y
        else:
            term = list(map(mul, y, repeat(c))) if mod is None else _times_poly(y, (c,), mod)
        out = term if out is None else list(map(add, out, term))
    if mod is not None:
        out = list(map(and_, out, repeat(mod.mask)))
    result: list[Coeff] = [0] * (order + 1)
    result[lo::g] = out
    return _series(result, order, mod, ints and all(type(c) is int for _, c in terms))


def _times_poly(y: list, P: tuple, mod: Optional[_Modulus]) -> list:
    """y * P truncated at len(y) - 1, as a new list: the shifted copies of y
    are added per distinct |p| of P's terms, then multiplied by p once, as
    y + p (z y - z^2 y) for P = 1 + p z - p z^2.

    Under a modulus y P = sum_k 2^k (y P_k) over the planes of P
    (``_planes``), y P_k made as above and, for k > 0, reduced mod M/2^k
    before its shift; ``_mul_record`` reduces the sum at the end."""
    n = len(y)
    out = None
    if mod is not None:
        for k, plane in _planes(P, mod):
            t = _times_poly(y, plane, None)
            if k:
                t = list(map(lshift, map(and_, t, repeat(mod.mask >> k)), repeat(k)))
            out = t if out is None else list(map(add, out, t))
        return [0] * n if out is None else out
    for k, p, rest in _poly_groups(P):
        if k >= n:  # the later terms of the group lie past the window too
            continue
        t = [0] * k + y[: n - k]
        for j, q in rest:
            t[j:] = map(add if q == p else sub, t[j:], y[: n - j])
        if p != 1:
            t = list(map(mul, t, repeat(p)))
        out = t if out is None else list(map(add, out, t))
    return [0] * n if out is None else out


@lru_cache(maxsize=1024)
def _poly_groups(P: tuple) -> tuple:
    """The nonzero terms of P by |p|, as (k, p, ((j, q), ...)): the first
    term p z^k of each |p| and the later ones; cached for the many passes."""
    groups: dict = {}
    for k, p in enumerate(P):
        if p:
            groups.setdefault(abs(p), []).append((k, p))
    return tuple((*first, tuple(rest)) for first, *rest in groups.values())


def _divide(t: list, Q: tuple, mod: Optional[_Modulus]) -> list:
    """t / Q as a power series truncated at len(t) - 1, in place except for
    Q = 1 - z, whose running sum is a new list; Q[0] == 1.

    For Q = 1 - c z^g each residue class mod g is one running sum, scaled by
    c (a shift when c is a power of two, as at v = 2^K; under a modulus
    shifted adds of the digits of c, reduced at each step)."""
    g = len(Q) - 1
    if not g:
        return t
    c = _scaled_step(Q)
    if c is not None:
        if c == 1 and g == 1:
            return list(accumulate(t))
        if c == 1:
            step = None  # plain addition, which accumulate runs without a call
        elif mod is not None:
            step = _reduced_step(c, mod)
        elif _is_power_of_two(c) and all(type(x) is int for x in t):
            shift = c.bit_length() - 1
            step = lambda s, x: (s << shift) + x  # noqa: E731
        else:
            step = lambda s, x: x + c * s  # noqa: E731
        for r in range(min(g, len(t))):
            t[r::g] = accumulate(t[r::g], step)
        return t
    for m in range(1, len(t)):
        t[m] -= sum(map(mul, Q[1:], reversed(t[max(m - g, 0) : m])))
        if mod is not None:
            t[m] &= mod.mask
    return t


def _reduced_step(c: int, mod: _Modulus):
    """(s, x) -> c s + x mod M, c s as shifted adds of c's digits (``_planes``)."""
    digits, mask = [(k, d) for k, (d,) in _planes((c,), mod)], mod.mask

    def step(s, x):
        for k, d in digits:
            x += s * d << k
        return x & mask

    return step


def _rational_series(P: Sequence[int], Q: Sequence[int], order: int,
                     mod: Optional[_Modulus] = None) -> TruncatedSeries:
    """The expansion of P/Q at `order`, reduced by `mod` when given,
    recording the pair and the combination (P/Q)^1 so that products by it
    may take ``_mul_into``'s passes.  Q[0] must be 1."""
    if Q[0] != 1:
        raise ValueError("the denominator must have constant term 1")
    t = list(P[: order + 1])
    t.extend([0] * (order + 1 - len(t)))
    t = _divide(t, Q, mod)
    if mod is not None:
        t = list(map(and_, t, repeat(mod.mask)))
    out = TruncatedSeries(t, order, mod)
    out._record = ((tuple(P), tuple(Q)),), (((1,), 1),)
    return out


# ---------------------------------------------------------------------------
# Records: combinations of monomials in weight series
# ---------------------------------------------------------------------------

def _widen(pairs: tuple, own: tuple, terms: tuple) -> tuple:
    """The terms of a record over `own`, some of the sorted `pairs`, as
    terms over `pairs`: a zero exponent for each pair not in `own`.  The
    terms stay sorted."""
    if own == pairs:
        return terms
    at = [pairs.index(pq) for pq in own]
    out = []
    for e, c in terms:
        key = [0] * len(pairs)
        for i, k in zip(at, e):
            key[i] = k
        out.append((tuple(key), c))
    return tuple(out)


def _tag(out: TruncatedSeries, a: TruncatedSeries, b: TruncatedSeries,
         combine) -> TruncatedSeries:
    """Give `out`, built from a and b, the record combine(a's, b's), over the
    sorted pairs of both (a constant's record has none); return out.

    Under a modulus M each c is taken mod M, least in size, and the terms
    with c = 0 drop: so a moment atom's powers lose their terms past the
    (d+1)-th power of its 2^K-fold part.
    """
    ra, rb = a._record, b._record
    if ra is None or rb is None:
        return out
    pairs = ra[0] if ra[0] == rb[0] else tuple(sorted(set(ra[0] + rb[0])))
    terms = combine(_widen(pairs, *ra), _widen(pairs, *rb))
    if out.mod is not None:
        m = out.mod.mask + 1
        terms = tuple((e, r) for e, c in terms if (r := (c + m // 2) % m - m // 2))
    out._record = pairs, terms
    return out


def _combo_from(terms: dict) -> tuple:
    return tuple((e, c) for e, c in sorted(terms.items()) if c)


def _combo_add(x: tuple, y: tuple) -> tuple:
    terms = dict(x)
    for e, c in y:
        terms[e] = terms.get(e, 0) + c
    return _combo_from(terms)


def _combo_sub(x: tuple, y: tuple) -> tuple:
    return _combo_add(x, tuple((e, -c) for e, c in y))


def _combo_mul(x: tuple, y: tuple) -> tuple:
    terms: dict = {}
    for e, c in x:
        for f, d in y:
            k = tuple(map(add, e, f))
            terms[k] = terms.get(k, 0) + c * d
    return _combo_from(terms)


def _stretch(cs: tuple, m: int) -> tuple:
    """The coefficients of c(z^m) for the polynomial c."""
    out = [0] * (m * (len(cs) - 1) + 1)
    out[::m] = cs
    return tuple(out)


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


# ---------------------------------------------------------------------------
# Reference product of v-polynomial rows
# ---------------------------------------------------------------------------

Poly = tuple  # v-polynomial, low degree first


def _bv_mul_into(a: Sequence[Poly], b: Sequence[Poly], order: int) -> tuple:
    """Schoolbook product at `order` of series given as tuples of v-polynomial
    rows, trailing zeros trimmed: the tests' reference; no library calls it."""
    out: list = [[] for _ in range(order + 1)]
    for i, p in enumerate(a[: order + 1]):
        for j, q in enumerate(b[: order + 1 - i]):
            row = out[i + j]
            row.extend([0] * (len(p) + len(q) - 1 - len(row)))
            for s, x in enumerate(p):
                for t, y in enumerate(q):
                    row[s + t] += x * y
    for row in out:
        while row and not row[-1]:
            row.pop()
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# Markers: how the marking variable enters
# ---------------------------------------------------------------------------

class Marker(NamedTuple):
    """How the marking variable v enters a marked series: v = value, and the
    marked atoms carry the modulus `mod` (None for exact coefficients)."""

    value: Coeff
    mod: Optional[_Modulus] = None


def eval_marker(c: Coeff) -> Marker:
    """v = c, exactly.  With c = 2^K above every v-coefficient, the base-2^K
    digits of a z-coefficient are its v-polynomial."""
    return Marker(c)


def moment_marker(bits: int, depth: int = 2) -> Marker:
    """v = 1 + 2^bits modulo M = 2^{(depth+1) bits}: digit t <= depth of a
    reduced z^n coefficient, base 2^bits, is sum_m C(m, t) [v^m z^n] when
    each of these sums is below 2^bits.  Depth 2 gives exact mean and
    variance without carrying degree-n polynomials."""
    if depth < 1:
        raise ValueError("moment depth must be >= 1")
    return Marker(1 + (1 << bits), _Modulus(bits, depth + 1))


# ---------------------------------------------------------------------------
# The sum-of-finite-products kernel
# ---------------------------------------------------------------------------

def _partial_products(factor, order: int):
    """prod_{1<=j<=k} factor(j) at `order`, for k = 0 (the 1), 1, 2, ... while
    it reaches the window; no product carries a record.

    factor(j, m) returns the j-th factor at order m, which shrinks as the
    running product's valuation climbs (a full-order series is always
    allowed), with valuation >= 1, so the loop stops by k = order + 1.
    factor(1, order) is requested first, even at order 0; its modulus, if
    any, is every product's.
    """
    first = factor(1, order)
    prod = TruncatedSeries([1], order, first.mod)  # not one(order), which has a record
    yield prod
    for k in count(1):
        room = order - prod.valuation()
        if room < 1:
            return
        f = first if k == 1 else factor(k, room)
        if f.valuation() < 1:
            raise ValueError(
                f"factor {k} has nonzero constant term; the sum would not terminate"
            )
        prod = _mul_into(prod, f, order)
        if prod.valuation() > order:
            return
        yield prod
        if k > order + 1:  # pragma: no cover - guarded by the valuation argument
            raise RuntimeError("sum-of-products failed to terminate")


def sum_product(factor, order: int) -> TruncatedSeries:
    """Sum over k >= 0 of the ``_partial_products`` prod_{1<=j<=k} factor(j)."""
    products = _partial_products(factor, order)
    return sum(products, next(products))  # frees each partial sum at once, unlike reduce
