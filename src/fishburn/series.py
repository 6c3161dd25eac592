"""Truncated formal power series over exact rationals.

Everything downstream (generating functions, identity checks, enumeration
cross-checks) runs on the two carrier types in this module, one per job:

* :class:`TruncatedSeries` -- a univariate series known exactly through a
  fixed order N.  Coefficients are `int` or `fractions.Fraction`; integer
  inputs stay integers through ring operations, which matters for the large
  counting runs (hundreds of terms with two-hundred-digit coefficients).
  An all-int coefficient list is stored as it is; only lists holding a
  Fraction are normalised (integral Fractions collapse to int).

* :class:`Jet` -- a moment jet: v = 1 + eps with the eps-polynomials cut
  after a small depth, held as depth + 1 univariate series.  It gives exact
  factorial moments without the full polynomial, and its products run on the
  univariate kernel.

A :class:`Marker` says how a marking variable v enters a marked series:
``eval_marker(c)`` evaluates v = c, so the carrier is TruncatedSeries, and
``jet_marker`` selects Jet.  The marker lifts univariate series and builds
marked atoms, so the statistic builders are written once for both.  Full
statistic distributions come from one evaluation at v = 2^K: when every
v-coefficient is a nonnegative integer below 2^K, the base-2^K digits of a
z-coefficient are its v-polynomial (Kronecker substitution).

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
B L^{2j} - B L^j - L^{j+1} + L over L and B.  ``sum_product``'s running
product carries no record: its record would grow at every step, and past
the second step its factor always passes more cheaply.

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
keeps the dot products, which run in C.  A square (both factors the same
object, as ``_power`` makes) computes half the cross products.  Every
product still goes through ``_mul_into``.

Every type refuses to mix truncation orders silently: combining series of
different orders raises, it never truncates behind your back.  Combining a
jet with another carrier, or jets of different depths, raises too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, count, islice, permutations, repeat
from math import comb, factorial, gcd
from operator import add, itemgetter, mul, sub
from typing import Callable, NamedTuple, Optional, Sequence, Union

Coeff = Union[int, Fraction]

__all__ = [
    "TruncatedSeries",
    "Jet",
    "Marker",
    "eval_marker",
    "jet_marker",
    "exp_linear",
    "sum_product",
]


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

    # _record: for a series built over weights P_i/Q_i, the integer
    # combination of monomials prod_i (P_i/Q_i)^{e_i} that its coefficients
    # expand, as (pairs, terms): the pairs (P, Q), int tuples with Q[0] == 1,
    # sorted, and terms ((exponents, c), ...), one exponent per pair, sorted,
    # every c nonzero.  A constant c has ((), (((), c),)), ((), ()) for zero:
    # no pair, so that it combines with any record (see _tag).  None for any
    # other series; equality and hashing ignore it.
    __slots__ = ("coeffs", "order", "_record")

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
        self._record = None

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
        out = TruncatedSeries(list(map(add, self.coeffs, other.coeffs)), self.order)
        return _tag(out, self, other, _combo_add)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_same_order(self, other)
        out = TruncatedSeries(list(map(sub, self.coeffs, other.coeffs)), self.order)
        return _tag(out, self, other, _combo_sub)

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
        out = TruncatedSeries(self.coeffs[: m + 1], m)
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
        result = TruncatedSeries(out, self.order)
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
    or, for a factor with a record over pairs P_i/Q_i (Q_i != 1), passes.

    Only the nonzero spans take part: a from its valuation to its last
    nonzero coefficient that can reach the window, and b likewise.  When the
    nonzero coefficients of both sit on a lattice va + g*i and vb + g*j with
    g > 1 (the gcd of their offsets), the product is taken on that lattice
    and only every g-th output coefficient is computed.  Zeros left inside
    the spans are multiplied, not skipped: an int product by 0 costs little
    next to a Python-level loop.  When a is b (a square, as ``_power``
    makes), each coefficient is 2 sum_{i<m-i} x_i x_{m-i} + x_{m/2}^2, half
    the cross products.

    A factor f that records a combination of monomials prod_i (P_i/Q_i)^e_i
    (a weight series from ``_rational_series``, a marked atom at v = c, and
    the sums and products built from them) may instead multiply the other
    factor x by passes walking the monomials pair by pair (``_mul_record``).
    The rule: with n the window from x's valuation to `order` on the
    lattice, the passes cost (A + number of terms) n additions, A the
    additions per coefficient of the cheapest walk (``_pass_plan``, from
    ``_pass_weight`` of each pair); they run when that is at most
    ``_pass_ratio(b)`` times the terms the dot products would multiply
    (``_dot_terms`` of the span lengths, halved for a square), b the
    shorter bit length of the two spans' last nonzero coefficients; when
    both factors qualify, the cheaper runs.  A polynomial weight (Q = 1)
    takes no passes: its dot products run in C, while a shifted sum over P's
    terms gains nothing at the sizes used here.  The product carries the
    combination of both factors' records, over the pairs of both, while its
    passes could still pass that rule at this order.

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
    width = min((order - va - vb) // g, la + lb - 2) + 1
    square = a is b
    terms = _dot_terms(la, lb, width) // (2 if square else 1)
    best = None
    for f, cs, lo, hi in ((b, acs, va, ta), (a, bcs, vb, tb)):
        plan = _pass_plan(f, order - lo, g)
        if plan is not None and (best is None or plan[0] < best[0][0]):
            best = plan, cs[lo : hi + 1], lo
    if best is not None and best[0][0] <= _pass_ratio(min(_bits(acs[ta]), _bits(bcs[tb]))) * terms:
        (_, pairs, walk), span, lo = best
        return _tag(_mul_record(span, pairs, lo, order, walk), a, b, _combo_mul, order)
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
    out: list[Coeff] = [0] * (order + 1)
    out[va + vb : va + vb + g * len(dots) : g] = dots
    return _tag(TruncatedSeries(out, order), a, b, _combo_mul, order)


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
def _pass_weight(pq: tuple) -> Optional[int]:
    """Additions per coefficient of one pass of P/Q, None for Q = 1, which
    takes no passes.  A pass copies the running series for the first term of
    P, adds it once per further term and pays 1 + b/32 additions for each
    b-bit term p other than +-1 (``_times_poly`` makes one product per |p|).
    The division by Q = 1 - z^g is one running sum; by Q = 1 - c z^g a
    scaled running sum, priced at 2 for a shift (c a power of two) and
    2 + b/32 for a product by a b-bit c; and by any other Q a Python-level
    step per coefficient, priced at 8 additions plus two per nonzero term of
    Q past its first two."""
    P, Q = pq
    if len(Q) == 1:
        return None
    terms = [p for p in P if p]
    w = len(terms) - 1 + sum(1 + _bits(p) // 32 for p in terms if p not in (1, -1))
    c = _scaled_step(Q)
    if c == 1:
        return w + 1
    if c is not None:
        return w + 2 + (0 if _is_power_of_two(c) else _bits(c) // 32)
    return w + 8 + 2 * (sum(map(bool, Q)) - 2)


def _is_power_of_two(c: Coeff) -> bool:
    return type(c) is int and c > 0 and not c & (c - 1)


def _scaled_step(Q: tuple) -> Optional[Coeff]:
    """c when Q = 1 - c z^g for some g >= 1, so that dividing by Q is a
    (scaled) running sum; None otherwise."""
    if len(Q) > 1 and not any(Q[1:-1]):
        return -Q[-1]
    return None


def _pass_plan(f: TruncatedSeries, span: int, g: int) -> Optional[tuple]:
    """(cost, pairs, terms) for multiplying by f in passes a factor whose
    product with f fills the `span` coefficients past its valuation on the
    lattice step g: the estimated additions, and the pairs in the order of
    the cheapest walk (``_walk_additions``; over one pair, passes up to the
    last term's exponent) with the terms sorted in that order.  None when f
    has no record over a pair, or when a pair with Q = 1 would need passes."""
    if f._record is None or not f._record[0]:  # no record, or a constant's
        return None
    pairs, terms = f._record
    n = span // gcd(g, *map(_pair_step, pairs)) + 1
    if len(pairs) == 1:  # O(1), for the many products by one weight series
        w = _pass_weight(pairs[0])
        return None if w is None else ((terms[-1][0][0] * w + len(terms)) * n, pairs, terms)
    best = None
    # Records span a few pairs; past four, only the first 24 orders are tried.
    for walk in islice(permutations(range(len(pairs))), 24):
        get = itemgetter(*walk)
        steps = _walk_additions(get(pairs), [get(e) for e, _ in terms])
        if steps is not None and (best is None or steps < best[0]):
            best = steps, get
    if best is None:
        return None
    steps, get = best
    walked = get(pairs)
    if walked != pairs:
        terms = tuple(sorted((get(e), c) for e, c in terms))
    return (steps + len(terms)) * n, walked, terms


def _walk_additions(pairs: tuple, exponents: list) -> Optional[int]:
    """Additions per coefficient of the passes that walk these exponent
    tuples as a trie, pair by pair in the order given: below each prefix the
    running copy takes passes of the next pair up to the largest exponent
    that follows the prefix.  None when a pair with Q = 1 would need passes."""
    total = 0
    for level, pq in enumerate(pairs):
        reach: dict = {}
        for e in exponents:
            if e[level] > reach.get(e[:level], 0):
                reach[e[:level]] = e[level]
        passes = sum(reach.values())
        if passes:
            w = _pass_weight(pq)
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
    xs: Sequence[Coeff], pairs: tuple, lo: int, order: int, terms: tuple
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
    Q_i live on a lattice step g > 1, the passes run on it.
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
                    y = _divide(_times_poly(y, P), Q)
                base[i + 1], start = y, 0
            prev = e
        term = y if c == 1 else list(map(mul, y, repeat(c)))
        out = term if out is None else list(map(add, out, term))
    result: list[Coeff] = [0] * (order + 1)
    result[lo::g] = out
    return TruncatedSeries(result, order)


def _times_poly(y: list, P: tuple) -> list:
    """y * P truncated at len(y) - 1, as a new list: the shifted copies of y
    are added per distinct |p| of P's terms, then multiplied by p once, as
    y + p (z y - z^2 y) for P = 1 + p z - p z^2."""
    n = len(y)
    out = None
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


def _divide(t: list, Q: tuple) -> list:
    """t / Q as a power series truncated at len(t) - 1, in place except for
    Q = 1 - z, whose running sum is a new list; Q[0] == 1.

    For Q = 1 - c z^g each residue class mod g is one running sum, scaled by
    c (a shift when c is a power of two, as at v = 2^K)."""
    g = len(Q) - 1
    if not g:
        return t
    c = _scaled_step(Q)
    if c is not None:
        if c == 1 and g == 1:
            return list(accumulate(t))
        if c == 1:
            step = None  # plain addition, which accumulate runs without a call
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
    return t


def _rational_series(P: Sequence[int], Q: Sequence[int], order: int) -> TruncatedSeries:
    """The expansion of P/Q at `order`, recording the pair and the
    combination (P/Q)^1 so that products by it may take ``_mul_into``'s
    passes.  Q[0] must be 1."""
    if Q[0] != 1:
        raise ValueError("the denominator must have constant term 1")
    t = list(P[: order + 1])
    t.extend([0] * (order + 1 - len(t)))
    out = TruncatedSeries(_divide(t, Q), order)
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
         combine, order: Optional[int] = None) -> TruncatedSeries:
    """Give `out`, built from a and b, the record combine(a's, b's), over the
    sorted pairs of both (a constant's record has none); return out.

    A product (`order` given) keeps none when its passes could never beat
    the dot products at that order (``_may_pass``), which also bounds the
    size of the combinations carried.
    """
    ra, rb = a._record, b._record
    if ra is None or rb is None:
        return out
    pairs = ra[0] if ra[0] == rb[0] else tuple(sorted(set(ra[0] + rb[0])))
    terms = combine(_widen(pairs, *ra), _widen(pairs, *rb))
    if order is None or _may_pass(out, zip(pairs, map(max, zip(*(e for e, _ in terms))))):
        out._record = pairs, terms
    return out


def _may_pass(out: TruncatedSeries, reach) -> bool:
    """Whether passes by `out`, whose record takes each pair pq of `reach`,
    pairs (pq, e), to the largest exponent e, could pass ``_mul_into``'s
    rule at its order: over a window of n <= order + 1 coefficients they
    cost at least sum e w additions per coefficient, against
    _pass_ratio(b) n / 2 for the at most n^2 / 2 dot terms.  b is taken as
    the bit length of out's last nonzero coefficient: the coefficients of
    these series grow with the index, so no cut of out has longer ones."""
    total = 0
    for pq, e in reach:
        if e:
            w = _pass_weight(pq)
            if w is None:
                return False
            total += e * w
    if 2 * total <= _PASS_RATIO * (out.order + 1):
        return True
    cs = out.coeffs
    bits = _bits(cs[_last_nonzero(cs, out.order)]) if any(cs) else 0
    return 2 * total <= _pass_ratio(bits) * (out.order + 1)


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

    b may carry a smaller order than a, as _mul_into allows.  When a is b,
    c_t = 2 sum_{s<t-s} a_s a_{t-s} + a_{t/2}^2 makes each cross product once.
    """
    if a.depth != b.depth:
        raise ValueError(f"mixed jet depths: {a.depth} vs {b.depth}")
    if a is not b:
        return Jet([_convolve(a.parts[: t + 1], b.parts[t::-1], order)
                    for t in range(a.depth + 1)])
    out = []
    for t in range(a.depth + 1):
        half = _convolve(a.parts[: (t + 1) // 2], a.parts[t : t // 2 : -1], order)
        mid = () if t & 1 else a.parts[t // 2 : t // 2 + 1]
        out.append(half + half + _convolve(mid, mid, order))
    return Jet(out)


# ---------------------------------------------------------------------------
# Markers: how the marking variable enters
# ---------------------------------------------------------------------------

Carrier = Union[TruncatedSeries, Jet]


class Marker(NamedTuple):
    """How the marking variable v enters a marked series.

    v_power(i) is the coefficient tuple that stands for v^i.  series(rows,
    order) builds a series of the marker's carrier from one such tuple per
    z-coefficient, and lift(f) embeds a univariate series in that carrier.
    value is c for an evaluation v = c, None for a jet.
    """

    v_power: Callable[[int], Poly]
    series: Callable[[Sequence[Poly], int], Carrier]
    lift: Callable[[TruncatedSeries], Carrier]
    value: Optional[Coeff] = None


def eval_marker(c: Coeff) -> Marker:
    """v = c: v^i is c^i, the carrier is TruncatedSeries and lifting is the
    identity.  With c = 2^K above every v-coefficient, the base-2^K digits of
    a z-coefficient are its v-polynomial."""
    return Marker(
        lambda i: (c**i,),
        lambda rows, order: TruncatedSeries([r[0] if r else 0 for r in rows], order),
        lambda f: f,
        c,
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

    Works for both carrier types.  The first factor is always requested, as
    factor(1, order), even when order is 0; its type (TruncatedSeries or Jet)
    and, for a jet, its depth set the carrier of the result.
    """
    first = factor(1, order)
    one = TruncatedSeries([1], order)  # no record: the running product keeps none
    if isinstance(first, Jet):
        one, mul = Jet.from_univariate(one, first.depth), _jet_mul_into
    else:
        mul = _mul_into
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
