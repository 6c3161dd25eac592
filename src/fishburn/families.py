"""Counting series for triangular-matrix families.

Every family here is a truncated sum of finite products built on the
``sum_product`` kernel: the univariate counting series (row-complete,
fully-complete, self-dual, plus the named OEIS variants), the bivariate
statistic-marking refinements (first row size, diagonal size, number of 1s,
number of 2s), and the two recursively defined fixed-point series.  All
arithmetic is exact; nothing in this module touches floating point.

The general sum.  A ``GeneralSum`` states one instance of the paper's sum
sum_k d^{k+w0} prod_{j<=k} (e^{j+w} - 1)^alpha by its arguments: it builds
prefactor * sum_k prod_{j<=k} d_j (x_j - y_j)^alpha, with d^k folded into the
factors (d^k * prod f_j == prod (d*f_j)), which keeps the kernel's adaptive
truncation effective.  A build expands d (x - y)^alpha once into running
powers first * step^{j-1} (``Power``), one per step, and each j advances
every power by its step: the Fishburn factor L (L^j - 1)^2 is
L^3 (L^2)^{j-1} - 2 L^2 L^{j-1} + L, two advances per j
(``GeneralSum.factors``).  The same statement gives the first-order
asymptotic form (``asymptotics.named_form`` and ``family_form`` read it
from ``parts`` at j = 1, 2), so each catalogued instance, family sum and
statistic sum is written once, in ``_CATALOG``, ``_family_sum`` or
``_stat_sum``; a marked atom B is the first of a running power,
B L^{j-1} = ``Power(B, L)``.  The A035378 pairing (``_paired_sum``)
and ``labeled_profile`` read each partial product of the kernel's one loop,
``series._partial_products``.  Every fixed rational factor (a weight series,
1 +- z, 1/(1 -+ z^j)) is one ``_rational_series(P, Q, order)``, which
records that it is (P/Q)^1; the running powers carry that record, so an
advance by a weight series or its power runs straight in passes (a factor
that records one monomial skips ``series._mul_into``'s estimate), and a
factor reaches the kernel as a combination of monomials in its weight
series, which it may multiply by in passes.

The statistic sums are the family sums with marked atoms in place of the
weight series L, in the factors or in the running powers (``_stat_sum``).
The marker passed to ``stat_gf`` sets v = c in the atoms, and their modulus:
``stat_profile`` reads full distributions from one build at v = 2^K, and
``stat_jet`` moment rows from one at v = 1 + 2^K modulo 2^{3K}.  Every
marked atom is itself a rational series (``lambda_atom``), such as B = L(cz),
so the statistic builds take passes as the family sums do; in a moment build
an atom marking one entry value t is L + w_t (c - 1) z^t over the pairs of L
and z^t, and its powers reduce in their records.

Budget.  Every public builder rejects an order above ``_SERIES_BUDGET``
before it builds anything, and checks the order it actually builds.

Caching.  A z^n coefficient does not depend on the truncation order, so each
builder cached by ``_largest_build`` keeps, per key (the arguments before the
order, a family alias made canonical), only its build at the largest order
asked for and cuts an equal or smaller order from it (a hit); a larger order
replaces it.  At most ``_CACHE_KEYS`` keys are held, least recently used out,
as ``labeled_profile`` holds at most that many rows, one per n.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce, wraps
from itertools import islice, product
from math import factorial
from operator import add, mul, sub
from typing import Callable, Optional

from .series import (
    Marker,
    TruncatedSeries,
    _as_int,
    _mul_into,
    _partial_products,
    _power,
    _rational_series,
    _stretch,
    eval_marker,
    exp_linear,
    moment_marker,
    sum_product,
)

FAMILIES = ("row-fishburn", "fishburn", "self-dual")
STATS = ("first_row", "diagonal", "ones", "twos")
# The statistics each family has a marking series for.
FAMILY_STATS = {
    "row-fishburn": STATS,
    "fishburn": STATS,
    "self-dual": ("first_row", "diagonal", "ones"),
}

# (P, Q) with Lambda(z) = P(z)/Q(z) for each named multiset, low degree first.
_NAMED_RATIONAL = {
    "all": ((1,), (1, -1)),                # 1/(1-z)
    "01": ((1, 1), (1,)),                  # 1+z
    "012": ((1, 1, 1), (1,)),              # 1+z+z^2
    "odd": ((1, 1, -1), (1, 0, -1)),       # 1 + z/(1-z^2)
    "even+": ((1,), (1, 0, -1)),           # 1/(1-z^2)
    "no1": ((1, -1, 1), (1, -1)),          # 1/(1-z) - z
}
_NAMED_TAGS = tuple(_NAMED_RATIONAL)

# The largest order of a cached family series, profile or moment build.
_SERIES_BUDGET = 500
# The largest order of a recursive_gf fixed point, which makes order + 1
# builds: about 0.15 s at order 50 and 1.5 s at 100, on one core of a 2-core
# x86-64 Xeon.
_FIXED_POINT_BUDGET = 100

_FAMILY_ALIASES = {"row": "row-fishburn", "selfdual": "self-dual", **{f: f for f in FAMILIES}}


def canonical_family(name: str) -> str:
    try:
        return _FAMILY_ALIASES[name.strip().lower().replace("_", "-")]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")


# ---------------------------------------------------------------------------
# The order-keyed cache
# ---------------------------------------------------------------------------

# The most keys one order-keyed cache holds.
_CACHE_KEYS = 128

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _largest_build(cut, family: bool = False):
    """Cache f(*key, order) by the module docstring's rule, for an order within
    the budget; cut(result, m) is the result at a lower order m, and with
    `family` key[0] is a family name.  Has cache_info(), cache_clear() and
    __wrapped__, as a functools cache."""

    def decorate(build):
        builds: OrderedDict = OrderedDict()  # key -> (order, result), LRU first
        counts = [0, 0]  # hits, misses

        @wraps(build)
        def cached(*args):
            key = (canonical_family(args[0]),) + args[1:-1] if family else args[:-1]
            order, held = args[-1], builds.get(key)
            _check_budget(order)
            hit = held is not None and 0 <= order <= held[0]
            counts[0 if hit else 1] += 1
            if not hit:
                held = (order, build(*key, order))
            builds[key] = held
            builds.move_to_end(key)
            if len(builds) > _CACHE_KEYS:
                builds.popitem(last=False)
            return held[1] if order == held[0] else cut(held[1], order)

        def cache_clear():
            builds.clear()
            counts[:] = [0, 0]

        cached.cache_info = lambda: _CacheInfo(*counts, _CACHE_KEYS, len(builds))
        cached.cache_clear = cache_clear
        return cached

    return decorate


def _prefix(built: tuple, order: int) -> tuple:
    return built[: order + 1]


# ---------------------------------------------------------------------------
# Entry multisets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaSpec:
    """A multiset of allowed positive entry values, with multiplicities.

    The multiset is stated by its weight series 1 + sum_i weight(i) z^i =
    P(z)/Q(z), the pair ``rational()`` returns: a named tag reads it from
    ``_NAMED_RATIONAL``, and ``custom`` carries an explicit tuple (weight of
    1, weight of 2, ...), zero beyond its length, as P = (1, w1, w2, ...) and
    Q = (1,).  ``weight(i)``, the multiplicity of the value i, is [z^i] P/Q;
    the zero entry is always available exactly once, so ``weight(0) == 1``.
    """

    tag: str
    weights: tuple = ()
    # The expansion of P/Q through z^m, m = max(deg P, deg Q - 1), which
    # weight() folds every i into.
    _prefix: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tag == "custom":
            ws = tuple(self.weights)
            if any(isinstance(w, bool) or not isinstance(w, int) for w in ws):
                raise ValueError(f"entry multiplicities must be ints, got {ws}")
            if any(w < 0 for w in ws):
                raise ValueError("entry multiplicities must be nonnegative")
            while ws and ws[-1] == 0:
                ws = ws[:-1]
            object.__setattr__(self, "weights", ws)
        elif self.tag in _NAMED_TAGS:
            if self.weights:
                raise ValueError("named multiset tags carry no explicit weights")
        else:
            raise ValueError(
                f"unknown multiset tag {self.tag!r}; expected one of "
                f"{_NAMED_TAGS} or 'custom'"
            )
        P, Q = self.rational()
        prefix = _rational_series(P, Q, max(len(P) - 1, len(Q) - 2)).coeffs
        object.__setattr__(self, "_prefix", prefix)

    @classmethod
    def parse(cls, text: str) -> "LambdaSpec":
        """CLI grammar: a named tag or a comma list of multiplicities."""
        t = text.strip().lower()
        if t in _NAMED_TAGS:
            return cls(t)
        parts = [p.strip() for p in t.split(",")]
        if parts and all(p.isdigit() for p in parts):
            return cls("custom", tuple(int(p) for p in parts))
        raise ValueError(
            f"cannot parse entry multiset {text!r}: expected one of "
            f"{_NAMED_TAGS} or a comma list like '1,0,2'"
        )

    def weight(self, i: int) -> int:
        if i < 0:
            raise ValueError("entry values are nonnegative")
        # Every Q is 1 - z^g (g = 0 for a finite multiset), so past the prefix
        # the weights are 0 for g = 0 and w(i) = w(i - g) otherwise.
        m = len(self._prefix) - 1
        if i > m:
            g = len(self.rational()[1]) - 1
            if not g:
                return 0
            i = m - (m - i) % g
        return self._prefix[i]

    def rational(self) -> tuple:
        """(P, Q) with the weight series 1 + sum_i weight(i) z^i = P(z)/Q(z),
        as coefficient tuples with Q[0] = 1; Q = (1,) for a finite multiset."""
        if self.tag == "custom":
            return (1,) + self.weights, (1,)
        return _NAMED_RATIONAL[self.tag]

    def smallest_entry(self) -> Optional[int]:
        """Smallest positive value with nonzero multiplicity (None if empty)."""
        return self._first_allowed(1)

    def smallest_odd_entry(self) -> Optional[int]:
        """Smallest odd value with nonzero multiplicity (None if all are even)."""
        return self._first_allowed(2)

    def _first_allowed(self, step: int) -> Optional[int]:
        # Past deg P the weights repeat with period g (see weight), and with
        # the parity of i within 2g.
        P, Q = self.rational()
        end = len(P) - 1 + 2 * (len(Q) - 1)
        return next((i for i in range(1, end + 1, step) if self.weight(i)), None)

    def describe(self) -> str:
        if self.tag == "custom":
            return ",".join(str(w) for w in self.weights) if self.weights else "empty"
        return self.tag


ALL = LambdaSpec("all")
PRIMITIVE = LambdaSpec("01")


@_largest_build(TruncatedSeries.truncate)
def lambda_series(spec: LambdaSpec, order: int) -> TruncatedSeries:
    """The weight series 1 + sum_i weight(i) z^i, truncated at `order`,
    expanded from ``spec.rational()``; products by it divide by Q."""
    return _rational_series(*spec.rational(), order)


# ---------------------------------------------------------------------------
# Running powers and the general sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Power:
    """first * step^(j-1) at j = 1, 2, ...: a running power, as a value."""

    first: TruncatedSeries
    step: TruncatedSeries


@dataclass(frozen=True)
class GeneralSum:
    """prefactor * sum_k prod_{1<=j<=k} d_j (x_j - y_j)^alpha: one instance of
    the paper's sum, stated by its arguments (see the module docstring).

    x, y and d are each 1 (None), a fixed series, a running power
    (``Power``), a tuple of these read as their sum, or a callable (j, room)
    -> series such as exp(jz) or 1/(1 - z^j); the prefactor is 1 (None) or a
    series, and alpha >= 1.  The instance holds no state: ``parts`` reads any
    j, and each ``factors`` call starts the running powers of one build.
    """

    x: object = None
    y: object = None
    d: object = None
    alpha: int = 1
    prefactor: object = None

    def parts(self, j: int, room: int) -> tuple:
        """(d_j or None, x_j, y_j), truncated at `room`; a missing x_j or y_j
        is 1."""
        def at(t):
            if isinstance(t, tuple):
                return reduce(add, map(at, t))
            if isinstance(t, Power):
                p = t.first.truncate(room)
                return p if j == 1 else p * t.step.truncate(room).pow(j - 1)
            return TruncatedSeries.one(room) if t is None else (
                t(j, room) if callable(t) else t.truncate(room))

        return (None if self.d is None else at(self.d)), at(self.x), at(self.y)

    def factors(self, order: int):
        """(j, room) -> d_j (x_j - y_j)^alpha at `room`, for j = 1, 2, ... in
        turn at a room that never grows: one build's running powers, one per
        step object of the expansion, whose first is the sum of the firsts of
        that step's terms, the sign of the first term met factored out (the
        Fishburn factor's -2 L^2 L^{j-1} is -(L^2 + L^2) L^{j-1}).  The firsts
        and steps are multiplied at `order` before the first factor, each pair
        of operands once.  Under a modulus a sum other than one term minus
        another is reduced, as a product leaves it, so the kernel reads the
        product form's widths."""
        if callable(self.x) or callable(self.y):
            def factor(j, room):
                d, x, y = self.parts(j, room)
                f = _power(x - y, self.alpha, None)  # alpha >= 1 never needs the unit
                return f if d is None else d * f
            return factor
        one, made = TruncatedSeries.one(order), {}  # made: the products, by their operands

        def terms_of(t, c):  # c t as terms (c, first, step), None for 1; a tuple is a sum
            return [(c, u.first, u.step) if isinstance(u, Power) else (c, u, None)
                    for u in (t if isinstance(t, tuple) else (t,))]

        def times(a, b):  # a * b at `order`, None for 1; the entry holds a and b, so ids stay
            if a is None or b is None:
                return b if a is None else a
            key = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
            if key not in made:
                made[key] = a, b, a.truncate(order) * b.truncate(order)
            return made[key][2]

        u = terms = terms_of(self.x, 1) + terms_of(self.y, -1)
        for v in [u] * (self.alpha - 1) + ([] if callable(self.d) else [terms_of(self.d, 1)]):
            terms = [(c * e, times(f, g), times(s, t))
                     for (c, f, s), (e, g, t) in product(terms, v)]
        groups = {}  # id(step) -> [sign, firsts' sum, step]
        for c, f, s in terms:
            if id(s) not in groups:
                groups[id(s)] = [c, f, s]
            else:
                sign, first, _ = group = groups[id(s)]
                group[1] = (add if c == sign else sub)(first or one, f or one)
        running = [None] * len(groups)

        def factor(j, room):
            f = None  # x's first term comes first, and is positive
            for i, (c, first, step) in enumerate(groups.values()):
                p = running[i] = (_mul_into(running[i], step, room) if j > 1 and step
                                  else (first or one).truncate(room))
                f = p if f is None else (f + p if c > 0 else f - p)
            if f.mod is not None and (len(groups) > 2 or self.d is not None or self.alpha > 1):
                out = TruncatedSeries([v & f.mod.mask for v in f.coeffs], room, f.mod)
                out._record, f = f._record, out
            return self.d(j, room) * f if callable(self.d) else f

        return factor

    def series(self, order: int):
        """The sum truncated at `order`."""
        s = sum_product(self.factors(order), order)
        return s if self.prefactor is None else self.prefactor * s


def _row_sum(L: TruncatedSeries) -> GeneralSum:
    """sum_k prod_{1<=j<=k} (L^j - 1)."""
    return GeneralSum(Power(L, L))


def _andrews_sum(L: TruncatedSeries) -> GeneralSum:
    """L * sum_k prod_{1<=j<=k} [L (L^j - 1)^2]."""
    return GeneralSum(Power(L, L), d=L, alpha=2, prefactor=L)


def _self_dual_sum(L: TruncatedSeries, L2: TruncatedSeries) -> GeneralSum:
    """L * sum_k prod_{1<=j<=k} [L (L2^j - 1)]."""
    return GeneralSum(Power(L2, L2), d=L, prefactor=L)


def _family_sum(family: str, L: TruncatedSeries) -> GeneralSum:
    """A family's counting series in the weight series L as a general sum (the
    Andrews form for Fishburn matrices); its alpha is the family exponent."""
    family = canonical_family(family)
    if family == "row-fishburn":
        return _row_sum(L)
    if family == "fishburn":
        return _andrews_sum(L)
    return _self_dual_sum(L, L.substitute_power(2))


# ---------------------------------------------------------------------------
# Univariate family series
# ---------------------------------------------------------------------------

def _require_entries(spec: LambdaSpec) -> None:
    """Reject the empty multiset, which the Fishburn family does not admit."""
    if spec.smallest_entry() is None:
        raise ValueError("empty entry multiset: the weight series is identically 1")


def _check_budget(order: int) -> None:
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f"order must be an int, got {order!r}")
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > _SERIES_BUDGET:
        raise ValueError(f"order {order} exceeds the series budget ({_SERIES_BUDGET})")


def family_gf(family: str, spec: LambdaSpec, order: int) -> TruncatedSeries:
    """A family's counting series in the weight series L of `spec`:

    row-fishburn  sum_k prod_{1<=j<=k} (L^j - 1)
    fishburn      L sum_k prod_j [L (L^j - 1)^2], by Andrews's transformation
                  of the direct form sum_k prod_j (1 - L^{-j}), which
                  ``identities.verify_andrews_jelinek`` compares with it
    self-dual     L sum_k prod_j [L (L(z^2)^j - 1)]
    """
    _check_budget(order)
    family = canonical_family(family)
    if family == "fishburn":
        _require_entries(spec)
    return _family_sum(family, lambda_series(spec, order)).series(order)


@_largest_build(TruncatedSeries.truncate, family=True)
def family_series(family: str, spec: LambdaSpec, order: int) -> TruncatedSeries:
    """Cached family series for LambdaSpec inputs."""
    return family_gf(family, spec, order)


@_largest_build(_prefix)
def fishburn_numbers(order: int) -> tuple:
    """Counting sequence for the complete family over all entry values."""
    return tuple(int(c) for c in family_series("fishburn", ALL, order).coeffs)


# ---------------------------------------------------------------------------
# Bivariate marking atoms
# ---------------------------------------------------------------------------

_ATOM_KINDS = {
    # kind: (z stretch s, marked value t, v exponent e): entry value i sits on
    # z^{s i} marked v^{e i} when t is None, and v^e when i == t
    "size": (1, None, 1),
    "size-sq": (2, None, 1),
    "size-double": (2, None, 2),
    "ones": (1, 1, 1),
    "twos": (1, 2, 1),
    "ones-sq": (2, 1, 2),
}


def lambda_atom(
    spec: LambdaSpec, order: int, marker: Marker, kind: str = "size"
) -> TruncatedSeries:
    """The weight series with entries marked in v according to `kind`, at
    the marker's v = c and under its modulus: a rational series, so it
    records its pairs and products by it may take passes."""
    _check_budget(order)
    try:
        s, t, e = _ATOM_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown atom kind {kind!r}")
    if marker.mod is None or t is None:
        return _rational_series(*_atom_rational(spec, s, t, e, marker.value), order, marker.mod)
    # Under a modulus the mark stays apart, L(z^s) + w_t (c^e - 1) z^{ts}: its powers
    # reduce in their records and take the passes of L; all atoms share the z pair.
    L = _rational_series(*_atom_rational(spec, s, t, 0, 1), order, marker.mod)
    z = _rational_series((0, 1), (1,), order, marker.mod).pow(t * s)
    return L + z * TruncatedSeries.constant(spec.weight(t) * (marker.value**e - 1), order)


def _atom_rational(spec: LambdaSpec, s: int, t: Optional[int], e: int, c) -> tuple:
    """(P, Q) of an atom at v = c, trailing zeros cut, from the weight series
    L = P/Q: L(c^e z^s) when every entry is marked (t None), and
    (P(z^s) + w_t (c^e - 1) z^{ts} Q(z^s)) / Q(z^s) when only the value t is."""
    P, Q = spec.rational()
    if t is None:
        P, Q = ([x * c ** (e * k) for k, x in enumerate(poly)] for poly in (P, Q))
    else:
        w = spec.weight(t) * (c**e - 1)
        P = list(P) + [0] * (t + len(Q) - len(P))
        for k, q in enumerate(Q):
            P[t + k] += w * q
    P, Q = (list(_stretch(poly, s)) for poly in (P, Q))
    for poly in (P, Q):
        while len(poly) > 1 and not poly[-1]:
            poly.pop()
    return P, Q


# ---------------------------------------------------------------------------
# Statistic-marking series
# ---------------------------------------------------------------------------

def _weight_series(spec: LambdaSpec, order: int, marker: Marker) -> TruncatedSeries:
    """The weight series L of a statistic build: ``lambda_series``, or L
    under the marker's modulus, whose running powers keep their records."""
    if marker.mod is None:
        return lambda_series(spec, order)
    return _rational_series(*spec.rational(), order, marker.mod)


def _stat_sum(family: str, stat: str, spec: LambdaSpec, order: int,
              marker: Marker) -> GeneralSum:
    """A statistic's marking series as a general sum at the marker's v = c,
    B marking the size of each entry and A that of each entry of L(z^2):

    row-fishburn  first_row  B sum_k prod_j [B (L^j - 1)] (``stat_gf`` adds 1
                             and takes off the family series)
                  diagonal   sum_k prod_j (B L^{j-1} - 1)
    fishburn      first_row  B sum_k prod_j [(B L^j - L) (L^j - 1)]
                  diagonal   B sum_k prod_j [L (B L^{j-1} - 1)^2]
    self-dual     first_row, diagonal  B sum_k prod_j [L (A L(z^2)^{j-1} - 1)]

    The 1s and 2s are the family sum with atoms marking them in place of L
    (and of L(z^2), whose 1s count twice).
    """
    def atom(kind="size"):
        return lambda_atom(spec, order, marker, kind)

    if stat in ("ones", "twos"):
        if family == "self-dual":
            return _self_dual_sum(atom("ones"), atom("ones-sq"))
        return _family_sum(family, atom(stat))
    B, L = atom(), _weight_series(spec, order, marker)
    if family == "self-dual":
        A = atom("size-sq" if stat == "first_row" else "size-double")
        return GeneralSum(Power(A, L.substitute_power(2)), d=L, prefactor=B)
    if family == "row-fishburn":
        if stat == "first_row":
            return GeneralSum(Power(L, L), d=B, prefactor=B)
        return GeneralSum(Power(B, L))
    if stat == "diagonal":
        return GeneralSum(Power(B, L), d=L, alpha=2, prefactor=B)
    L2 = L * L  # (B L^j - L)(L^j - 1) = (B L^{2j} + L) - (B L^j + L^{j+1})
    return GeneralSum((Power(B * L2, L2), L), (Power(B * L, L), Power(L2, L)), prefactor=B)


def stat_gf(family: str, stat: str, spec: LambdaSpec, order: int,
            marker: Marker) -> TruncatedSeries:
    """Series with z marking size and v marking the statistic, at the
    marker's v = c and under its modulus (``eval_marker``,
    ``moment_marker``).  Setting v = 1 recovers the family series.  The
    Fishburn statistics also have direct (inverse-power) forms, which
    ``identities.verify_andrews_jelinek`` compares with these.
    """
    _check_budget(order)
    family = canonical_family(family)
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {STATS}")
    if stat == "ones" and spec.weight(1) == 0:
        raise ValueError("marking 1s requires the value 1 in the multiset")
    if stat not in FAMILY_STATS[family]:
        raise ValueError(f"the {family} family has no 2s-marking series")
    s = _stat_sum(family, stat, spec, order, marker).series(order)
    if family == "row-fishburn" and stat == "first_row":
        return TruncatedSeries.one(order) + s - family_series(family, spec, order)
    return s


@_largest_build(_prefix, family=True)
def stat_profile(family: str, stat: str, spec: LambdaSpec, order: int) -> tuple:
    """Cached full distribution profile: row n holds [v^m z^n] for m = 0, 1, ...
    with trailing zeros trimmed, for n = 0..order.

    One univariate build at v = 2^K, K the bit length of the largest family
    count through `order`, holds every row as base-2^K digits.
    """
    counts = family_series(family, spec, order).coeffs
    bits = max(counts).bit_length()
    return _unpack_rows(stat_gf(family, stat, spec, order, eval_marker(1 << bits)),
                        counts, bits)


def _unpack_rows(packed: TruncatedSeries, counts, bits: int) -> tuple:
    """The base-2^bits digits of each coefficient of `packed`, low first.

    A row whose digits do not sum to its count raises ValueError: a carry or
    a borrow between digits always changes the digit sum, so this one check
    catches a base too small for the v-coefficients.
    """
    mask = (1 << bits) - 1
    rows = []
    for n, (c, total) in enumerate(zip(packed.coeffs, counts)):
        row = []
        while c > 0:
            row.append(c & mask)
            c >>= bits
        if c or sum(row) != total:
            raise ValueError(
                f"row {n} does not unpack in base 2^{bits}: its digits do not "
                f"sum to the count {total}"
            )
        rows.append(tuple(row))
    return tuple(rows)


@_largest_build(_prefix, family=True)
def stat_jet(family: str, stat: str, spec: LambdaSpec, order: int) -> tuple:
    """Cached moment rows: row n is (f0, f1, f2), f_t = sum_m C(m, t)
    [v^m z^n], for n = 0..order; f0 is the family count.

    One build at v = 1 + 2^K modulo 2^{3K} (``moment_marker``) holds every
    row as base-2^K digits.  K = bits(max count) + 2 bits(n) + 2 bounds each
    f_t below 2^K: the statistic is at most n, as every atom puts v^e on
    z^{>=e}.
    """
    counts = family_series(family, spec, order).coeffs
    marker = moment_marker(max(counts).bit_length() + 2 * order.bit_length() + 2)
    return _unpack_moments(stat_gf(family, stat, spec, order, marker), counts, marker.mod)


def _unpack_moments(packed: TruncatedSeries, counts, mod) -> tuple:
    """The mod.digits base-2^mod.bits digits of each coefficient of
    `packed` reduced by `mod`, low first.  A row whose digit 0 is not its
    count raises ValueError."""
    low, rows = (1 << mod.bits) - 1, []
    for n, (c, total) in enumerate(zip(packed.coeffs, counts)):
        c &= mod.mask
        row = tuple(c >> t * mod.bits & low for t in range(mod.digits))
        if row[0] != total:
            raise ValueError(f"row {n} does not unpack in base 2^{mod.bits}: "
                             f"its digit 0 is {row[0]}, not the count {total}")
        rows.append(row)
    return tuple(rows)


# ---------------------------------------------------------------------------
# Recursive fixed-point series
# ---------------------------------------------------------------------------

def recursive_gf(kind: str, order: int) -> TruncatedSeries:
    """Fixed points f = Phi(f), one coefficient per round from f = 1.

    The z^m coefficient of Phi(g) reads only g's coefficients below z^m, so
    round m builds Phi at order m from the rounds before; a last build at
    the full order checks that Phi(f) = f, which is not assumed.
    """
    _check_budget(order)
    if order > _FIXED_POINT_BUDGET:
        raise ValueError(
            f"order {order} exceeds the fixed-point budget ({_FIXED_POINT_BUDGET})")
    if kind == "A186737":
        def phi(g):
            m = g.order
            return _row_sum(TruncatedSeries.one(m) + TruncatedSeries.x(m) * g).series(m)
    elif kind == "A224885":
        def phi(g):
            m = g.order
            return TruncatedSeries.one(m) + TruncatedSeries.x(m) + _row_sum(g).series(m) - g
    else:
        raise ValueError(f"unknown recursive kind {kind!r}")

    g = TruncatedSeries.one(0)
    for m in range(1, order + 1):
        g = phi(TruncatedSeries(g.coeffs, m))
    if phi(g) != g:
        raise RuntimeError(f"fixed-point iteration for {kind} failed to stabilise")
    return g


# ---------------------------------------------------------------------------
# Named variant series
# ---------------------------------------------------------------------------

# Fixed rational factors (P, Q), low degree first, as _rational_series takes them.
_ONE_PLUS_Z = ((1, 1), (1,))
_ONE_MINUS_Z = ((1, -1), (1,))
_TWO_EACH = ((1, 1), (1, -1))  # (1+z)/(1-z): every positive value twice


def _inverse_binomials(c: int, first: int = 1, step: int = 1):
    """(j, room) -> 1/(1 + c z^g) at order `room`, g = step (j-1) + first."""
    return lambda j, room: _rational_series(
        (1,), (1,) + (0,) * (step * (j - 1) + first - 1) + (c,), room)


def _paired_sum(w: TruncatedSeries, pair, prefactor, order: int) -> TruncatedSeries:
    """sum_K prefactor(w^{2K+1}) prod_{1<=i<=K} pair(w^{2i-1}, w^{2i}),
    truncated at `order`: a sum over k with its terms k = 2K, 2K+1 paired,
    for a weight w whose odd-index factors have a nonzero constant term.
    pair(a, b) takes the powers at the running product's room and must have
    valuation >= 1; prefactor(p) takes p = w^{2K+1} at `order`.  Each power
    of w is made once, at `order`, and the K = 0 term is the bare prefactor."""
    @lru_cache(maxsize=None)
    def power(m):  # asked for in increasing m, so each step recurses once
        return w if m == 1 else power(m - 1) * w

    def factor(i, room):
        return pair(power(2 * i - 1).truncate(room), power(2 * i).truncate(room))

    terms = (prefactor(power(2 * K + 1)) * p if K else prefactor(w)
             for K, p in enumerate(_partial_products(factor, order)))
    return sum(terms, next(terms))


def _variant_A035378(order: int) -> TruncatedSeries:
    """sum_k prod_{1<=j<=k} (1 - (z-1)^j), consecutive terms paired.

    Odd-index factors have constant term 2, so the raw sum does not settle
    coefficientwise; pairing k = 2K, 2K+1 gives valuation-positive factors
    (1-(z-1)^{2i-1})(1-(z-1)^{2i}) with the k-dependent prefactor
    2 - (z-1)^{2K+1}.
    """
    def pair(a, b):
        one = TruncatedSeries.one(a.order)
        return (one - a) * (one - b)

    two = TruncatedSeries.constant(2, order)
    return _paired_sum(_rational_series((-1, 1), (1,), order), pair, lambda p: two - p,
                       order)


def _exps(a: int, b: int = 0) -> Callable[[int, int], TruncatedSeries]:
    """(j, room) -> exp((a j + b) z) at order `room`."""
    return lambda j, room: exp_linear(a * j + b, room)


def _bernoulli_egf(order: int) -> TruncatedSeries:
    """z/(e^z - 1)."""
    e = exp_linear(1, order + 1)
    num = (e - TruncatedSeries.one(order + 1)).shift_down(1)
    return num.inv()


def ramanujan_r(order: int) -> TruncatedSeries:
    """The lost-notebook series R(q) = 1 + sum_k (-1)^k q^{k+1} prod_{1<=j<=k}
    (1 - q^j), expanded in q, as the general sum with -q (1 - q^j) =
    q^{j+1} - q.  ``identities.verify_r_series`` compares it with the
    quotient form sum_k q^{k(k+1)/2} / prod_{1<=j<=k} (1 + q^j).
    """
    _check_budget(order)
    q = TruncatedSeries.x(order)
    s = GeneralSum(lambda j, room: _rational_series((0,) * (j + 1) + (1,), (1,), room),
                   y=q, prefactor=q)
    return TruncatedSeries.one(order) + s.series(order)


# ---------------------------------------------------------------------------
# The prototype family's exact numbers, by the Stirling transform
# ---------------------------------------------------------------------------

def _stirling_rows():
    """Signed Stirling rows t(n, m) = n![z^n] (1 - e^{-z})^m, m = 0..n, for
    n = 0, 1, ...; t(n, m) = (-1)^{n-m} m! S(n, m) = m (t(n-1, m-1) - t(n-1, m))."""
    t = [1]
    while True:
        yield t
        t = [0, *map(mul, range(1, len(t) + 1), map(sub, t, t[1:] + [0]))]


@lru_cache(maxsize=_CACHE_KEYS, typed=True)
def labeled_profile(n: int) -> tuple:
    """Row n of the prototype's profile: n![z^n] prod_{1<=j<=k}(e^{jz}-1) for
    k = 0..n, integers that sum to ``labeled_numbers(n)[n]``.

    At x = 1 - e^{-z} the k-th partial product is the row-Fishburn sum's
    prod_{j<=k} (L^j - 1) over all entry values (``_partial_products``), so
    entry k is the dot product of its x-coefficients with the Stirling row
    t(n, .), as in ``labeled_numbers``.
    """
    _check_budget(n)
    t = next(islice(_stirling_rows(), n, None))
    products = _partial_products(_row_sum(lambda_series(ALL, n)).factors(n), n)
    return tuple(sum(map(mul, p.coeffs, t)) for p in products)


@_largest_build(_prefix)
def labeled_numbers(n_max: int) -> tuple:
    """n![z^n] sum_k prod_{1<=j<=k}(e^{jz}-1) for n = 0..n_max, exactly.

    With L = e^z = 1/(1 - x) at x = 1 - e^{-z}, the sum is the row-Fishburn
    series R(x) = sum_k prod_{j<=k} (L^j - 1) over all entry values, so
    n![z^n] of the sum is sum_m [x^m]R * t(n, m), a dot product with the
    signed Stirling row t(n, .) of ``_stirling_rows``.
    """
    r = family_series("row-fishburn", ALL, n_max).coeffs
    return tuple(sum(map(mul, r, t)) for t in islice(_stirling_rows(), n_max + 1))


# ---------------------------------------------------------------------------
# Named sequence catalog (integer terms, fixture-ready)
# ---------------------------------------------------------------------------

def _require_count(count: int) -> None:
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")


def _series_terms(f: TruncatedSeries, count: int, egf: bool) -> list:
    out = []
    for n in range(count):
        c = f.coeff(n)
        out.append(_as_int(factorial(n) * c if egf else c, f"term {n}"))
    return out


def _glaisher_terms(count: int) -> list:
    """T_n = (2n+1)! [z^{2n+1}] sin(2z) / (2 cos(3z))."""
    _require_count(count)
    order = 2 * count
    _check_budget(order)
    sin2 = [Fraction(0)] * (order + 1)
    cos3 = [Fraction(0)] * (order + 1)
    for m in range(0, order + 1):
        if m % 2 == 1:
            sin2[m] = Fraction((-1) ** ((m - 1) // 2) * 2 ** m, factorial(m))
        else:
            cos3[m] = Fraction((-1) ** (m // 2) * 3 ** m, factorial(m))
    h = (
        TruncatedSeries(sin2, order)
        * TruncatedSeries(cos3, order).inv().scalar_mul(Fraction(1, 2))
    )
    return [_as_int(factorial(2 * n + 1) * h.coeff(2 * n + 1), f"T_{n}")
            for n in range(count)]


def _log_weighted_terms(count: int) -> list:
    """b_n = n [z^n] log(row series over {0,1}), n >= 1."""
    f = family_gf("row-fishburn", PRIMITIVE, count)
    g = f.derivative() * f.inv().truncate(count - 1)
    return [_as_int(g.coeff(n - 1), f"b_{n}") for n in range(1, count + 1)]


def _triangle_terms(family: str, stat: str, spec: LambdaSpec, count: int) -> list:
    rows = 1
    while rows * (rows + 1) // 2 < count:
        rows += 1
    prof = stat_profile(family, stat, spec, rows)
    out = []
    for n in range(1, rows + 1):
        row = prof[n] + (0,) * n
        out.extend(row[1 : n + 1])
    return out[:count]


@dataclass(frozen=True)
class NamedEntry:
    build: Optional[Callable[[int], TruncatedSeries]] = None
    egf: bool = False
    offset: int = 0
    terms: Optional[Callable[[int], list]] = None
    note: str = ""
    # order -> the GeneralSum whose series `build` returns, when there is one
    instance: Optional[Callable[[int], GeneralSum]] = None


def _instance(instance: Callable[[int], GeneralSum], **kw) -> NamedEntry:
    """A catalog entry whose series is the general-sum instance(order)."""
    return NamedEntry(lambda N: instance(N).series(N), instance=instance, **kw)


def _base_powers(pq: tuple, order: int, first: int, step: int):
    """(P/Q)^(step (j-1) + first) for pq = (P, Q), as a ``Power``."""
    base = _rational_series(*pq, order)
    return Power(base.pow(first), base.pow(step))


_CATALOG: dict = {
    # complete family
    "A022493": _instance(lambda N: _andrews_sum(lambda_series(ALL, N)),
                         note="fishburn / all"),
    "A138265": _instance(lambda N: _andrews_sum(lambda_series(PRIMITIVE, N)),
                         note="fishburn / 01"),
    "A289317": _instance(lambda N: _andrews_sum(lambda_series(LambdaSpec("odd"), N)),
                         note="fishburn / odd"),
    "A289312": _instance(lambda N: _andrews_sum(_rational_series(*_TWO_EACH, N)),
                         note="fishburn / doubled"),
    # row family
    "A158691": _instance(lambda N: _row_sum(lambda_series(ALL, N)), note="row / all"),
    "A179525": _instance(lambda N: _row_sum(lambda_series(PRIMITIVE, N)), note="row / 01"),
    "A207433": _instance(lambda N: _row_sum(lambda_series(LambdaSpec("012"), N)),
                         note="row / 012"),
    "A289316": _instance(lambda N: _row_sum(lambda_series(LambdaSpec("odd"), N)),
                         note="row / odd"),
    "A289313": _instance(lambda N: _row_sum(_rational_series(*_TWO_EACH, N)),
                         note="row / doubled"),
    # exponential-weight variants (integer after multiplying by n!)
    "A158690": _instance(lambda N: GeneralSum(_exps(1)), egf=True),
    "A079144": _instance(lambda N: GeneralSum(y=_exps(-1)), egf=True),
    "A196194": _instance(lambda N: GeneralSum(_exps(1), d=_bernoulli_egf(N)), egf=True),
    "A207214": _instance(lambda N: GeneralSum(_exps(1, 1), y=exp_linear(1, N)), egf=True),
    "A215066": _instance(lambda N: GeneralSum(_exps(2, -1)), egf=True),
    "A209832": _instance(lambda N: GeneralSum(_exps(2), y=exp_linear(1, N),
                                              prefactor=exp_linear(1, N)), egf=True),
    "A214687": _instance(lambda N: GeneralSum(_exps(2, 1), y=exp_linear(2, N)), egf=True),
    # ordinary power schedules
    "A207386": _instance(lambda N: GeneralSum(  # (1+z)/(1+z^3)
        _base_powers(((1, 1), (1, 0, 0, 1)), N, 1, 1))),
    "A207397": _instance(lambda N: GeneralSum(  # (1+z)/(1+z^2)
        _base_powers(((1, 1), (1, 0, 1)), N, 1, 1))),
    "A207556": _instance(lambda N: GeneralSum(_base_powers(_ONE_PLUS_Z, N, 2, 1),
                                              y=_rational_series(*_ONE_PLUS_Z, N))),
    "A207569": _instance(lambda N: GeneralSum(_base_powers(_ONE_PLUS_Z, N, 1, 2))),
    "A207570": _instance(lambda N: GeneralSum(_base_powers(_ONE_PLUS_Z, N, 1, 3))),
    "A207571": _instance(lambda N: GeneralSum(_base_powers(_ONE_PLUS_Z, N, 2, 3))),
    # quotient variants, whose d_j or y_j depends on j
    "A207652": _instance(lambda N: GeneralSum(_base_powers(_ONE_PLUS_Z, N, 1, 1),
                                              d=_inverse_binomials(-1))),
    "A207653": _instance(lambda N: GeneralSum(y=_base_powers(_ONE_MINUS_Z, N, 1, 2),
                                              d=_inverse_binomials(-1, 1, 2))),
    "A207651": _instance(lambda N: GeneralSum(y=_base_powers(_ONE_MINUS_Z, N, 1, 1),
                                              d=_inverse_binomials(-1))),
    # sum_k (1+z)^{-k(k-1)} prod_j ((1+z)^{2j-1} - 1): the quadratic prefactor
    # folded into the factors leaves (1+z) - (1+z)^{2-2j}
    "A207557": _instance(lambda N: GeneralSum(
        _rational_series(*_ONE_PLUS_Z, N), y=_base_powers(((1,), (1, 1)), N, 0, 2))),
    "A035378": NamedEntry(_variant_A035378),
    # recursive
    "A186737": NamedEntry(lambda N: recursive_gf("A186737", N)),
    "A224885": NamedEntry(lambda N: recursive_gf("A224885", N)),
    # special normalizations
    "A003406": NamedEntry(ramanujan_r),
    "A002439": NamedEntry(terms=_glaisher_terms, note="odd-order tangent-like values"),
    "A207434": NamedEntry(terms=_log_weighted_terms, offset=1),
    "A175579": NamedEntry(
        terms=lambda c: _triangle_terms("fishburn", "first_row", ALL, c),
        offset=1,
        note="triangle by rows",
    ),
    "A182319": NamedEntry(
        terms=lambda c: _triangle_terms("row-fishburn", "diagonal", PRIMITIVE, c),
        offset=1,
        note="triangle by rows",
    ),
}

NAMED_IDS = tuple(sorted(_CATALOG))


def named_entry(name: str) -> NamedEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown sequence id {name!r}")


def named_gf(name: str, order: int) -> TruncatedSeries:
    entry = named_entry(name)
    if entry.build is None:
        raise ValueError(f"{name} has no single defining series; use named_sequence")
    _check_budget(order)
    return entry.build(order)


def named_sequence(name: str, count: int) -> list:
    """The first `count` integer terms of a cataloged sequence.

    The terms are those of a series of order count - 1, so count may
    exceed the series budget by one.
    """
    entry = named_entry(name)
    _require_count(count)
    if count == 0:
        return []
    _check_budget(count - 1)
    if entry.terms is not None:
        return entry.terms(count)
    f = entry.build(count - 1)
    return _series_terms(f, count, entry.egf)
