"""Counting series for triangular-matrix families.

Every family here is a truncated sum of finite products built on the
``sum_product`` kernel: the univariate counting series (row-complete,
fully-complete, self-dual, plus the named OEIS variants), the bivariate
statistic-marking refinements (first row size, diagonal size, number of 1s,
number of 2s), and the two recursively defined fixed-point series.  All
arithmetic is exact; nothing in this module touches floating point.

The general sum.  ``_general_sum`` builds sum_k prod_{j<=k} d_j (x_j - y_j)^alpha,
the paper's sum_k d^{k+w0} prod_{j<=k} (e^{j+w} - 1)^alpha with d^k folded
into the factors (d^k * prod f_j == prod (d*f_j)), which keeps the kernel's
adaptive truncation effective.  x_j, y_j and d_j are 1, a fixed series, or a
callable (j, room) such as exp(jz), 1/(1 - z^j) or a running power from
``_powers`` (one truncated product per step).  A marked atom (B, A, Bi) is
never folded into a power: it multiplies the unmarked power afresh at each
step, because a monomial-marked power fills every v-degree of every
z-coefficient, and products on those dense polynomials cost more than the
ones saved.  Builders whose factor is no such difference call
``sum_product`` directly: the A035378 forms pair consecutive factors;
A158690 form 4 and fishburn/first_row's product form multiply two
differences, the latter needing L^{j-1} and L^j together; and
``ramanujan_r`` builds its factors coefficientwise.

The row, Andrews, direct and self-dual sums serve every carrier: a weight
series gives the counting series, a marked atom its statistic refinement.
The marker passed to ``stat_gf`` picks the carrier -- BivariateSeries for full
distributions, Jet for moment jets -- and builds the atoms and lifted weight
series; ``sum_product`` and ``_one`` take the carrier from their input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Optional, Union

from .series import (
    BivariateSeries,
    Jet,
    Marker,
    TruncatedSeries,
    _power,
    exp_linear,
    jet_marker,
    monomial_marker,
    sum_product,
)

FAMILIES = ("row-fishburn", "fishburn", "self-dual")
STATS = ("first_row", "diagonal", "ones", "twos")

_NAMED_TAGS = ("all", "01", "012", "odd", "even+", "no1")

_FAMILY_ALIASES = {
    "row": "row-fishburn",
    "row-fishburn": "row-fishburn",
    "row_fishburn": "row-fishburn",
    "fishburn": "fishburn",
    "self-dual": "self-dual",
    "self_dual": "self-dual",
    "selfdual": "self-dual",
}


def canonical_family(name: str) -> str:
    try:
        return _FAMILY_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")


# ---------------------------------------------------------------------------
# Entry multisets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaSpec:
    """A multiset of allowed positive entry values, with multiplicities.

    ``weight(i)`` is the multiplicity of the value i; the zero entry is
    always available exactly once, so ``weight(0) == 1``.  Named tags cover
    the closed-form multisets used throughout; ``custom`` carries an explicit
    tuple (weight of 1, weight of 2, ...), zero beyond its length.
    """

    tag: str
    weights: tuple = ()

    def __post_init__(self):
        if self.tag == "custom":
            ws = tuple(int(w) for w in self.weights)
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
        if i == 0:
            return 1
        tag = self.tag
        if tag == "all":
            return 1
        if tag == "01":
            return 1 if i == 1 else 0
        if tag == "012":
            return 1 if i in (1, 2) else 0
        if tag == "odd":
            return i & 1
        if tag == "even+":
            return 0 if (i & 1) else 1
        if tag == "no1":
            return 0 if i == 1 else 1
        return self.weights[i - 1] if i <= len(self.weights) else 0

    def smallest_entry(self) -> Optional[int]:
        """Smallest positive value with nonzero multiplicity (None if empty)."""
        if self.tag == "custom":
            for i, w in enumerate(self.weights, start=1):
                if w:
                    return i
            return None
        return {"all": 1, "01": 1, "012": 1, "odd": 1, "even+": 2, "no1": 2}[self.tag]

    def smallest_odd_entry(self) -> Optional[int]:
        """Smallest odd value with nonzero multiplicity (None if all are even)."""
        if self.tag == "custom":
            for i in range(1, len(self.weights) + 1, 2):
                if self.weights[i - 1]:
                    return i
            return None
        return {"all": 1, "01": 1, "012": 1, "odd": 1, "even+": None, "no1": 3}[self.tag]

    def describe(self) -> str:
        if self.tag == "custom":
            return ",".join(str(w) for w in self.weights) if self.weights else "empty"
        return self.tag


ALL = LambdaSpec("all")
PRIMITIVE = LambdaSpec("01")

LambdaLike = Union[LambdaSpec, TruncatedSeries]


@lru_cache(maxsize=None)
def lambda_series(spec: LambdaSpec, order: int) -> TruncatedSeries:
    """The weight series 1 + sum_i weight(i) z^i, truncated at `order`."""
    return TruncatedSeries([spec.weight(i) for i in range(order + 1)], order)


def _as_series(lam: LambdaLike, order: int) -> TruncatedSeries:
    if isinstance(lam, LambdaSpec):
        return lambda_series(lam, order)
    if lam.order < order:
        raise ValueError("weight series truncated below the requested order")
    return lam.truncate(order) if lam.order > order else lam


# ---------------------------------------------------------------------------
# Running powers and the carrier-generic sums
# ---------------------------------------------------------------------------

Marked = Union[BivariateSeries, Jet]
Series = Union[TruncatedSeries, Marked]


def _one(like: Series, room: int) -> Series:
    """The series 1 at order `room`, in the carrier (and jet depth) of `like`."""
    if isinstance(like, Jet):
        return Jet.one(room, like.depth)
    if isinstance(like, BivariateSeries):
        return BivariateSeries.one(room)
    return TruncatedSeries.one(room)


def _powers(first: Series, step: Series, atom: Optional[Series] = None):
    """(j, room) -> [atom *] first * step^(j-1) on the j-th call, truncated at
    `room`, which must not grow from call to call (sum_product guarantees it).
    """
    p = None

    def power(j, room):
        nonlocal p
        p = first.truncate(room) if p is None else p.truncate(room) * step.truncate(room)
        return p if atom is None else atom.truncate(room) * p

    return power


def _general_sum(x, order: int, y=None, d=None, alpha: int = 1):
    """sum_k prod_{1<=j<=k} d_j (x_j - y_j)^alpha, truncated at `order`.

    x, y and d are each 1 (None), a fixed series, or a callable (j, room) ->
    series, and alpha >= 1.  Every part of a factor is truncated to the
    kernel's room; the carrier is that of x_j or y_j.
    """
    def at(t, j, room):
        return t(j, room) if callable(t) else t.truncate(room)

    def factor(j, room):
        a = None if x is None else at(x, j, room)
        b = _one(a, room) if y is None else at(y, j, room)
        a = _one(b, room) if a is None else a
        f = _power(a - b, alpha, None)  # alpha >= 1 never needs the unit
        return f if d is None else at(d, j, room) * f

    return sum_product(factor, order)


def _row_sum(L: Series, order: int) -> Series:
    """sum_k prod_{1<=j<=k} (L^j - 1)."""
    return _general_sum(_powers(L, L), order)


def _andrews_sum(L: Series, order: int) -> Series:
    """L * sum_k prod_{1<=j<=k} [L (L^j - 1)^2]."""
    return L * _general_sum(_powers(L, L), order, d=L, alpha=2)


def _direct_sum(L: Series, order: int) -> Series:
    """sum_k prod_{1<=j<=k} (1 - L^{-j})."""
    Li = L.inv()
    return _general_sum(None, order, y=_powers(Li, Li))


def _self_dual_sum(L: Series, L2: Series, order: int) -> Series:
    """L * sum_k prod_{1<=j<=k} [L (L2^j - 1)]."""
    return L * _general_sum(_powers(L2, L2), order, d=L)


# ---------------------------------------------------------------------------
# Univariate family series
# ---------------------------------------------------------------------------

def row_fishburn_gf(lam: LambdaLike, order: int) -> TruncatedSeries:
    """sum_k prod_{1<=j<=k} (L(z)^j - 1)."""
    return _row_sum(_as_series(lam, order), order)


def fishburn_gf(lam: LambdaLike, order: int, form: str = "andrews") -> TruncatedSeries:
    """sum_k prod_{1<=j<=k} (1 - L(z)^{-j}), or the equivalent
    L * sum_k prod_j [L * (L^j - 1)^2] obtained by Andrews's transformation.
    """
    if isinstance(lam, LambdaSpec):
        if lam.smallest_entry() is None:
            raise ValueError("empty entry multiset: the weight series is identically 1")
    elif (lam - TruncatedSeries.one(lam.order)).is_zero():
        raise ValueError("empty entry multiset: the weight series is identically 1")
    L = _as_series(lam, order)
    if form == "direct":
        return _direct_sum(L, order)
    if form == "andrews":
        return _andrews_sum(L, order)
    raise ValueError(f"unknown form {form!r}; expected 'direct' or 'andrews'")


def self_dual_gf(lam: LambdaLike, order: int) -> TruncatedSeries:
    """L(z) * sum_k prod_{1<=j<=k} [L(z) * (L(z^2)^j - 1)]."""
    L = _as_series(lam, order)
    return _self_dual_sum(L, L.substitute_power(2), order)


def family_gf(family: str, lam: LambdaLike, order: int) -> TruncatedSeries:
    family = canonical_family(family)
    if family == "row-fishburn":
        return row_fishburn_gf(lam, order)
    if family == "fishburn":
        return fishburn_gf(lam, order)
    return self_dual_gf(lam, order)


@lru_cache(maxsize=None)
def family_series(family: str, spec: LambdaSpec, order: int) -> TruncatedSeries:
    """Cached family series for LambdaSpec inputs, one entry per family."""
    if family != canonical_family(family):
        return family_series(canonical_family(family), spec, order)
    return family_gf(family, spec, order)


@lru_cache(maxsize=8)
def fishburn_numbers(order: int) -> tuple:
    """Counting sequence for the complete family over all entry values."""
    f = family_series("fishburn", ALL, order)
    return tuple(int(c) for c in f.coeffs)


# ---------------------------------------------------------------------------
# Bivariate marking atoms
# ---------------------------------------------------------------------------

_ATOM_KINDS = {
    # kind: (z stretch, v exponent as a function of the entry value i)
    "size": (1, lambda i: i),          # weight i marked v^i on z^i
    "size-sq": (2, lambda i: i),       # on z^{2i}
    "size-double": (2, lambda i: 2 * i),
    "ones": (1, lambda i: 1 if i == 1 else 0),
    "twos": (1, lambda i: 1 if i == 2 else 0),
    "ones-sq": (2, lambda i: 2 if i == 1 else 0),
}


def lambda_atom(
    spec: LambdaSpec, order: int, marker: Marker, kind: str = "size"
) -> Marked:
    """The weight series with entries marked in v according to `kind`."""
    try:
        z_stretch, v_exp = _ATOM_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown atom kind {kind!r}")
    rows: list = [() for _ in range(order + 1)]
    rows[0] = (1,)
    i = 1
    while i * z_stretch <= order:
        w = spec.weight(i)
        if w:
            rows[i * z_stretch] = tuple(w * c for c in marker.v_power(v_exp(i)))
        i += 1
    return marker.series(rows, order)


# ---------------------------------------------------------------------------
# Statistic-marking series
# ---------------------------------------------------------------------------

def _row_first_row(spec, order, marker):
    # 1 + sum_k (B^{k+1} - 1) prod_j (L^j - 1)  with B = L(vz); the B^{k+1}
    # part is folded as B * sum_k prod_j [B (L^j - 1)] minus the plain series.
    B = lambda_atom(spec, order, marker, "size")
    marked = _self_dual_sum(B, marker.lift(lambda_series(spec, order)), order)
    plain = marker.lift(row_fishburn_gf(spec, order))
    return _one(B, order) + marked - plain


def _row_diagonal(spec, order, marker):
    # sum_k prod_{1<=j<=k} (B L^{j-1} - 1)
    B = lambda_atom(spec, order, marker, "size")
    Lb = marker.lift(lambda_series(spec, order))
    return _general_sum(_powers(_one(B, order), Lb, B), order)


def _fishburn_first_row(spec, order, marker, form):
    B = lambda_atom(spec, order, marker, "size")
    L = lambda_series(spec, order)
    if form == "direct":
        # sum_k prod_j (1 - B^{-1} L^{1-j})
        y = _powers(_one(B, order), marker.lift(L.inv()), B.inv())
        return _general_sum(None, order, y=y)
    # product form: B * sum_k prod_j [L (B L^{j-1} - 1)(L^j - 1)]; the factor
    # needs L^{j-1} and L^j together, so it keeps its own running power.
    Lb = marker.lift(L)
    st = [_one(B, order)]

    def factor(j, room):
        pjm1 = st[0].truncate(room)
        pj = pjm1 * Lb.truncate(room)
        st[0] = pj
        f1 = B.truncate(room) * pjm1 - _one(B, room)
        f2 = pj - _one(B, room)
        return Lb.truncate(room) * (f1 * f2)

    return B * sum_product(factor, order)


def _fishburn_diagonal(spec, order, marker, form):
    B = lambda_atom(spec, order, marker, "size")
    L = lambda_series(spec, order)
    if form == "direct":
        # B + (B - 1)^2 sum_k prod_j (B - L^{-j})
        Li = marker.lift(L.inv())
        bm1 = B - _one(B, order)
        return B + (bm1 * bm1) * _general_sum(B, order, y=_powers(Li, Li))
    # product form: B * sum_k prod_j [L (B L^{j-1} - 1)^2]
    Lb = marker.lift(L)
    return B * _general_sum(_powers(_one(B, order), Lb, B), order, d=Lb, alpha=2)


def _self_dual_stat(spec, order, marker, stat):
    if stat == "ones":
        B1 = lambda_atom(spec, order, marker, "ones")
        return _self_dual_sum(B1, lambda_atom(spec, order, marker, "ones-sq"), order)
    # first_row / diagonal: B(vz) * sum_k prod_j [L (A L2^{j-1} - 1)]
    inner = "size-sq" if stat == "first_row" else "size-double"
    B = lambda_atom(spec, order, marker, "size")
    A = lambda_atom(spec, order, marker, inner)
    L = lambda_series(spec, order)
    x = _powers(_one(B, order), marker.lift(L.substitute_power(2)), A)
    return B * _general_sum(x, order, d=marker.lift(L))


def stat_gf(
    family: str,
    stat: str,
    spec: LambdaSpec,
    order: int,
    marker: Optional[Marker] = None,
    form: str = "product",
) -> Marked:
    """Series with z marking size and v marking the statistic.

    The marker picks the carrier: BivariateSeries for the monomial marker
    (the default), Jet for a jet marker.  Setting v = 1 recovers the family
    series.  `form='direct'` selects the
    alternative (inverse-power) representation where one exists; it is only
    available for the complete family and is used to cross-check the default
    product representation.
    """
    family = canonical_family(family)
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {STATS}")
    if form not in ("product", "direct"):
        raise ValueError(f"unknown form {form!r}")
    if form == "direct" and family != "fishburn":
        raise ValueError("the direct representation exists only for family 'fishburn'")
    if stat == "ones" and spec.weight(1) == 0:
        raise ValueError("marking 1s requires the value 1 in the multiset")
    marker = marker if marker is not None else monomial_marker()

    if family == "row-fishburn":
        if stat == "first_row":
            return _row_first_row(spec, order, marker)
        if stat == "diagonal":
            return _row_diagonal(spec, order, marker)
        return _row_sum(lambda_atom(spec, order, marker, stat), order)

    if family == "fishburn":
        if stat == "first_row":
            return _fishburn_first_row(spec, order, marker, form)
        if stat == "diagonal":
            return _fishburn_diagonal(spec, order, marker, form)
        B = lambda_atom(spec, order, marker, stat)
        return _direct_sum(B, order) if form == "direct" else _andrews_sum(B, order)

    # self-dual
    if stat == "twos":
        raise ValueError("the self-dual family has no 2s-marking series")
    return _self_dual_stat(spec, order, marker, stat)


@lru_cache(maxsize=None)
def stat_profile(family: str, stat: str, spec: LambdaSpec, order: int) -> BivariateSeries:
    """Cached full distribution profile (honest monomial marking)."""
    if family != canonical_family(family):
        return stat_profile(canonical_family(family), stat, spec, order)
    return stat_gf(family, stat, spec, order, monomial_marker())


@lru_cache(maxsize=None)
def stat_jet(family: str, stat: str, spec: LambdaSpec, order: int) -> Jet:
    """Cached moment jet: v = 1 + eps truncated past eps^2, which is as deep
    as the mean and variance need."""
    if family != canonical_family(family):
        return stat_jet(canonical_family(family), stat, spec, order)
    return stat_gf(family, stat, spec, order, jet_marker(2))


# ---------------------------------------------------------------------------
# Recursive fixed-point series
# ---------------------------------------------------------------------------

def recursive_gf(kind: str, order: int) -> TruncatedSeries:
    """Fixed points f = Phi(f), iterated from f = 1 until stable.

    Each iteration determines at least one further coefficient, so the loop
    reaches its fixed point within order+2 rounds; stability is checked, not
    assumed.
    """
    one = TruncatedSeries.one(order)
    x = TruncatedSeries.x(order)

    if kind == "A186737":
        def phi(g):
            return _row_sum(one + x * g, order)
    elif kind == "A224885":
        def phi(g):
            return one + x + _row_sum(g, order) - g
    else:
        raise ValueError(f"unknown recursive kind {kind!r}")

    g = one
    for _ in range(order + 2):
        nxt = phi(g)
        if nxt == g:
            return g
        g = nxt
    raise RuntimeError(f"fixed-point iteration for {kind} failed to stabilise")


# ---------------------------------------------------------------------------
# Named variant series
# ---------------------------------------------------------------------------

def _indicator_inverse(period: int, room: int, alternating: bool = False) -> TruncatedSeries:
    """1/(1 - z^period), or 1/(1 + z^period) when alternating."""
    out = [0] * (room + 1)
    s = 1
    for i in range(0, room + 1, period):
        out[i] = s
        if alternating:
            s = -s
    return TruncatedSeries(out, room)


def _binomial_series(order: int) -> TruncatedSeries:
    return TruncatedSeries([1, 1][: order + 1], order)


def _one_minus_z(order: int) -> TruncatedSeries:
    return TruncatedSeries([1, -1][: order + 1], order)


def _variant_A207652(order: int) -> TruncatedSeries:
    opz = _binomial_series(order)
    return _general_sum(_powers(opz, opz), order, d=_indicator_inverse)


def _variant_A207653(order: int) -> TruncatedSeries:
    omz = _one_minus_z(order)
    return _general_sum(
        None, order, y=_powers(omz, omz * omz),  # (1-z)^{2j-1}
        d=lambda j, room: _indicator_inverse(2 * j - 1, room),
    )


def _variant_A207651(order: int) -> TruncatedSeries:
    omz = _one_minus_z(order)
    return _general_sum(None, order, y=_powers(omz, omz), d=_indicator_inverse)


def _variant_A035378(order: int) -> TruncatedSeries:
    """sum_k prod_{1<=j<=k} (1 - (z-1)^j), consecutive terms paired.

    Odd-index factors have constant term 2, so the raw sum does not settle
    coefficientwise; pairing k = 2K, 2K+1 gives valuation-positive factors
    (1-(z-1)^{2i-1})(1-(z-1)^{2i}) with the k-dependent prefactor
    2 - (z-1)^{2K+1}.
    """
    zm1 = TruncatedSeries([-1, 1][: order + 1], order)
    two = TruncatedSeries.constant(2, order)
    odd_power = _powers(zm1, zm1 * zm1)  # (z-1)^{2K+1}
    power = _powers(zm1, zm1)

    def factor(i, room):
        a = power(2 * i - 1, room)  # (z-1)^{2i-1}
        b = power(2 * i, room)  # (z-1)^{2i}
        one = TruncatedSeries.one(room)
        return (one - a) * (one - b)

    return sum_product(factor, order, dpart=lambda K: two - odd_power(K + 1, order))


def _variant_A035378_inverted(order: int) -> TruncatedSeries:
    """sum_k (z-1)^{-k-1} prod_{1<=j<=k} (1 - (z-1)^{-j})^2, paired likewise."""
    w = -TruncatedSeries.geometric(order)  # (z-1)^{-1}
    odd_power = _powers(w, w * w)

    def dpart(K):
        p = odd_power(K + 1, order)  # (z-1)^{-(2K+1)}
        one = TruncatedSeries.one(order)
        q = one - p
        return p * (one + w * (q * q))

    power = _powers(w, w)

    def factor(i, room):
        a = power(2 * i - 1, room)  # (z-1)^{-(2i-1)}
        b = power(2 * i, room)  # (z-1)^{-2i}
        one = TruncatedSeries.one(room)
        fa = one - a
        fb = one - b
        return (fa * fa) * (fb * fb)

    return sum_product(factor, order, dpart=dpart)


def _variant_A035378_paired(order: int) -> TruncatedSeries:
    """The explicitly paired rewriting:
    sum_K u^{2K+1} (u (1 + u^{2K+1})^2 - 1) prod_{1<=i<=K} (u^{2i-1} + 1)^2 (u^{2i} - 1)^2
    with u = 1/(1-z).  (Odd powers enter with a + sign: they carry the
    residual (-1)^j from the inverted-series factors.)
    """
    u = TruncatedSeries.geometric(order)
    one_full = TruncatedSeries.one(order)
    odd_power = _powers(u, u * u)

    def dpart(K):
        p = odd_power(K + 1, order)  # u^{2K+1}
        q = one_full + p
        return p * (u * (q * q) - one_full)

    power = _powers(u, u)

    def factor(i, room):
        a = power(2 * i - 1, room)  # u^{2i-1}
        b = power(2 * i, room)  # u^{2i}
        one = TruncatedSeries.one(room)
        fa = a + one
        fb = b - one
        return (fa * fa) * (fb * fb)

    return sum_product(factor, order, dpart=dpart)


def _variant_A207557(order: int) -> TruncatedSeries:
    """sum_k (1+z)^{-k(k-1)} prod_{1<=j<=k} ((1+z)^{2j-1} - 1).

    Folding the quadratic prefactor into the factors leaves
    factor_j = (1+z) - (1+z)^{2-2j}.
    """
    opz = _binomial_series(order)
    y = _powers(TruncatedSeries.one(order), opz.inv().pow(2))  # (1+z)^{2-2j}
    return _general_sum(opz, order, y=y)


def _variant_A207557_rf(order: int) -> TruncatedSeries:
    """The same series after the Rogers-Fine transformation:
    1 + z^{-1} sum_{k>=1} (1+z)^{2k+1} prod_{1<=j<=k} ((1+z)^{2j-1} - 1)^2.
    """
    m = order + 1
    opz = _binomial_series(m)
    opz_sq = opz * opz
    power = _powers(opz, opz_sq)  # (1+z)^{2j-1}
    s = opz * _general_sum(power, m, d=opz_sq, alpha=2) - opz  # k >= 1 only
    return TruncatedSeries.one(order) + s.shift_down(1)


def _exps(a: int, b: int = 0) -> Callable[[int, int], TruncatedSeries]:
    """(j, room) -> exp((a j + b) z) at order `room`."""
    return lambda j, room: exp_linear(a * j + b, room)


def _bernoulli_egf(order: int) -> TruncatedSeries:
    """z/(e^z - 1)."""
    e = exp_linear(1, order + 1)
    num = (e - TruncatedSeries.one(order + 1)).shift_down(1)
    return num.inv()


def _variant_A158690_form(order: int, form: int) -> TruncatedSeries:
    one = TruncatedSeries.one
    if form == 1:
        return _general_sum(_exps(1), order)
    if form == 2:
        return _general_sum(None, order, y=_exps(-2, 1))
    if form == 3:
        em1 = exp_linear(-1, order)
        return em1 * _general_sum(em1, order, y=_exps(-2, -1))
    if form == 4:
        def factor(i, room):
            f = (exp_linear(2 * i - 1, room) - one(room)) * (
                exp_linear(2 * i, room) - one(room)
            )
            return exp_linear(2, room) * f

        return exp_linear(1, order) * sum_product(factor, order)
    if form == 5:
        e1 = exp_linear(1, order)
        inner = e1 * _general_sum(_exps(1, 1), order, y=e1)
        return (one(order) + inner).scalar_mul(Fraction(1, 2))
    raise ValueError(f"unknown form {form}")


def ramanujan_r(order: int, form: str = "alternating") -> TruncatedSeries:
    """The lost-notebook series R(q), expanded in q.

    alternating: 1 + sum_k (-1)^k q^{k+1} prod_{1<=j<=k} (1 - q^j)
    quotient:    sum_k q^{k(k+1)/2} / prod_{1<=j<=k} (1 + q^j)
    """
    one = TruncatedSeries.one
    if form == "alternating":
        def factor(j, room):
            out = [0] * (room + 1)
            if room >= 1:
                out[1] = -1
            if j + 1 <= room:
                out[j + 1] += 1
            return TruncatedSeries(out, room)  # -q (1 - q^j)

        x = TruncatedSeries.x(order)
        return one(order) + x * sum_product(factor, order)
    if form == "quotient":
        def factor(j, room):
            # q^j / (1 + q^j): coefficient (-1)^i at q^{j(i+1)}
            out = [0] * (room + 1)
            s = 1
            for idx in range(j, room + 1, j):
                out[idx] = s
                s = -s
            return TruncatedSeries(out, room)

        return sum_product(factor, order)
    raise ValueError(f"unknown form {form!r}")


def r_at_exp_neg(order: int) -> TruncatedSeries:
    """R(e^{-z}) via 1 + e^{-z} sum_k prod_j (e^{-(j+1)z} - e^{-z})."""
    em1 = exp_linear(-1, order)
    return TruncatedSeries.one(order) + em1 * _general_sum(_exps(-1, -1), order, y=em1)


def r_at_one_minus(order: int) -> TruncatedSeries:
    """R(1-z) via 1 + (1-z) sum_k prod_j ((1-z)^{j+1} - (1-z))."""
    omz = _one_minus_z(order)
    x = _powers(omz * omz, omz)  # (1-z)^{j+1}
    return TruncatedSeries.one(order) + omz * _general_sum(x, order, y=omz)


def _variant_table_egf(order: int, which: str) -> TruncatedSeries:
    e1 = exp_linear(1, order)
    if which == "A196194":
        return _general_sum(_exps(1), order, d=_bernoulli_egf(order))
    if which == "A207214":
        return _general_sum(_exps(1, 1), order, y=e1)
    if which == "A215066":
        return _general_sum(_exps(2, -1), order)
    if which == "A209832":
        return e1 * _general_sum(_exps(2), order, y=e1)
    if which == "A214687":
        return _general_sum(_exps(2, 1), order, y=exp_linear(2, order))
    if which == "A079144":
        return _general_sum(None, order, y=_exps(-1))
    raise ValueError(which)


def _variant_A079144_completed(order: int) -> TruncatedSeries:
    """e^z sum_k prod_j [e^z (e^{jz} - 1)^2] -- the transformed route."""
    e1 = exp_linear(1, order)
    return e1 * _general_sum(_exps(1), order, d=e1, alpha=2)


# id: (period p or 0, step s, first f): the j-th factor is base^{s j - s + f} - 1
# with base = (1+z)/(1+z^p), or 1+z when p = 0.
_POWER_SCHEDULES = {
    "A207386": (3, 1, 1), "A207397": (2, 1, 1),
    "A207569": (0, 2, 1), "A207570": (0, 3, 1), "A207571": (0, 3, 2),
}


def _variant_ordinary(order: int, which: str) -> TruncatedSeries:
    opz = _binomial_series(order)
    if which == "A207556":
        return _general_sum(_powers(opz * opz, opz), order, y=opz)  # (1+z)^{j+1}
    if which not in _POWER_SCHEDULES:
        raise ValueError(which)
    period, step, first = _POWER_SCHEDULES[which]
    base = opz * _indicator_inverse(period, order, alternating=True) if period else opz
    return _general_sum(_powers(base.pow(first), base.pow(step)), order)


_VARIANT_BUILDERS: dict = {
    "A207652": _variant_A207652,
    "A207653": _variant_A207653,
    "A207651": _variant_A207651,
    "A035378": _variant_A035378,
    "A207557": _variant_A207557,
    "A079144": lambda order: _variant_table_egf(order, "A079144"),
}
for _i in range(1, 6):
    _VARIANT_BUILDERS[f"A158690-form{_i}"] = (
        lambda order, _f=_i: _variant_A158690_form(order, _f)
    )


def variant_gf(kind: str, order: int) -> TruncatedSeries:
    try:
        return _VARIANT_BUILDERS[kind](order)
    except KeyError:
        raise ValueError(f"unknown variant kind {kind!r}")


# ---------------------------------------------------------------------------
# Integer fast path for the prototype family and its per-dimension profile
# ---------------------------------------------------------------------------

# The largest labeled_profile build so far: row n does not depend on n_max,
# so every smaller profile is a prefix of it.
_labeled_largest: list = []


@lru_cache(maxsize=4)
def labeled_profile(n_max: int):
    """Exact profile of the prototype series sum_k prod_{1<=j<=k}(e^{jz}-1).

    Returns (totals, rows): totals[n] = n![z^n] of the full sum and
    rows[n][k] = n![z^n] of the k-th partial product, k = 0..n.  Both are
    integers; the computation stays in binomial-convolution integer form.
    A profile no larger than one built before is sliced from that build.
    """
    if _labeled_largest and 0 <= n_max < len(_labeled_largest[0][0]):
        totals, rows = _labeled_largest[0]
        return totals[: n_max + 1], rows[: n_max + 1]
    _labeled_largest[:] = [_labeled_build(n_max)]
    return _labeled_largest[0]


def _labeled_build(n_max: int):
    """The integer recurrence behind :func:`labeled_profile`."""
    cur = [1] + [0] * n_max
    rows = [[0] * (n + 1) for n in range(n_max + 1)]
    rows[0][0] = 1
    for k in range(1, n_max + 1):
        kp = [1] * (n_max + 1)
        for t in range(1, n_max + 1):
            kp[t] = kp[t - 1] * k
        new = [0] * (n_max + 1)
        for n in range(k, n_max + 1):
            s = 0
            for i in range(k - 1, n):
                a = cur[i]
                if a:
                    s += comb(n, i) * a * kp[n - i]
            new[n] = s
        cur = new
        for n in range(k, n_max + 1):
            rows[n][k] = cur[n]
    totals = tuple(sum(r) for r in rows)
    return totals, tuple(tuple(r) for r in rows)


def labeled_numbers(n_max: int) -> tuple:
    """n![z^n] sum_k prod_{1<=j<=k}(e^{jz}-1) for n = 0..n_max, exactly."""
    return labeled_profile(n_max)[0]


# ---------------------------------------------------------------------------
# Named sequence catalog (integer terms, fixture-ready)
# ---------------------------------------------------------------------------

def _as_int(x) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"non-integer coefficient {x} where integers expected")
        return int(x)
    if isinstance(x, int):
        return x
    raise TypeError(f"unexpected coefficient type {type(x).__name__}")


def _series_terms(f: TruncatedSeries, count: int, egf: bool) -> list:
    out = []
    for n in range(count):
        c = f.coeff(n)
        out.append(_as_int(factorial(n) * c if egf else c))
    return out


def _glaisher_terms(count: int) -> list:
    """T_n = (2n+1)! [z^{2n+1}] sin(2z) / (2 cos(3z))."""
    order = 2 * count
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
    return [_as_int(factorial(2 * n + 1) * h.coeff(2 * n + 1)) for n in range(count)]


def _log_weighted_terms(count: int) -> list:
    """b_n = n [z^n] log(row series over {0,1}), n >= 1."""
    f = row_fishburn_gf(PRIMITIVE, count)
    g = f.derivative() * f.inv().truncate(count - 1)
    return [_as_int(g.coeff(n - 1)) for n in range(1, count + 1)]


def _triangle_terms(family: str, stat: str, spec: LambdaSpec, count: int) -> list:
    rows = 1
    while rows * (rows + 1) // 2 < count:
        rows += 1
    prof = stat_profile(family, stat, spec, rows)
    out = []
    for n in range(1, rows + 1):
        for k in range(1, n + 1):
            out.append(_as_int(prof.coeff_vm(n, k)))
    return out[:count]


def _two_each_series(order: int) -> TruncatedSeries:
    """The weight series (1+z)/(1-z): every positive value twice."""
    return TruncatedSeries([1] + [2] * order, order)


@dataclass(frozen=True)
class NamedEntry:
    build: Optional[Callable[[int], TruncatedSeries]] = None
    egf: bool = False
    offset: int = 0
    terms: Optional[Callable[[int], list]] = None
    note: str = ""


_CATALOG: dict = {
    # complete family
    "A022493": NamedEntry(lambda N: fishburn_gf(ALL, N), note="fishburn / all"),
    "A138265": NamedEntry(lambda N: fishburn_gf(PRIMITIVE, N), note="fishburn / 01"),
    "A289317": NamedEntry(
        lambda N: fishburn_gf(LambdaSpec("odd"), N), note="fishburn / odd"
    ),
    "A289312": NamedEntry(
        # At order 0 the weight series would be the constant 1, which is the
        # empty multiset's; build it at order 1 and let fishburn_gf truncate.
        lambda N: fishburn_gf(_two_each_series(max(N, 1)), N),
        note="fishburn / doubled",
    ),
    # row family
    "A158691": NamedEntry(lambda N: row_fishburn_gf(ALL, N), note="row / all"),
    "A179525": NamedEntry(lambda N: row_fishburn_gf(PRIMITIVE, N), note="row / 01"),
    "A207433": NamedEntry(
        lambda N: row_fishburn_gf(LambdaSpec("012"), N), note="row / 012"
    ),
    "A289316": NamedEntry(
        lambda N: row_fishburn_gf(LambdaSpec("odd"), N), note="row / odd"
    ),
    "A289313": NamedEntry(
        lambda N: row_fishburn_gf(_two_each_series(N), N), note="row / doubled"
    ),
    # exponential-weight variants (integer after multiplying by n!)
    "A158690": NamedEntry(lambda N: _variant_A158690_form(N, 1), egf=True),
    "A079144": NamedEntry(lambda N: _variant_table_egf(N, "A079144"), egf=True),
    "A196194": NamedEntry(lambda N: _variant_table_egf(N, "A196194"), egf=True),
    "A207214": NamedEntry(lambda N: _variant_table_egf(N, "A207214"), egf=True),
    "A215066": NamedEntry(lambda N: _variant_table_egf(N, "A215066"), egf=True),
    "A209832": NamedEntry(lambda N: _variant_table_egf(N, "A209832"), egf=True),
    "A214687": NamedEntry(lambda N: _variant_table_egf(N, "A214687"), egf=True),
    # ordinary power-schedule variants
    "A207386": NamedEntry(lambda N: _variant_ordinary(N, "A207386")),
    "A207397": NamedEntry(lambda N: _variant_ordinary(N, "A207397")),
    "A207556": NamedEntry(lambda N: _variant_ordinary(N, "A207556")),
    "A207569": NamedEntry(lambda N: _variant_ordinary(N, "A207569")),
    "A207570": NamedEntry(lambda N: _variant_ordinary(N, "A207570")),
    "A207571": NamedEntry(lambda N: _variant_ordinary(N, "A207571")),
    # quotient / paired variants
    "A207652": NamedEntry(_variant_A207652),
    "A207653": NamedEntry(_variant_A207653),
    "A207651": NamedEntry(_variant_A207651),
    "A035378": NamedEntry(_variant_A035378),
    "A207557": NamedEntry(_variant_A207557),
    # recursive
    "A186737": NamedEntry(lambda N: recursive_gf("A186737", N)),
    "A224885": NamedEntry(lambda N: recursive_gf("A224885", N)),
    # special normalizations
    "A003406": NamedEntry(lambda N: ramanujan_r(N, "alternating")),
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
    return entry.build(order)


def named_sequence(name: str, count: int) -> list:
    """The first `count` integer terms of a cataloged sequence."""
    entry = named_entry(name)
    if entry.terms is not None:
        return entry.terms(count)
    f = entry.build(count - 1)
    return _series_terms(f, count, entry.egf)
