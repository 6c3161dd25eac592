"""Exact statistic distributions at fixed size, and their limit laws.

The statistic profiles of :mod:`.families` carry, at every size ``n``, the
full distribution of a statistic (first-row sum, diagonal sum, number of 1s
or 2s) over a matrix family: row ``n`` of the bivariate generating function,
unpacked from one univariate build at v = 2^K.  This module packages those
rows as exact probability tables, instantiates the predicted limit laws (zero-truncated
Poisson, Poisson, normal, degenerate, and the lattice-Poisson convolution
arising for self-dual matrices), and measures the distance between the two.

Everything touching a table is exact rational arithmetic; laws and distance
metrics are evaluated with mpmath.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import mpmath as mp

from .asymptotics import _mpf, _require_positive_int
from .families import (
    STATS,
    LambdaSpec,
    canonical_family,
    family_series,
    stat_jet,
    stat_profile,
)

__all__ = [
    "ComparisonReport",
    "DistributionTable",
    "LimitLaw",
    "ParityEntry",
    "ParityReport",
    "compare",
    "distribution",
    "histogram_rows",
    "limit_law_for",
    "parity_report",
    "report_json",
    "stat_mean_variance",
]

_DPS = 40

# Full-table extraction needs the whole profile up to n: one univariate build
# at v = 2^K, K the bit length of the largest count, whose z^n coefficient
# packs n + 1 digits of K bits.  Both grow with the order, so the cost grows
# steeply: fishburn/diagonal took about 11 s at order 90 and 83 s at 120, on
# a 2-core x86-64 machine.  This is the documented ceiling for
# distribution(); moments stay cheap far beyond it through the jet
# representation.
_ENUM_BUDGET = 150
_JET_BUDGET = 400
# parity_report adds distance metrics, which need the full table, up to here.
_PARITY_PROFILE_BUDGET = 60


# ---------------------------------------------------------------------------
# Exact tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution of one statistic over a family at fixed size.

    ``support`` lists the statistic values with nonzero count, ``counts`` the
    matching weighted matrix counts, and ``pmf`` their exact fractions of the
    family count ``total``.  ``mean`` and ``variance`` are exact rationals.
    """

    family: str
    stat: str
    entries: str
    n: int
    support: Tuple[int, ...]
    counts: Tuple[int, ...]
    total: int
    pmf: Tuple[Fraction, ...]
    mean: Fraction
    variance: Fraction

    def prob(self, value) -> Fraction:
        for s, p in zip(self.support, self.pmf):
            if s == value:
                return p
        return Fraction(0)


def _require_matrices(total: int, family: str, lam: LambdaSpec, n: int) -> None:
    if total == 0:
        raise ValueError(f"no {family} matrices of size {n} with entries {lam.describe()}")


def distribution(family: str, stat: str, lam: LambdaSpec, n: int) -> DistributionTable:
    """Exact distribution of ``stat`` over the family at size ``n``.

    Normalizes the z^n row of the bivariate statistic series by the family
    count, all in integer arithmetic.  Sizes with no matrices at all (parity
    gaps of even-entry multisets, for instance) are an error, not an empty
    table.  The enumeration budget is ``n <= 150``; for bare moments at
    larger sizes use :func:`stat_mean_variance`.
    """
    family = canonical_family(family)
    _require_positive_int("n", n)
    if n > _ENUM_BUDGET:
        raise ValueError(
            f"size {n} beyond the exact-enumeration budget {_ENUM_BUDGET}; "
            "stat_mean_variance covers moments further out"
        )
    poly = stat_profile(family, stat, lam, n)[n]
    total = family_series(family, lam, n).coeff(n)
    _require_matrices(total, family, lam, n)
    support = tuple(k for k, c in enumerate(poly) if c)
    counts = tuple(int(poly[k]) for k in support)
    pmf = tuple(Fraction(c, total) for c in counts)
    m1 = Fraction(sum(k * c for k, c in zip(support, counts)), total)
    m2 = Fraction(sum(k * k * c for k, c in zip(support, counts)), total)
    return DistributionTable(
        family=family,
        stat=stat,
        entries=lam.describe(),
        n=n,
        support=support,
        counts=counts,
        total=int(total),
        pmf=pmf,
        mean=m1,
        variance=m2 - m1 * m1,
    )


def stat_mean_variance(family: str, stat: str, lam: LambdaSpec, n: int):
    """Exact mean and variance of a statistic, without the full table.

    Works from the second-order jet (v = 1 + eps), so the cost stays flat in
    the statistic's range; sizes up to 400 are in budget.
    """
    family = canonical_family(family)
    _require_positive_int("n", n)
    if n > _JET_BUDGET:
        raise ValueError(f"size {n} beyond the moment budget {_JET_BUDGET}")
    jet = stat_jet(family, stat, lam, n)
    total = jet.coeff_vm(n, 0)
    _require_matrices(total, family, lam, n)
    m1 = Fraction(jet.coeff_vm(n, 1), total)
    fact2 = Fraction(jet.coeff_vm(n, 2), total)  # E C(stat, 2)
    return m1, 2 * fact2 + m1 - m1 * m1


# ---------------------------------------------------------------------------
# Limit laws
# ---------------------------------------------------------------------------

_KINDS = ("ztp", "poisson", "normal", "degenerate", "convolution")


@dataclass(frozen=True)
class LimitLaw:
    """A reference law for an affinely transformed statistic.

    The law describes x = shift + slope*s, where s is the raw statistic;
    ``variable`` spells the transformation out for reports.  Exactly one
    parameter group is populated: ``rate`` (ztp/poisson), ``center`` and
    ``spread`` (normal mean/variance), ``point`` (degenerate atom), or
    ``components`` (lattice-step/rate pairs whose convolution is taken).
    """

    kind: str
    shift: Fraction = Fraction(0)
    slope: Fraction = Fraction(1)
    variable: str = "s"
    rate: Optional[object] = None
    center: Optional[object] = None
    spread: Optional[object] = None
    point: Optional[Fraction] = None
    components: Tuple[Tuple[int, object], ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown law kind {self.kind!r}; expected one of {_KINDS}")
        if self.slope == 0:
            raise ValueError("the statistic transformation must be invertible")

    def transform(self, value) -> Fraction:
        """Map a raw statistic value to the law's coordinate."""
        return self.shift + self.slope * Fraction(value)

    def mean(self) -> mp.mpf:
        with mp.workdps(_DPS):
            if self.kind == "ztp":
                t = _mpf(self.rate)
                return t * mp.exp(t) / mp.expm1(t)
            if self.kind == "poisson":
                return _mpf(self.rate)
            if self.kind == "normal":
                return _mpf(self.center)
            if self.kind == "degenerate":
                return _mpf(self.point)
            return mp.fsum(step * _mpf(rate) for step, rate in self.components)

    def variance(self) -> mp.mpf:
        with mp.workdps(_DPS):
            if self.kind == "ztp":
                t = _mpf(self.rate)
                m1 = t * mp.exp(t) / mp.expm1(t)
                return m1 * (1 + t - m1)
            if self.kind == "poisson":
                return _mpf(self.rate)
            if self.kind == "normal":
                return _mpf(self.spread)
            if self.kind == "degenerate":
                return mp.mpf(0)
            return mp.fsum(step * step * _mpf(rate) for step, rate in self.components)

    def support_probs(self) -> Dict[Fraction, mp.mpf]:
        """Probability table of a discrete law on its lattice.

        Poisson-type tails close once the missed mass drops below 1e-16
        (1e-13 per convolution factor, keeping at least 1 - 1e-12 overall).
        """
        with mp.workdps(_DPS):
            if self.kind == "degenerate":
                return {Fraction(self.point): mp.mpf(1)}
            if self.kind == "poisson":
                return _poisson_table(self.rate, 1, mp.mpf("1e-16"))
            if self.kind == "ztp":
                plain = _poisson_table(self.rate, 1, mp.mpf("1e-16"))
                scale = 1 / -mp.expm1(-_mpf(self.rate))
                return {k: p * scale for k, p in plain.items() if k != 0}
            if self.kind == "convolution":
                out: Dict[Fraction, mp.mpf] = {Fraction(0): mp.mpf(1)}
                for step, rate in self.components:
                    comp = _poisson_table(rate, step, mp.mpf("1e-13"))
                    nxt: Dict[Fraction, mp.mpf] = {}
                    for x, p in out.items():
                        for y, q in comp.items():
                            key = x + y
                            nxt[key] = nxt.get(key, mp.mpf(0)) + p * q
                    out = nxt
                return out
        raise TypeError("a normal law has a density, not a lattice pmf")

    def pmf(self, x) -> mp.mpf:
        table = self.support_probs()
        return table.get(Fraction(x), mp.mpf(0))


def _poisson_table(rate, step: int, tail) -> Dict[Fraction, mp.mpf]:
    rate = _mpf(rate)
    if rate < 0:
        raise ValueError("Poisson rates are nonnegative")
    table: Dict[Fraction, mp.mpf] = {}
    term = mp.exp(-rate)
    kept = mp.mpf(0)
    k = 0
    while True:
        table[Fraction(step * k)] = term
        kept += term
        if kept >= 1 - tail:
            return table
        k += 1
        if k > 4000:
            raise RuntimeError("Poisson tail did not close; rate out of scale")
        term = term * rate / k


def _uncovered(family: str, stat: str, lam: LambdaSpec, why: str) -> ValueError:
    return ValueError(
        f"no covered limit law for {family}/{stat} with entries "
        f"{lam.describe()}: {why}"
    )


# The exponent alpha of the product factors in the paper's general sum
# sum_k d^(k+omega0) prod_{j<=k} (e^(j+omega) - 1)^alpha; the self-dual sum
# is the alpha = 1 sum in z^2.
_ALPHA = {"row-fishburn": 1, "fishburn": 2, "self-dual": 1}


def limit_law_for(family: str, stat: str, lam: LambdaSpec, n: int) -> LimitLaw:
    """The predicted limit law for (family, stat), instantiated at size n.

    The laws follow from one saddle-point analysis of the paper's sum, in
    which the exponent alpha (1 for row-Fishburn and self-dual, 2 for
    Fishburn) sets them: the first row is zero-truncated Poisson(log 2) for
    row-Fishburn and N(log n, log n) otherwise; the diagonal is
    N(alpha log n, alpha log n) (for self-dual matrices, of Y_n/2); the 1s
    and 2s counts are Poisson with rate alpha pi^2 lam2 / (12 lam1^2)
    (degenerate without 2s), and for self-dual matrices the 1s count is a
    two-component lattice convolution.  When 1s are barred (Fishburn only,
    smallest entry 2) the e1 = 0 theorem gives the 2s count; see
    :func:`_no_ones_law`.  Anything else raises.
    """
    family = canonical_family(family)
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {STATS}")
    _require_positive_int("n", n)
    lam1, lam2 = lam.weight(1), lam.weight(2)
    if lam1 == 0 and family != "fishburn":
        name = "row" if family == "row-fishburn" else "self-dual"
        raise _uncovered(family, stat, lam, f"the {name} results need 1s allowed")
    if lam1 == 0 and lam2 == 0:
        raise _uncovered(family, stat, lam, "the smallest entry must be 1 or 2")
    alpha = _ALPHA[family]
    with mp.workdps(_DPS):
        logn = mp.log(n)
        if stat == "first_row":
            if family == "row-fishburn":
                return LimitLaw("ztp", rate=mp.log(2), variable="X_n")
            return LimitLaw("normal", center=logn, spread=logn, variable="X_n")
        if stat == "diagonal":
            if family == "self-dual":
                return LimitLaw("normal", slope=Fraction(1, 2), center=logn,
                                spread=logn, variable="Y_n/2")
            return LimitLaw("normal", center=alpha * logn, spread=alpha * logn,
                            variable="Y_n")
        if lam1 == 0:
            return _no_ones_law(stat, lam, n)
        if family == "self-dual" and stat == "twos":
            raise _uncovered(family, stat, lam, "no 2s-marking series exists")
        if lam2 == 0:
            if stat == "ones":
                return LimitLaw("degenerate", point=Fraction(n), variable="Z_n")
            return LimitLaw("degenerate", point=Fraction(0), variable="#2s")
        rate = mp.pi ** 2 * lam2 / (12 // alpha * _mpf(lam1) ** 2)
        if family == "self-dual":
            comps = ((2, _mpf(Fraction(lam2, lam1)) * mp.log(2)), (4, rate))
            return LimitLaw("convolution", shift=Fraction(n), slope=Fraction(-1),
                            components=comps, variable="n - Z_n")
        if stat == "ones":
            return LimitLaw("poisson", shift=Fraction(n, 2), slope=Fraction(-1, 2),
                            rate=rate, variable="(n - Z_n)/2")
        return LimitLaw("poisson", rate=rate, variable="#2s")


def _no_ones_law(stat: str, lam: LambdaSpec, n: int) -> LimitLaw:
    """The 2s count of Fishburn matrices with smallest entry 2.

    With 3s allowed it is root-n normal.  Otherwise every odd value below
    the first allowed one is barred, 2s dominate, and the count Z*_n of the
    4s, shifted by a parity-dependent amount, is Poisson with rate
    pi^2 lam4 / (6 lam2^2) (degenerate without 4s).
    """
    if stat == "ones":
        raise _uncovered("fishburn", stat, lam, "no 1 entries exist in this regime")
    lam2, first_odd = lam.weight(2), lam.smallest_odd_entry()
    if first_odd == 3:
        tau = lam.weight(3) * mp.pi / (2 * mp.sqrt(3) * _mpf(lam2) ** mp.mpf("1.5"))
        center = tau * mp.sqrt(n)
        return LimitLaw("normal", shift=Fraction(n, 3), slope=Fraction(-2, 3),
                        center=center, spread=center, variable="(n - 2 Z_n)/3")
    if n % 2 and first_odd is None:
        raise ValueError(
            f"no fishburn matrices of odd size {n} with purely even "
            f"entries {lam.describe()}"
        )
    shift = Fraction(n - first_odd if n % 2 else n, 4)
    lam4 = lam.weight(4)
    if lam4 == 0:
        return LimitLaw("degenerate", shift=shift, slope=Fraction(-1, 2),
                        point=Fraction(0), variable="Z*_n")
    return LimitLaw("poisson", shift=shift, slope=Fraction(-1, 2),
                    rate=mp.pi ** 2 * lam4 / (6 * _mpf(lam2) ** 2), variable="Z*_n")


# ---------------------------------------------------------------------------
# Distance metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    sup_distance: mp.mpf
    total_variation: mp.mpf
    mean_gap: mp.mpf
    variance_gap: mp.mpf


def compare(dist: DistributionTable, law: LimitLaw) -> ComparisonReport:
    """Distance metrics between an exact table and its reference law.

    Discrete laws are compared pointwise on the union of supports after the
    law's transformation of the statistic.  Normal laws are discretized by
    interval probabilities on unit-width bins around the raw integer
    support -- the lattice analogue of comparing the centered statistic,
    e.g. (Y_n - log n)/sqrt(log n), against a standard normal.
    """
    with mp.workdps(_DPS):
        mean_gap = abs(_mpf(law.transform(dist.mean)) - law.mean())
        variance_gap = abs(
            _mpf(law.slope * law.slope * dist.variance) - law.variance()
        )
        if law.kind == "normal":
            sup, tv = _normal_metrics(dist, law)
        else:
            sup, tv = _lattice_metrics(dist, law)
        return ComparisonReport(sup, tv, mean_gap, variance_gap)


def _normal_bins(law):
    """``(mu, sd, bin_prob)`` of a normal law pulled back to the raw lattice
    s = (x - shift)/slope; ``bin_prob(s)`` is its mass on [s - 1/2, s + 1/2]."""
    slope = _mpf(law.slope)
    mu = (law.center - _mpf(law.shift)) / slope
    sd = mp.sqrt(law.spread) / abs(slope)
    half = mp.mpf(1) / 2

    def bin_prob(s):
        return mp.ncdf((s + half - mu) / sd) - mp.ncdf((s - half - mu) / sd)

    return mu, sd, bin_prob


def _lattice_mass(law, table):
    """``mass(s)``: the entry of the lattice law's ``table`` at raw value s."""
    zero = mp.mpf(0)
    return lambda s: table.get(law.transform(s), zero)


def _lattice_metrics(dist, law):
    table = law.support_probs()
    mass = _lattice_mass(law, table)
    gaps = [abs(_mpf(p) - mass(s)) for s, p in zip(dist.support, dist.pmf)]
    hit = {law.transform(s) for s in dist.support}
    gaps.extend(q for x, q in table.items() if x not in hit)
    return max(gaps), (mp.fsum(gaps) + (1 - mp.fsum(table.values()))) / 2


def _normal_metrics(dist, law):
    mu, sd, bin_prob = _normal_bins(law)
    lo = min(min(dist.support), int(mp.floor(mu - 10 * sd)))
    hi = max(max(dist.support), int(mp.ceil(mu + 10 * sd)))
    exact = dict(zip(dist.support, dist.pmf))
    gaps = []
    covered = mp.mpf(0)
    for s in range(lo, hi + 1):
        prob = bin_prob(s)
        covered += prob
        gaps.append(abs(_mpf(exact.get(s, 0)) - prob))
    return max(gaps), (mp.fsum(gaps) + (1 - covered)) / 2


# ---------------------------------------------------------------------------
# Parity splitting when 1s are barred
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityEntry:
    n: int
    parity: str
    count: int
    mean: Optional[Fraction]
    variance: Optional[Fraction]
    law: Optional[LimitLaw]
    metrics: Optional[ComparisonReport]


@dataclass(frozen=True)
class ParityReport:
    entries: str
    stat: str
    gap: Optional[int]  # half the index gap before the first allowed odd value
    rows: Tuple[ParityEntry, ...]


def parity_report(lam: LambdaSpec, stat: str, ns: Iterable[int]) -> ParityReport:
    """Per-parity behavior of the 2s count when 1s are barred.

    For each requested size: the exact matrix count, exact mean/variance of
    the statistic, the predicted law (root-n normal when 3s are allowed, a
    shifted Poisson or degenerate count otherwise), and distance metrics
    for sizes up to ``_PARITY_PROFILE_BUDGET``.  Sizes with no matrices are
    reported with count 0 rather than skipped.
    """
    if lam.weight(1) != 0:
        raise ValueError("parity analysis applies when 1s are barred")
    if lam.weight(2) == 0:
        raise ValueError("the value 2 must be allowed")
    if stat != "twos":
        raise ValueError("the tracked statistic is the 2s count, stat='twos'")
    first_odd = lam.smallest_odd_entry()
    gap = None if first_odd is None else (first_odd - 1) // 2
    rows: List[ParityEntry] = []
    for n in ns:
        _require_positive_int("n", n)
        parity = "even" if n % 2 == 0 else "odd"
        count = family_series("fishburn", lam, n).coeff(n)
        if count == 0:
            rows.append(ParityEntry(n, parity, 0, None, None, None, None))
            continue
        mean, variance = stat_mean_variance("fishburn", "twos", lam, n)
        law = limit_law_for("fishburn", "twos", lam, n)
        metrics = None
        if n <= _PARITY_PROFILE_BUDGET:
            metrics = compare(distribution("fishburn", "twos", lam, n), law)
        rows.append(ParityEntry(n, parity, int(count), mean, variance, law, metrics))
    return ParityReport(lam.describe(), stat, gap, tuple(rows))


# ---------------------------------------------------------------------------
# Plot-ready exports
# ---------------------------------------------------------------------------

def histogram_rows(dist: DistributionTable, law: Optional[LimitLaw] = None):
    """(value, exact pmf, limit pmf) triples; limit column None without a law.

    A normal law's limit pmf is its mass on the unit-width bin around the
    value, as in :func:`compare`.
    """
    if law is None:
        return [(s, p, None) for s, p in zip(dist.support, dist.pmf)]
    with mp.workdps(_DPS):
        if law.kind == "normal":
            limit = _normal_bins(law)[2]
        else:
            limit = _lattice_mass(law, law.support_probs())
        return [(s, p, limit(s)) for s, p in zip(dist.support, dist.pmf)]


def _law_payload(law: LimitLaw) -> dict:
    payload = {
        "kind": law.kind,
        "variable": law.variable,
        "transform": [str(law.shift), str(law.slope)],
    }
    if law.rate is not None:
        payload["rate"] = mp.nstr(_mpf(law.rate), 15)
    if law.center is not None:
        payload["mean"] = mp.nstr(_mpf(law.center), 15)
        payload["variance"] = mp.nstr(_mpf(law.spread), 15)
    if law.point is not None:
        payload["point"] = str(law.point)
    if law.components:
        payload["components"] = [
            {"step": step, "rate": mp.nstr(_mpf(rate), 15)}
            for step, rate in law.components
        ]
    return payload


def report_json(dist: DistributionTable, law: Optional[LimitLaw] = None) -> str:
    """JSON report of a table, with its law and distance metrics if a law is given."""
    payload = {
        "schema": "fishburn.distribution/1",
        "family": dist.family,
        "stat": dist.stat,
        "entries": dist.entries,
        "n": dist.n,
        "total": str(dist.total),
        "support": list(dist.support),
        "counts": [str(c) for c in dist.counts],
        "pmf": [str(p) for p in dist.pmf],
        "mean": str(dist.mean),
        "variance": str(dist.variance),
    }
    if law is not None:
        payload["law"] = _law_payload(law)
        metrics = compare(dist, law)
        payload["metrics"] = {
            "sup_distance": mp.nstr(metrics.sup_distance, 12),
            "total_variation": mp.nstr(metrics.total_variation, 12),
            "mean_gap": mp.nstr(metrics.mean_gap, 12),
            "variance_gap": mp.nstr(metrics.variance_gap, 12),
        }
    return json.dumps(payload, indent=2)
