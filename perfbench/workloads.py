"""The four benchmark workloads: their call lists and the checks on their outputs.

Each workload is a fixed list of calls made one after another by a single
caller.  The seed only picks the custom entry multiset used by ``counts`` and
``moments`` from ``LAMBDA_POOL``; every pool entry has committed goldens.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

WORKLOADS = ("counts", "profiles", "moments", "saddle")

# Custom multisets whose `enumerate --n-max 200` and `first_row` jet at 50
# cost about the same, so that the seed changes the inputs but not the load.
LAMBDA_POOL = ("1,1", "1,1,1", "1,0,1", "1,1,1,1", "1,2,1")

# Relative tolerance on a saddle approximation against the exact a_n.  The
# error is about 6e-3 for the sizes used here; the slack leaves room for a
# more accurate approximation without counting it as a failure.
REL_TOL = 0.02

# Library functions called by the workloads, with the position of the
# entry-multiset argument (passed as text and parsed at call time).
_LAMBDA_ARG = {"distribution": 2, "stat_mean_variance": 2, "an_approx": None}


@dataclass(frozen=True)
class Call:
    """One call of a workload: the CLI in-process, or a library function."""

    func: str  # "cli" or a function of the fishburn package
    args: tuple

    @property
    def label(self) -> str:
        if self.func == "cli":
            return "fishburn " + " ".join(self.args)
        return f"{self.func}({', '.join(map(str, self.args))})"

    @property
    def approximate(self) -> bool:
        """True when the output is a saddle approximation checked by tolerance."""
        return self.func == "an_approx" or (self.func == "cli" and self.args[0] == "saddle")

    @property
    def size(self) -> int:
        """The n of a saddle approximation."""
        return int(self.args[-1])

    def run(self, fishburn):
        """Make the call against the (possibly traced) package namespace."""
        if self.func == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = fishburn.cli.main(list(self.args))
            return rc, buf.getvalue()
        args = list(self.args)
        pos = _LAMBDA_ARG[self.func]
        if pos is not None:
            args[pos] = fishburn.LambdaSpec.parse(args[pos])
        return getattr(fishburn, self.func)(*args)


def _cli(*argv) -> Call:
    return Call("cli", tuple(str(a) for a in argv))


def custom_lambda(seed: int) -> str:
    return LAMBDA_POOL[seed % len(LAMBDA_POOL)]


def calls(workload: str, seed: int) -> list:
    """The call list of a workload; every call after the first runs on the
    caches the earlier calls of the same run filled."""
    lam = custom_lambda(seed)
    if workload == "counts":
        return [
            _cli("enumerate", "--family", "fishburn", "--lambda", "all", "--n-max", 250),
            _cli("enumerate", "--family", "row-fishburn", "--lambda", "all", "--n-max", 200),
            _cli("enumerate", "--family", "self-dual", "--lambda", "all", "--n-max", 250),
            _cli("enumerate", "--family", "fishburn", "--lambda", lam, "--n-max", 200),
            # Reuses the cached order-250 series.
            _cli("converge", "--family", "fishburn", "--n-list", "100,150,200,250"),
        ]
    if workload == "profiles":
        return [
            _cli("distribution", "--family", "fishburn", "--stat", "first_row", "--n", 60),
            _cli("distribution", "--family", "fishburn", "--stat", "diagonal", "--n", 30),
            _cli("distribution", "--family", "row-fishburn", "--stat", "ones", "--n", 30),
            _cli("distribution", "--family", "self-dual", "--stat", "diagonal", "--n", 60),
            # Reuses the cached order-60 first_row profile.
            Call("distribution", ("fishburn", "first_row", "all", 50)),
        ]
    if workload == "moments":
        return [
            Call("stat_mean_variance", ("fishburn", "first_row", "all", 100)),
            Call("stat_mean_variance", ("row-fishburn", "diagonal", "all", 50)),
            Call("stat_mean_variance", ("self-dual", "diagonal", "all", 100)),
            Call("stat_mean_variance", ("fishburn", "first_row", lam, 50)),
            # Reuses the cached order-100 jet.
            Call("stat_mean_variance", ("fishburn", "first_row", "all", 90)),
        ]
    if workload == "saddle":
        return [
            _cli("saddle", "--n", 120),
            _cli("saddle", "--n", 80),
            Call("an_approx", (100,)),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _saddle_lines(text: str) -> tuple:
    """The exact part of `fishburn saddle` output, and its approximation."""
    lines = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return f"n = {lines['n']}\na_n = {lines['a_n']}", Fraction(lines["an_approx"])


def _exact_digest(call: Call, result) -> str:
    """Digest of the part of an output that must never change."""
    if call.func == "cli":
        rc, text = result
        if call.approximate:
            text = _saddle_lines(text)[0]
        return _sha(f"{rc}\n{text}")
    if call.func == "distribution":
        t = result
        return _sha(repr((t.support, t.counts, t.total, t.mean, t.variance)))
    if call.func == "stat_mean_variance":
        return _sha(repr(tuple(result)))
    return ""  # an_approx is checked by tolerance only


def _approx_value(call: Call, result) -> Fraction:
    if call.func == "cli":
        return _saddle_lines(result[1])[1]
    return Fraction(str(result))


def golden_entry(call: Call, result, fishburn) -> dict:
    """The golden recorded for a call from its output at a trusted commit."""
    entry = {"sha256": _exact_digest(call, result)}
    if call.approximate:
        # n! * a_n, an integer; a_n itself is its quotient by n!.
        entry["exact_n_factorial_a_n"] = str(fishburn.labeled_numbers(call.size)[call.size])
    return entry


def check(call: Call, result, golden: dict) -> tuple:
    """(ok, relative error or None, reason) of one output against its golden."""
    if call.func == "cli" and result[0] != 0:
        return False, None, f"exit code {result[0]}"
    if _exact_digest(call, result) != golden["sha256"]:
        return False, None, "output differs from the golden"
    if not call.approximate:
        return True, None, ""
    n = call.size
    exact = Fraction(int(golden["exact_n_factorial_a_n"]), factorial(n))
    rel = abs(float(_approx_value(call, result) / exact - 1))
    if rel > REL_TOL:
        return False, rel, f"relative error {rel:.3g} above {REL_TOL}"
    return True, rel, ""


def coeff_bits(call: Call, result) -> int:
    """Largest bit length of an integer in a call's output."""
    if call.func == "cli":
        return max((int(t).bit_length() for t in re.findall(r"\d+", result[1])), default=0)
    if call.func == "distribution":
        values = [*result.counts, result.total, result.mean.numerator,
                  result.mean.denominator, result.variance.numerator,
                  result.variance.denominator]
    elif call.func == "stat_mean_variance":
        values = [q for f in result for q in (f.numerator, f.denominator)]
    else:
        return 0
    return max(abs(v).bit_length() for v in values)
