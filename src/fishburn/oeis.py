"""OEIS plumbing: b-file parsing and formatting, embedded fixtures, cross-checks.

Every catalogued sequence is carried as an embedded b-file fixture, written
by ``scripts/make_fixtures.py`` from this package's own series, so the
fixtures are a regression snapshot of those series, not independent
evidence.  Nothing here touches the network.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .series import _as_int

_A_NUMBER = re.compile(r"^A\d{6}$")


class BfileParseError(ValueError):
    """Malformed b-file content (carries a 1-based line number when known)."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class UnknownSequenceError(KeyError):
    """No embedded fixture for the requested A-number."""


@dataclass(frozen=True)
class OeisSequence:
    id: str
    offset: int
    values: Tuple[int, ...]

    def __post_init__(self):
        if not _A_NUMBER.match(self.id):
            raise ValueError(f"not an A-number: {self.id!r}")
        if not self.values:
            raise ValueError(f"{self.id}: empty sequence")

    @property
    def terms(self) -> Dict[int, int]:
        """Index -> value map (indices contiguous from the offset)."""
        return {self.offset + i: v for i, v in enumerate(self.values)}

    @property
    def last_index(self) -> int:
        return self.offset + len(self.values) - 1

    def term(self, n: int) -> int:
        if not self.offset <= n <= self.last_index:
            raise IndexError(f"{self.id} has no term at index {n}")
        return self.values[n - self.offset]

    def __len__(self) -> int:
        return len(self.values)


def parse_bfile(text: str, id: str = "A000000") -> OeisSequence:
    """Parse OEIS b-file content: one "n a(n)" pair per line, '#' comments."""
    seen: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BfileParseError(
                f"expected 'n a(n)', got {len(parts)} tokens: {line!r}", lineno
            )
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BfileParseError(f"non-integer token in {line!r}", lineno)
        if n in seen:
            raise BfileParseError(f"duplicate index {n}", lineno)
        seen[n] = value
    if not seen:
        raise BfileParseError("no data lines (empty sequence)")
    lo, hi = min(seen), max(seen)
    if len(seen) != hi - lo + 1:
        missing = next(n for n in range(lo, hi + 1) if n not in seen)
        raise BfileParseError(f"non-contiguous indices: {missing} missing")
    return OeisSequence(id, lo, tuple(seen[n] for n in range(lo, hi + 1)))


def format_bfile(seq: OeisSequence, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines += [f"{seq.offset + i} {v}" for i, v in enumerate(seq.values)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Embedded fixtures
# ---------------------------------------------------------------------------

def _fixture_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def fixture_ids() -> Tuple[str, ...]:
    return tuple(sorted(p.stem for p in _fixture_dir().glob("A*.txt")))


def fetch(id: str) -> OeisSequence:
    """The embedded fixture of an A-number: ValueError for a malformed id,
    UnknownSequenceError when no fixture is stored."""
    if not _A_NUMBER.match(id):
        raise ValueError(f"not an A-number: {id!r}")
    path = _fixture_dir() / f"{id}.txt"
    if not path.is_file():
        raise UnknownSequenceError(f"no embedded fixture for {id}")
    return parse_bfile(path.read_text(), id)


# ---------------------------------------------------------------------------
# Cross-checking computed terms against a sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossCheckReport:
    id: str
    start: int
    end: int  # inclusive
    ok: bool
    first_mismatch: Optional[int] = None
    computed_value: Optional[int] = None
    expected_value: Optional[int] = None

    def __str__(self):
        if self.ok:
            return f"{self.id}: match on {self.start}..{self.end}"
        return (
            f"{self.id}: mismatch at {self.first_mismatch} "
            f"(computed {self.computed_value}, expected {self.expected_value})"
        )


def cross_check(
    computed: Sequence,
    seq: OeisSequence,
    start: int = 0,
) -> CrossCheckReport:
    """Compare computed[i] (index start+i) against the sequence terms."""
    lo = max(start, seq.offset)
    hi = min(start + len(computed) - 1, seq.last_index)
    if lo > hi:
        raise ValueError(
            f"no overlap: computed covers {start}..{start + len(computed) - 1}, "
            f"{seq.id} covers {seq.offset}..{seq.last_index}"
        )
    for n in range(lo, hi + 1):
        got = _as_int(computed[n - start], f"computed term at {n}")
        want = seq.term(n)
        if got != want:
            return CrossCheckReport(seq.id, lo, hi, False, n, got, want)
    return CrossCheckReport(seq.id, lo, hi, True)
