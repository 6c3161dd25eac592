"""OEIS cross-validation plumbing: b-files, fixtures, fetcher.

Every sequence this package computes is also carried as an embedded b-file
fixture, so the default (offline) mode never touches the network.  The
network mode exists for checking fixtures against the live OEIS; it always
downloads, keeps nothing on disk, and raises FetchError when FORGE_OFFLINE=1
forbids the network.  ``urllib`` is imported only when a download happens.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from .series import _as_int

_A_NUMBER = re.compile(r"^A\d{6}$")

FETCH_TIMEOUT = 30.0
FETCH_RETRIES = 2  # additional attempts after the first

ENV_OFFLINE = "FORGE_OFFLINE"


class BfileParseError(ValueError):
    """Malformed b-file content (carries a 1-based line number when known)."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class UnknownSequenceError(KeyError):
    """No embedded fixture for the requested A-number."""


class FetchError(RuntimeError):
    """Network-level failure, distinct from any parse problem."""


@dataclass(frozen=True)
class OeisSequence:
    id: str
    offset: int
    values: Tuple[int, ...]
    source: str  # embedded | network

    def __post_init__(self):
        if not _A_NUMBER.match(self.id):
            raise ValueError(f"not an A-number: {self.id!r}")
        if not self.values:
            raise ValueError(f"{self.id}: empty sequence")
        if self.source not in ("embedded", "network"):
            raise ValueError(f"unknown source {self.source!r}")

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


def parse_bfile(text: str, id: str = "A000000", source: str = "embedded") -> OeisSequence:
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
    return OeisSequence(id, lo, tuple(seen[n] for n in range(lo, hi + 1)), source)


def format_bfile(seq: OeisSequence, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines += [f"{seq.offset + i} {v}" for i, v in enumerate(seq.values)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fixture and network backends
# ---------------------------------------------------------------------------

def _fixture_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def fixture_ids() -> Tuple[str, ...]:
    return tuple(sorted(p.stem for p in _fixture_dir().glob("A*.txt")))


def _read_fixture(id: str) -> OeisSequence:
    path = _fixture_dir() / f"{id}.txt"
    if not path.is_file():
        raise UnknownSequenceError(f"no embedded fixture for {id}")
    return parse_bfile(path.read_text(), id, "embedded")


def network_allowed() -> bool:
    return os.environ.get(ENV_OFFLINE, "") != "1"


def _bfile_url(id: str) -> str:
    return f"https://oeis.org/{id}/b{id[1:]}.txt"


def _default_transport(url: str) -> str:
    import urllib.error
    import urllib.request

    last: Optional[Exception] = None
    for _ in range(1 + FETCH_RETRIES):
        try:
            with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            last = exc
    raise FetchError(f"GET {url} failed after {1 + FETCH_RETRIES} attempts: {last}")


def fetch(
    id: str,
    mode: str = "offline",
    transport: Optional[Callable[[str], str]] = None,
) -> OeisSequence:
    """Look up a sequence.

    offline: the embedded fixture; never touches the network.
    network: download the live b-file through `transport` (urllib by
             default); raises FetchError when FORGE_OFFLINE=1 forbids it.
    """
    if not _A_NUMBER.match(id):
        raise ValueError(f"not an A-number: {id!r}")
    if mode not in ("offline", "network"):
        raise ValueError(f"unknown fetch mode {mode!r}")
    if mode == "offline":
        return _read_fixture(id)
    if not network_allowed():
        raise FetchError(f"network fetch of {id} forbidden ({ENV_OFFLINE}=1)")
    text = (transport or _default_transport)(_bfile_url(id))
    return parse_bfile(text, id, "network")


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
