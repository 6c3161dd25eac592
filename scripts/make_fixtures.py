#!/usr/bin/env python3
"""Regenerate the embedded OEIS b-file fixtures from the defining series.

Usage:
    python3 scripts/make_fixtures.py [--terms N]

The fixtures are computed from this package's own series, not downloaded,
and each file records that provenance: they are a regression snapshot of the
series builders, not independent evidence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from fishburn.families import NAMED_IDS, named_entry, named_sequence  # noqa: E402
from fishburn.oeis import OeisSequence, format_bfile  # noqa: E402

DEFAULT_TERMS = 24
TRIANGLES = {"A175579": 36, "A182319": 36}  # 8 full rows


def build(id: str, terms: int) -> OeisSequence:
    count = TRIANGLES.get(id, terms)
    entry = named_entry(id)
    return OeisSequence(id, entry.offset, tuple(named_sequence(id, count)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    args = ap.parse_args(argv)

    outdir = REPO / "src" / "fishburn" / "fixtures"
    for id in NAMED_IDS:
        seq = build(id, args.terms)
        note = named_entry(id).note or "defining series"
        comments = [
            f"{id} ({note})",
            "generated by scripts/make_fixtures.py from the package's own series;",
            "regenerate after any change to the series builders.",
        ]
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{id}.txt").write_text(format_bfile(seq, comments))
        print(f"wrote {id}: {len(seq)} terms from offset {seq.offset}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
