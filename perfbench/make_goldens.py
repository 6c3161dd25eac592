"""Regenerate perfbench/goldens.json from the package as it stands.

    PYTHONPATH=src python3 perfbench/make_goldens.py

Runs every call of every workload, for every entry of the custom-multiset
pool, and records what check() compares against.  Only run this at a commit
whose outputs are trusted: the goldens define what the benchmark calls correct.
"""

import json
import sys

import fishburn
import fishburn.cli

import workloads


def main() -> int:
    goldens = {}
    for name in workloads.WORKLOADS:
        for seed in range(len(workloads.LAMBDA_POOL)):
            for call in workloads.calls(name, seed):
                if call.label not in goldens:
                    result = call.run(fishburn)
                    goldens[call.label] = workloads.golden_entry(call, result, fishburn)
                    print(call.label, file=sys.stderr)
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
