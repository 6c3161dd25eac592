"""Benchmark of the fishburn package: four golden-checked workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload counts --seed 1 --seconds 25 --trace 0

Workloads (call lists in workloads.py): ``counts`` (exact univariate counts),
``profiles`` (full statistic distributions), ``moments`` (mean and variance
from moment jets) and ``saddle`` (saddle-point approximations).

A pass runs one workload's call list in a fresh interpreter, single-threaded,
with ``src`` on PYTHONPATH; calls within a pass share the package caches and
passes share nothing.  Passes repeat, one at a time, until ``--seconds`` are
spent (at least three); without tracing, each is followed by two starts that
only import the package, for more ``setup_s`` samples.  Every output is checked against perfbench/goldens.json;
a call that raises, differs from its golden or misses its tolerance is counted
in ``failed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians over
the passes: ``wall_s`` (first call to last return), ``setup_s`` (process start
to ``import fishburn`` done) and ``peak_rss_mb`` (``ru_maxrss`` at the last
return).  Both times are corrected for the speed of the shared machine at the
moment they were taken (probe.py); the raw times are in the details line.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (tracer.py), plus ``trace.overhead_s``, the
difference of the median wall times.  perfbench/interactions.json says which
end-to-end metric each layer metric should move, on which workload.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it, also written under .bench_results/, holds
the per-pass figures, quartiles, failures and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
MIN_PASSES = 3
SETUP_ONLY = 2
# A run, set-up included, ends within 180 s; a pass still running then is killed.
DEADLINE = time.monotonic() + 170

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
import workloads  # noqa: E402


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _spawn(*args) -> dict:
    """Run child.py in a fresh interpreter; raises if it breaks."""
    before = probe.median_probe()
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), repr(spawn), repr(before), *args],
        env=_child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=DEADLINE - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, spans_path):
    """Repeat passes until `seconds` are spent; returns (untraced, traced, setups)."""
    # Compile the package's bytecode once, so that no timed pass pays for it.
    subprocess.run([sys.executable, "-c", "import fishburn.cli"], env=_child_env(),
                   cwd=ROOT, stdin=subprocess.DEVNULL, check=True,
                   timeout=DEADLINE - time.monotonic())
    untraced, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        untraced.append(_spawn(workload, str(seed), "0"))
        setups.append(untraced[-1])
        if not trace:
            setups.extend(_spawn() for _ in range(SETUP_ONLY))
        if trace:
            traced.append(_spawn(workload, str(seed), "1", str(spans_path)))
        elapsed = time.monotonic() - start
        rounds = len(untraced)
        if rounds >= MIN_PASSES and elapsed * (rounds + 1) / rounds > seconds:
            return untraced, traced, setups


def _spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fishburn").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, backend: str) -> dict:
    return {
        "python": platform.python_version(),
        "mpmath_backend": backend,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload,
        "seed": seed,
        "custom_lambda": workloads.custom_lambda(seed),
    }


def summarize(untraced, traced, setups) -> dict:
    """Medians (and quartiles) of every figure over the passes."""
    e2e = {key: _spread([p[key] for p in untraced])
           for key in ("wall_s", "peak_rss_mb", "wall_raw_s")}
    e2e.update((key, _spread([p[key] for p in setups])) for key in ("setup_s", "setup_raw_s"))
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(p["layers"][key] for p in traced)
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - e2e["wall_s"]["median"])
    max_rel_err = max(p["layers"]["saddle.an_approx.max_rel_err"] for p in untraced + traced)
    return {"end_to_end": e2e, "layers": layers, "max_rel_err": max_rel_err}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fishburn" / "__init__.py").is_file():
        print(f"error: no fishburn package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"{stem}.spans.json" if args.trace else None
    try:
        untraced, traced, setups = measure(args.workload, args.seed, args.seconds,
                                           bool(args.trace), spans_path)
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    summary = summarize(untraced, traced, setups)
    if args.trace:
        wanted, values = spec["per_layer"], summary["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {k: v["median"] for k, v in summary["end_to_end"].items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details = {
        "schema": "perfbench.details/1",
        "environment": environment(args.workload, args.seed, passes[0]["mpmath_backend"]),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]],
        **summary,
    }
    text = json.dumps(details, sort_keys=True)
    (RESULTS / f"{stem}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
