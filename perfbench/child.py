"""One pass of a workload in a fresh interpreter; started by run.py.

    python3 child.py SPAWN_TIME SPAWN_PROBE [WORKLOAD SEED TRACE [SPANS_PATH]]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process and SPAWN_PROBE the probe time it measured just before that.
``setup_s`` runs from process start to ``import fishburn`` done: the start of
the interpreter is corrected for the machine's speed by SPAWN_PROBE, and the
import by a sampler (probe.py) as the call list is.  Prints one JSON object
with the pass's timings, checks and counters, or, given no workload, with the
set-up times only.
"""

import sys
import time

STARTED = time.monotonic()

import probe  # noqa: E402  (standard library only)

_sampler = probe.Sampler()
_sampler.start()
import fishburn  # noqa: E402
import fishburn.cli  # noqa: E402

_sampler.stop()
_spawn, _spawn_probe = float(sys.argv[1]), float(sys.argv[2])
SETUP_RAW_S = STARTED - _spawn + _sampler.raw_s
SETUP_S = probe.corrected(STARTED - _spawn, _spawn_probe) + _sampler.corrected_s

import json  # noqa: E402  (the package import above is what setup_s times)
import resource  # noqa: E402

import mpmath  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, cache_metrics  # noqa: E402


def main(workload: str, seed: int, trace: bool, spans_path) -> dict:
    with open(workloads.GOLDENS_PATH, encoding="utf-8") as handle:
        goldens = json.load(handle)
    sampler = probe.Sampler()
    tracer = Tracer(sampler.clock) if trace else None
    if tracer:
        tracer.install()
    call_list = workloads.calls(workload, seed)
    results = []
    sampler.start()
    for call in call_list:
        try:
            results.append((call.run(fishburn), None))
        except Exception as exc:  # a failed call is counted, not fatal
            results.append((None, f"{type(exc).__name__}: {exc}"))
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, rel_errs = [], [0.0]
    for call, (result, error) in zip(call_list, results):
        if error is None:
            golden = goldens.get(call.label)
            if golden is None:
                rel, error = None, "no golden for this call"
            else:
                try:
                    _, rel, error = workloads.check(call, result, golden)
                except (KeyError, ValueError) as exc:  # unparsable output
                    rel, error = None, f"{type(exc).__name__}: {exc}"
            if rel is not None:
                rel_errs.append(rel)
        if error:
            failures.append({"call": call.label, "reason": error})

    layers = {}
    if tracer:
        layers = tracer.metrics()
        done = [(call, result) for call, (result, error) in zip(call_list, results)
                if error is None]
        layers["series.coeff_bits_max"] = max(
            (workloads.coeff_bits(call, result) for call, result in done), default=0)
        layers["cli.output_bytes"] = sum(
            len(result[1].encode()) for call, result in done if call.func == "cli")
        if spans_path:
            tracer.write(spans_path)
    layers.update(cache_metrics(fishburn))
    layers["saddle.an_approx.max_rel_err"] = max(rel_errs)
    return {
        "setup_s": SETUP_S,
        "setup_raw_s": SETUP_RAW_S,
        "wall_s": sampler.corrected_s,
        "wall_raw_s": sampler.raw_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(call_list),
        "failures": failures,
        "layers": layers,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


if __name__ == "__main__":
    if len(sys.argv) == 3:
        print(json.dumps({"setup_s": SETUP_S, "setup_raw_s": SETUP_RAW_S}))
    else:
        _, _, _, name, seed_text, trace_text, *rest = sys.argv
        print(json.dumps(main(name, int(seed_text), trace_text == "1",
                              rest[0] if rest else None)))
