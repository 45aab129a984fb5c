"""Benchmark of the sturmdual library, driven in-process.

    python3 perfbench/run.py --workload language|geometry|classify \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
Set-up (importing ``sturmdual`` and building the seeded inputs) is timed
several times and its median reported.  The timed phase then attempts
whole rounds of operations until ``--seconds`` have passed and at least
100 operations are attempted.  Every output is checked afterwards (see
``oracle.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PACKAGE = "sturmdual"
MODULES = ("quadfield", "subst", "words", "invert", "dualmap", "geom", "cli")
SETUP_REPEATS = 5
MIN_OPS = 100  # so that ten latencies lie beyond the 90th percentile
MAX_MESSAGES = 5


def import_library():
    """Import the package afresh, so that each set-up pays for the import."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    package = importlib.import_module(PACKAGE)
    return SimpleNamespace(package=package, **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def setup(workload, seed: int, repeats: int, tracer=None):
    """Import and build the inputs ``repeats`` times; return the last ones and the median time."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        lib = import_library()
        if tracer is not None:
            tracer.install(lib.package)
        items = workload.build(lib, random.Random(seed))
        times.append(perf_counter() - start)
    return lib, items, statistics.median(times)


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def timed_phase(workload, lib, items, seconds: float, min_ops: int, tracer=None):
    """Attempt whole rounds until ``seconds`` have passed and ``min_ops`` are attempted.

    Returns the phase's wall time, the latency of each completed
    operation, and (input index, result or the exception) per attempt.
    """
    span = tracer.span if tracer is not None else _direct
    size = workload.round_size or len(items)
    latencies, results = [], []
    errors = 0
    gc.collect()
    start = perf_counter()
    position = 0
    while True:
        for _ in range(size):
            index = position % len(items)
            position += 1
            if tracer is not None:
                tracer.op_id += 1
            t0 = perf_counter()
            try:
                if tracer is not None:
                    raw = tracer.span("op", workload.run, lib, span, items[index])
                else:
                    raw = workload.run(lib, span, items[index])
            except Exception as exc:  # an operation's failure is counted, and the run goes on
                errors += 1
                if errors <= MAX_MESSAGES:
                    traceback.print_exc(file=sys.stderr)
                results.append((index, exc))
                continue
            latencies.append(perf_counter() - t0)
            results.append((index, raw))
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(results) >= min_ops:
            return elapsed, latencies, results


def check_phase(workload, lib, items, results, seed: int):
    """Check every result; return (failed operations, wrong answers, messages).

    The first result for each input is checked against the oracle; a
    repeat of the same input must equal it, and fails when the first did.
    """
    import oracle  # imports sympy, so only after the peak memory of the timed phase is read

    rng = random.Random(seed ^ 0x5EED)
    done = sorted({i for i, raw in results if not isinstance(raw, Exception) and workload.samplable(items[i])})
    sampled = set(rng.sample(done, min(workload.samples, len(done))))
    first: dict[int, tuple[object, bool]] = {}  # input index -> (first result, whether it passed)
    failed = wrong = 0
    messages = []
    for index, raw in results:
        if isinstance(raw, Exception):
            failed += 1
            continue
        try:
            if index in first:
                previous, passed = first[index]
                oracle.require(raw == previous, f"input {index} gave a different result when repeated")
                oracle.require(passed, f"input {index} failed its check again")
            else:
                first[index] = (raw, False)
                workload.check(oracle, workload.extract(oracle, lib, items[index], raw, index in sampled))
                first[index] = (raw, True)
        except Exception as exc:  # a checker that cannot read an output fails that output
            failed += 1
            wrong += 1
            if len(messages) < MAX_MESSAGES:
                messages.append(f"{workload.name} input {index}: {type(exc).__name__}: {exc}")
    try:
        workload.control(oracle, lib)
    except oracle.CheckError as exc:
        wrong += 1
        messages.append(f"control: {exc}")
    return failed, wrong, messages


def run(name: str, seed: int, seconds: float, trace: bool, workload=None, min_ops: int = MIN_OPS) -> dict:
    """One benchmark run; returns the result object and writes the details to ``OUT``.

    ``workload`` and ``min_ops`` (at least 2) let the tests run a smaller one.
    """
    workload = workload or workloads.WORKLOADS[name]()
    tracer = tracing.Tracer() if trace else None
    lib, items, setup_s = setup(workload, seed, 1 if trace else SETUP_REPEATS, tracer)
    elapsed, latencies, results = timed_phase(workload, lib, items, seconds, min_ops, tracer)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, wrong, messages = check_phase(workload, lib, items, results, seed)
    for message in messages:
        print(message, file=sys.stderr)
    if len(latencies) < 2:
        raise RuntimeError(f"only {len(latencies)} of {len(results)} operations completed; no latencies to report")

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / elapsed, "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    if trace:
        totals = tracer.totals()
        metrics = {
            n: {"value": totals.get(n, 0), "unit": "s" if n.endswith("_s") else "count"}
            for n in tracing.per_layer_names()
        }
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in end_to_end.items()}
    result = {"correct": wrong == 0, "attempted": len(results), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    details = {
        **result,
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "inputs": len(items),
        "elapsed_s": elapsed,
        "end_to_end": {n: v for n, (v, _) in end_to_end.items()},
        "messages": messages,
    }
    if trace:
        tracer.write(OUT / f"{stem}-spans.json")
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
