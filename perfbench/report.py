"""Summarise benchmark runs kept in ``perfbench/out/``.

    python3 perfbench/report.py

For each workload it prints the median and quartile spread of every
end-to-end metric over the untraced runs, the tracing overhead (traced
against untraced medians), and, from the traced runs, each layer's share
of the operations' time: over all operations, over the faster half, and
over the slowest tenth.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def layer_shares(spans_path: Path) -> dict[str, dict[str, float]]:
    """Self time per layer as a share of operation time, for all, fast and slow operations."""
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    latency: dict[int, float] = {}
    for name, start, end, _, op, self_time in trace["spans"]:
        if op == 0:
            continue
        per_op[op][name] += self_time
        if name == "op":
            latency[op] = end - start
    for name, op, _, self_time in trace["aggregates"]:
        if op:
            per_op[op][name] += self_time
    ordered = sorted(latency, key=latency.get)
    groups = {
        "all": ordered,
        "fast half": ordered[: len(ordered) // 2],
        "slowest tenth": ordered[len(ordered) - max(1, len(ordered) // 10) :],
    }
    out = {}
    for group, ops in groups.items():
        total = sum(latency[op] for op in ops)
        sums: dict[str, float] = defaultdict(float)
        for op in ops:
            for name, t in per_op[op].items():
                sums["(outside traced functions)" if name == "op" else name] += t
        out[group] = {name: t / total for name, t in sorted(sums.items(), key=lambda kv: -kv[1])}
    return out


def main() -> None:
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(OUT.glob("*-seed*-trace?.json")):
        d = json.loads(path.read_text(encoding="utf-8"))
        runs[(d["workload"], d["trace"])].append(d)
    for workload in sorted({w for w, _ in runs}):
        untraced, traced = runs.get((workload, 0), []), runs.get((workload, 1), [])
        print(f"== {workload}: {len(untraced)} untraced, {len(traced)} traced runs")
        if len(untraced) >= 2:
            print(f"  {'metric':<14} {'median':>12} {'IQR/median':>11} {'traced/untraced':>16}")
            for metric in untraced[0]["end_to_end"]:
                values = [d["end_to_end"][metric] for d in untraced]
                ratio = ""
                if traced:
                    ratio = f"{statistics.median(d['end_to_end'][metric] for d in traced) / statistics.median(values):.3f}"
                print(f"  {metric:<14} {statistics.median(values):>12.4f} {spread(values):>11.3f} {ratio:>16}")
            failed = sorted({(d["failed"], d["attempted"]) for d in untraced})
            print(f"  failed/attempted: {failed[:4]}{' ...' if len(failed) > 4 else ''}; all correct: "
                  f"{all(d['correct'] for d in untraced)}")
        for d in traced:
            spans = OUT / f"{workload}-seed{d['seed']}-trace1-spans.json"
            if not spans.exists():
                continue
            print(f"  layer shares of operation time, traced seed {d['seed']}:")
            shares = layer_shares(spans)
            for group, table in shares.items():
                top = ", ".join(f"{name} {share:.1%}" for name, share in list(table.items())[:6])
                print(f"    {group}: {top}")


if __name__ == "__main__":
    main()
