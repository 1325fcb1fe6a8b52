"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE.json... --against CHANGE.json...

The records are the JSON files `run.py` writes to `.bench_out/`.  Records
whose corpus fingerprints (system-library file list, sizes and hashes,
Python and SQLite versions) differ are refused: their numbers measure
different inputs.  For each end-to-end metric the medians of the two sets
are compared with the bound BENCHMARK.json fixes; a metric whose base
spread exceeds its bound is reported as unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base, change, spec) -> list[str]:
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + change}
    if len(fingerprints) != 1:
        raise ValueError("refusing to compare results with different corpus fingerprints")
    if len({r["scale"] for r in base + change}) != 1:
        raise ValueError("refusing to compare results of different scales")
    lines = []
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in sorted({r["workload"] for r in base}):
        lines.append(f"== {workload}")
        for metric in bounds:
            old = [r["end_to_end"][metric][0] for r in base if r["workload"] == workload]
            new = [r["end_to_end"][metric][0] for r in change if r["workload"] == workload]
            if not old or not new:
                continue
            m_old, m_new = statistics.median(old), statistics.median(new)
            worse = (m_new - m_old) / m_old if better[metric] == "lower" else (m_old - m_new) / m_old
            if spread(old) > bounds[metric]:
                verdict = "unresolved (base spread above bound)"
            elif worse > bounds[metric]:
                verdict = "WORSE beyond bound"
            else:
                verdict = "within bound"
            lines.append(
                f"  {metric:30} {m_old:.6g} -> {m_new:.6g}  worse by {worse:+.3f} "
                f"(bound {bounds[metric]}, base spread {spread(old):.3f}, n={len(old)}/{len(new)})  {verdict}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base = [r for r in load(args.base) if not r["trace"]]
    change = [r for r in load(args.against) if not r["trace"]]
    try:
        print("\n".join(compare(base, change, spec)))
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
