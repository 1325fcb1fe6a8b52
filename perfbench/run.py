"""elfdb benchmark: one command runs a workload and prints every metric.

    python3 perfbench/run.py --workload synth-1e5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root.  elfdb is imported from `src/` next to this
directory and nowhere else.  Each workload runs in a fresh child process,
so its peak RSS is its own.  The last line of standard output is one JSON
object: with `--trace 0` its metrics are the end-to-end metrics, with
`--trace 1` the per-layer metrics.  The full record of each run (sample
counts, corpus fingerprint, per-op time accounting, reference timings) is
written to `.bench_out/`, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 175

WORKLOADS = ("synth-1e5", "syslib-audit", "warm-sql")
# Every end-to-end metric the report prints.  error_rate is printed with
# them but travels in the result line's `attempted` and `failed` counts,
# because a metric whose value is 0 has no relative bound.
E2E_UNITS = {
    "setup_s": "s",
    "cold_query_s": "s",
    "export_s": "s",
    "export_bytes_per_input_byte": "ratio",
    "memoized_query_s": "s",
    "cli_query_s": "s",
    "disasm_query_s": "s",
    "warm_query_p50_ms": "ms",
    "warm_query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# The ones the result line carries: all but the warm statements' median.
# That median sits inside a mix of statement classes whose latencies the
# seeded parameters move; it spread by 0.11 to 0.16 over ten seeds, where
# the other times spread by at most 0.08, so it is printed and recorded
# but gates nothing.
GATED = tuple(m for m in E2E_UNITS if m != "warm_query_p50_ms")
# Per-layer metrics every workload produces.  Resolution and the audit,
# histogram and runpath analyses do not run on synth-1e5, so theirs are
# printed and recorded but left out of the result line.
OPTIONAL_LAYER_METRICS = (
    "corpus.resolve_recursive_s",
    "analyses.interposition_audit_s",
    "analyses.symbol_histogram_s",
    "analyses.runpath_s",
)


def bootstrap() -> None:
    """Make `import elfdb` load this checkout's `src/elfdb`, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "elfdb", "__init__.py")):
        sys.exit(f"benchmark: no elfdb sources at {SRC}")
    sys.path.insert(0, SRC)
    import elfdb

    if not os.path.abspath(elfdb.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported elfdb from {elfdb.__file__}, not {SRC}")


def layer_names() -> list[str]:
    from measure import LAYER_METRICS

    return [m for m in LAYER_METRICS if m not in OPTIONAL_LAYER_METRICS] + ["cli.import_s"]


# ---------------------------------------------------------------------------
# Child: one workload in this process.


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Set up `name` several times, measure it, and return the run's record."""
    import functools
    import gc
    import math
    import random
    import resource
    import statistics
    from time import perf_counter

    import measure
    import workloads
    import calibrate
    from spans import Tracer

    # Every table row carries its file's path, so the export's size depends
    # on the path's length: keep it the same in every run of a checkout.
    work_root = os.path.join(WORK_DIR, name)
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work_root)
    state = None
    try:
        clock = calibrate.HostClock()
        setup_times, setup_wall = [], []
        for repeat in range(3):
            if state is not None:
                state.close()
                state = None
                measure.collect()
                shutil.rmtree(work_dir)
            work_dir = os.path.join(work_root, f"setup{repeat}")
            os.makedirs(work_dir)
            rng = random.Random(f"{name}/{seed}")
            watch = calibrate.Stopwatch(clock, force=True, inside=True)
            try:
                state = workloads.SETUPS[name](work_dir, rng, workloads.SCALES[scale], SRC)
            finally:
                setup_wall.append(watch.stop(force=True))
            setup_times.append(watch.host_seconds())
        measure.collect()
        gc.freeze()  # set-up objects are never garbage; keep collections short
        setup_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        tracer = Tracer() if trace else None
        clocks = {
            "cpu": clock,
            "sqlite": calibrate.HostClock(
                calibrate.SqliteProbe(os.path.join(work_root, "probe.sqlite")),
                calibrate.SQLITE_REFERENCE_S,
            ),
            "spawn": calibrate.HostClock(
                functools.partial(calibrate.spawn_probe, state.cli_env),
                calibrate.SPAWN_REFERENCE_S, side=1, every_s=math.inf,
            ),
        }
        samples, errors = measure.run_window(state, measure.SHARES[name], seconds, clocks, tracer)
        ratio = state.export_bytes / state.facts[state.export_input].size
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "scale": scale,
            "setup_s": setup_times,
            "setup_wall_s": setup_wall,
            "attempted": len(samples),
            "failed": sum(not s.ok for s in samples),
            "errors": errors,
            "end_to_end": {
                "setup_s": [statistics.median(setup_times), "s", len(setup_times)],
                **{k: list(v) for k, v in measure.end_to_end(samples).items()},
                "export_bytes_per_input_byte": [ratio, "ratio", 1],
            },
            "wall_end_to_end": {
                "setup_s": [statistics.median(setup_wall), "s", len(setup_wall)],
                **{k: list(v) for k, v in measure.end_to_end(samples, wall=True).items()},
            },
            "probes": {kind: c.summary() for kind, c in clocks.items()},
            "samples": [
                [s.kind, s.seconds, s.host_seconds, len(s.watch.segments), s.traced, s.ok]
                for s in samples
            ],
            "inputs": state.inputs,
            "fingerprint": state.fingerprint,
        }
        if trace:
            ops = measure.per_op(tracer)
            layers = measure.layer_metrics(ops, state.export_bytes)
            layers["cli.import_s"] = (import_cost(state.cli_env), "s", 3)
            record["per_layer"] = {k: list(v) for k, v in layers.items()}
            record["traced_end_to_end"] = {
                k: list(v) for k, v in measure.end_to_end(samples, traced=True).items()
            }
            record["accounting"] = measure.accounting(ops, samples)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl")
            tracer.write(spans_path)
            record["spans"] = os.path.relpath(spans_path, ROOT)
        if name == "synth-1e5":
            record["reference"] = readelf_wc(state.export_input)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["end_to_end"]["peak_rss_mb"] = [peak_mb, "MB", 1]
        record["setup_peak_rss_mb"] = setup_peak_mb
        if record["fingerprint"] is None:
            record["fingerprint"] = fingerprint_child(scale)
        return record
    finally:
        gc.unfreeze()
        if state is not None:
            state.close()
        shutil.rmtree(work_root, ignore_errors=True)


def _child_seconds(argv, env) -> float:
    from time import perf_counter

    t0 = perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def import_cost(env: dict) -> float:
    """Median time of a child `import elfdb` minus that of a bare interpreter."""
    import statistics

    bare, loaded = [], []
    for _ in range(3):
        bare.append(_child_seconds([sys.executable, "-c", "pass"], env))
        loaded.append(_child_seconds([sys.executable, "-c", "import elfdb"], env))
    return statistics.median(loaded) - statistics.median(bare)


def readelf_wc(path: str) -> dict:
    """The paper's third pipeline, `readelf --dyn-syms | wc -l`: context only,
    since no elfdb change can move it."""
    import statistics
    from time import perf_counter

    import oracle

    runs, lines = [], None
    for _ in range(3):
        t0 = perf_counter()
        first = subprocess.Popen([oracle.readelf(), "--dyn-syms", path], stdout=subprocess.PIPE)
        count = subprocess.run(["wc", "-l"], stdin=first.stdout, capture_output=True, text=True)
        first.stdout.close()
        first.wait()
        runs.append(perf_counter() - t0)
        lines = int(count.stdout.split()[0])
    return {"readelf_wc_s": statistics.median(runs), "runs": len(runs), "lines": lines}


def fingerprint_child(scale: str) -> dict:
    """The system corpus fingerprint, computed in a separate process so that
    parsing the core does not count toward this workload's peak RSS."""
    argv = [sys.executable, os.path.abspath(__file__), "--fingerprint", "--scale", scale]
    out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


# ---------------------------------------------------------------------------
# Parent: spawn children, print, write records.


def spawn(args, name: str) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    argv = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, "--child-result", result_path,
    ]
    # Fixed string hashing: the same set and dict layouts, so the same
    # memory use and timing, in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        subprocess.run(argv, env=env, check=True, timeout=CHILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark: workload {name} failed: {exc}")
    with open(result_path) as fh:
        return json.load(fh)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict) -> list[str]:
    name = record["workload"]
    lines = [
        f"== {name}  seed={record['seed']}  seconds={record['seconds']}  trace={record['trace']}"
        f"  (one client, closed loop, no threads)",
        f"{'metric':34} {'value':>12}  {'unit':6} samples",
    ]
    labels = {"setup_s": "set-ups", "peak_rss_mb": "process", "export_bytes_per_input_byte": "export"}
    for metric in E2E_UNITS:
        value, unit, n, *pct = record["end_to_end"][metric]
        what = labels.get(metric, "statements" if metric.startswith("warm") else "ops")
        extra = f" (p{_fmt(pct[0])})" if pct else ""
        lines.append(f"{metric:34} {_fmt(value):>12}  {unit:6} {n} {what}{extra}")
    rate = record["failed"] / record["attempted"]
    lines.append(
        f"{'error_rate':34} {_fmt(rate):>12}  {'ratio':6} {record['failed']} failed / {record['attempted']} ops"
    )
    for error in record["errors"]:
        lines.append(f"  failure: {error}")
    if "reference" in record:
        ref = record["reference"]
        lines.append(
            f"reference: readelf --dyn-syms | wc -l takes {_fmt(ref['readelf_wc_s'])} s "
            f"(median of {ref['runs']}, {ref['lines']} lines); context, not an elfdb metric"
        )
    wall = " ".join(
        f"{k}={_fmt(v[0])}" for k, v in record["wall_end_to_end"].items() if v[1] == "s"
    )
    probes = "; ".join(
        f"{n} {kind} probes (median {_fmt(p['median_s'])} s, reference {p['reference_s']} s)"
        for kind, p in record["probes"].items()
        for n in [p["count"]]
    )
    lines.append(f"times are host seconds, wall times scaled by {probes}; wall medians: {wall}")
    fp = record["fingerprint"]
    size = sum(f[1] for f in fp["files"])
    lines.append(
        f"fingerprint: system corpus {len(fp['files'])} files, {size} bytes, "
        f"python {fp['python']}, sqlite {fp['sqlite']}; inputs {json.dumps(record['inputs'])}"
    )
    if record["trace"]:
        lines.append(f"{'per-layer metric':34} {'value':>12}  {'unit':6} ops")
        for metric, (value, unit, n) in record["per_layer"].items():
            lines.append(f"{metric:34} {_fmt(value):>12}  {unit:6} {n}")
        lines.append("time accounting per op kind (median s): traced = op span; "
                     "untraced from the same run; layers are self times")
        for kind, acc in record["accounting"].items():
            layers = " ".join(f"{k}={_fmt(v)}" for k, v in acc["layers"].items())
            lines.append(
                f"  {kind:9} untraced={_fmt(acc['untraced_s'])} traced={_fmt(acc['traced_s'])} "
                f"overhead={_fmt(acc['overhead_s'])} harness={_fmt(acc['harness_s'])} {layers}"
            )
        lines.append(f"spans: {record['spans']}")
    return lines


def result_line(records: list[dict]) -> dict:
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        if record["trace"]:
            source, names = record["per_layer"], layer_names()
        else:
            source, names = record["end_to_end"], GATED
        for metric in names:
            value, unit = source[metric][:2]
            metrics[prefix + metric] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's self-test")
    parser.add_argument("--child-result", help=argparse.SUPPRESS)
    parser.add_argument("--fingerprint", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bootstrap()

    if args.fingerprint:
        import workloads

        scale = workloads.SCALES[args.scale]
        print(json.dumps(workloads.corpus_fingerprint(workloads.core_closure(scale).paths)))
        return 0
    if args.child_result:
        # One client on one vCPU: the ops, the host-speed probes beside them
        # and the processes the ops start all run on the CPU the probes time.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
        with open(args.child_result, "w") as fh:
            json.dump(record, fh, indent=1)
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [spawn(args, name) for name in names]
    for record in records:
        print("\n".join(report(record)))
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
