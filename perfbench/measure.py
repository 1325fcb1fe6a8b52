"""Closed-loop scheduler and the metrics computed from its samples.

One client, one op at a time: the next op starts when the previous one has
returned.  Each op kind gets a share of the run's seconds; the kind that is
furthest below its share goes next, and every kind is run at least
MIN_SAMPLES times even if that overruns the window.
"""

from __future__ import annotations

import ctypes
import gc
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from calibrate import HostClock, Stopwatch
from spans import Tracer, self_times
from workloads import OPS, State

KINDS = ("cold", "export", "memoized", "cli", "disasm", "warm")
MIN_SAMPLES = {"cold": 4, "export": 6, "memoized": 10, "cli": 10, "disasm": 10, "warm": 100}
# At most 999 warm statements: with 100 to 999 samples the tail percentile
# is always p90, so a faster engine cannot switch the metric to p99.
MAX_SAMPLES = {"memoized": 200, "warm": 999}
SHARES = {
    "synth-1e5": {"cold": 0.35, "export": 0.45, "memoized": 0.05, "cli": 0.05, "disasm": 0.05, "warm": 0.05},
    "syslib-audit": {"cold": 0.62, "export": 0.15, "memoized": 0.03, "cli": 0.05, "disasm": 0.09, "warm": 0.06},
    "warm-sql": {"cold": 0.1, "export": 0.1, "memoized": 0.05, "cli": 0.05, "disasm": 0.1, "warm": 0.6},
}
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
# Kinds that allocate enough to start each op from a collected heap, and
# that run long enough to get host-speed probes of their own, around them
# and inside them.
HEAVY = ("cold", "export", "disasm")
# The probe each kind is scaled by, when not the cpu probe (see calibrate.py).
PROBED_BY = {"cli": "spawn", "memoized": "sqlite", "warm": "sqlite"}
# Ops that leave elfdb's process get a span of their own in the traced run.
HARNESS_SPANS = {"cli": "cli.process", "memoized": "sqlite3.stock_query"}


def collect() -> None:
    """Collect Python garbage, then hand the C heap's free pages back to
    the system where glibc allows it, so that what one op left behind in
    the heap does not raise the next op's peak RSS: without it, the peak
    grows with the number of heavy ops the window happens to fit."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


@dataclass
class Sample:
    kind: str
    seconds: float  # wall time
    ok: bool
    traced: bool
    watch: Stopwatch
    host_seconds: float = 0.0  # set when the run's last probe is taken


def _no_split() -> None:
    pass


def run_window(
    state: State,
    shares: dict,
    seconds: float,
    clocks: dict[str, HostClock],
    tracer: Optional[Tracer] = None,
):
    """Run ops until `seconds` have passed and every kind has its minimum.

    `clocks` probe the host's speed beside the ops, each op kind with the
    clock PROBED_BY names, and each sample's host seconds come from the
    probes around it.  Untraced ops may probe
    between their calls into elfdb; traced ops do not, so that their spans
    hold elfdb's time only.  With a tracer, each kind
    alternates untraced and traced ops, so one run yields both the
    untraced times and the spans.  Returns the samples and the first few
    failure messages.
    """
    modes = (False, True) if tracer is not None else (False,)
    counts = defaultdict(int)
    spent = dict.fromkeys(KINDS, 0.0)
    samples: list[Sample] = []
    errors: list[str] = []
    start = perf_counter()
    deadline = start + seconds
    while True:
        late = perf_counter() >= deadline
        progress = (perf_counter() - start) / seconds

        def wanted(kind, traced):
            n = counts[(kind, traced)]
            if late:  # a traced run splits the minimum between its two modes
                return n < math.ceil(MIN_SAMPLES[kind] / len(modes))
            # Capped kinds are paced over the whole window, so that their
            # median spans the host's swings in speed instead of one burst.
            return n < MAX_SAMPLES.get(kind, math.inf) * max(progress, 0.02)

        choices = [(k, m) for k in KINDS for m in modes if wanted(k, m)]
        if not choices:
            for clock in clocks.values():
                if clock.probes:
                    clock.tick(force=True)
            for sample in samples:
                sample.host_seconds = sample.watch.host_seconds()
            return samples, errors
        kind, traced = min(
            choices, key=lambda c: (spent[c[0]] / shares[c[0]], counts[c], KINDS.index(c[0]))
        )
        run, check = OPS[kind]
        if kind in HEAVY:
            collect()
        if traced:
            tracer.install()
        clock = clocks[PROBED_BY.get(kind, "cpu")]
        # A clock that never probes on its own probes around every op.
        force = kind in HEAVY or clock.every_s == math.inf
        watch = Stopwatch(clock, force, inside=kind in HEAVY and not traced)
        split = _no_split if traced else watch.split
        try:
            try:
                if traced:
                    with tracer.op_span(kind) as root:
                        if kind in HARNESS_SPANS:
                            with tracer.span(HARNESS_SPANS[kind]):
                                answer = run(state, split)
                        else:
                            answer = run(state, split)
                else:
                    answer = run(state, split)
            finally:
                elapsed = watch.stop(force)
            if traced and kind == "warm":
                root.attrs["class"] = answer[0].cls
            problem = check(state, answer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problem = f"{kind}: {type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.uninstall()
        counts[(kind, traced)] += 1
        spent[kind] += elapsed
        samples.append(Sample(kind, elapsed, problem is None, traced, watch))
        if problem is not None and len(errors) < 10:
            errors.append(problem)


def times(samples, kind, traced=False, wall=False) -> list[float]:
    """Host seconds (or wall seconds) of successful ops of one kind, or of
    all of them if none succeeded."""
    chosen = [s for s in samples if s.kind == kind and s.traced == traced]
    good = [s for s in chosen if s.ok] or chosen
    return [s.seconds if wall else s.host_seconds for s in good]


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest percentile on the ladder with at least 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct
    return 50.0


def end_to_end(samples, traced=False, wall=False) -> dict:
    """Op-time metrics as {name: (value, unit, sample count)}, in host
    seconds unless `wall`."""
    out = {}
    for name, kind in (
        ("cold_query_s", "cold"),
        ("export_s", "export"),
        ("memoized_query_s", "memoized"),
        ("cli_query_s", "cli"),
        ("disasm_query_s", "disasm"),
    ):
        values = times(samples, kind, traced, wall)
        out[name] = (statistics.median(values), "s", len(values))
    warm = times(samples, "warm", traced, wall)
    pct = tail_percentile(len(warm))
    out["warm_query_p50_ms"] = (statistics.median(warm) * 1000, "ms", len(warm))
    out["warm_query_tail_ms"] = (nearest_rank(warm, pct) * 1000, "ms", len(warm), pct)
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of traced ops.

TABLES = ("symbols", "strings", "sections", "dynamic_entries", "instructions")
STATEMENT_CLASSES = ("point", "scan", "group", "join")

# name -> (op kind, value key in op_values, unit)
LAYER_METRICS = {
    "corpus.add_paths_s": ("cold", "busy:corpus.add_paths", "s"),
    "corpus.resolve_recursive_s": ("cold", "busy:corpus.resolve_recursive", "s"),
    "corpus.files": ("cold", "n:reader.open_elf", "count"),
    "corpus.bytes_read": ("cold", "bytes_read", "bytes"),
    "reader.open_elf_s": ("cold", "busy:reader.open_elf", "s"),
    "reader.symbols": ("cold", "symbols", "count"),
    **{f"model.derive_s.{t}": ("export", f"busy:model.{t}", "s") for t in TABLES},
    **{f"model.rows.{t}": ("export", f"calls:model.{t}", "count") for t in TABLES},
    "demangle.calls": ("cold", "calls:demangle", "count"),
    "demangle.s": ("cold", "busy:demangle", "s"),
    "demangle.distinct_ratio": ("cold", "demangle.distinct_ratio", "ratio"),
    "disasm.decode_s": ("disasm", "busy:disasm.decode", "s"),
    "disasm.rows": ("disasm", "calls:disasm.decode", "count"),
    "disasm.bad_ratio": ("disasm", "disasm.bad_ratio", "ratio"),
    **{f"engine.insert_s.{t}": ("export", f"insert:{t}", "s") for t in TABLES},
    "engine.tables_materialized": ("cold", "tables_materialized", "count"),
    **{f"engine.execute_s.{c}": (f"warm.{c}", "busy:engine.execute", "s") for c in STATEMENT_CLASSES},
    "engine.export_write_s": ("export", "self:engine.export_database", "s"),
    "engine.export_bytes": ("export", "export_bytes", "bytes"),
    "analyses.count_symbols_s": ("cold", "busy:analyses.count_symbols", "s"),
    "analyses.interposition_audit_s": ("cold", "busy:analyses.interposition_audit", "s"),
    "analyses.symbol_histogram_s": ("cold", "busy:analyses.symbol_histogram", "s"),
    "analyses.runpath_s": ("cold", "busy:analyses.runpath", "s"),
    "cli.process_s": ("cli", "busy:cli.process", "s"),
}


def op_values(spans, own) -> dict:
    """Sums over the spans of one op, keyed as LAYER_METRICS expects."""
    v = defaultdict(float)
    producer_parents = {s.parent for s in spans if s.name.startswith("model.")}
    names = set()
    bad = 0
    for s in spans:
        v["n:" + s.name] += 1
        v["busy:" + s.name] += s.busy
        v["self:" + s.name] += own[s.id]
        v["calls:" + s.name] += s.calls
        if s.name == "reader.open_elf":
            v["bytes_read"] += s.attrs["bytes"]
            v["symbols"] += s.attrs["symbols"]
        elif s.name == "engine.materialize":
            v["insert:" + s.attrs["table"].removeprefix("elf_")] += own[s.id]
            v["tables_materialized"] += s.id in producer_parents
        elif s.name == "demangle":
            names |= s.attrs.get("names", set())
        elif s.name == "disasm.decode":
            bad += s.attrs.get("bad", 0)
    if v["calls:demangle"]:
        v["demangle.distinct_ratio"] = len(names) / v["calls:demangle"]
    if v["calls:disasm.decode"]:
        v["disasm.bad_ratio"] = bad / v["calls:disasm.decode"]
    return v


def per_op(tracer: Tracer) -> list[tuple[str, dict, object]]:
    """(op kind, values, root span) for every traced op."""
    own = self_times(tracer.spans)
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    out = []
    for op_id, spans in by_op.items():
        if op_id is None:
            continue
        root = tracer.spans[op_id]
        kind = root.name.removeprefix("op.")
        if kind == "warm":  # a statement that raised has no class
            kind = "warm." + root.attrs.get("class", "failed")
        out.append((kind, op_values(spans, own), root))
    return out


def layer_metrics(ops, export_bytes: int) -> dict:
    """{name: (median over ops of its kind, unit, ops)}; absent layers are left out."""
    by_kind = defaultdict(list)
    for kind, values, _root in ops:
        by_kind[kind].append(values)
        if kind.startswith("warm."):
            by_kind["warm"].append(values)
    out = {}
    for name, (kind, key, unit) in LAYER_METRICS.items():
        present = [v[key] for v in by_kind[kind] if key in v]
        if key == "export_bytes":
            present = [export_bytes] if by_kind[kind] else []
        if present:
            out[name] = (statistics.median(present), unit, len(present))
    return out


def accounting(ops, samples) -> dict:
    """Per op kind: where the traced time went, and what tracing cost.

    All in wall seconds, as the spans are.  `layers` is the median self
    time of each layer's spans inside one op;
    `harness` is the op span's own self time (the benchmark's code between
    calls into elfdb).  Their sum is the traced op time by construction;
    `overhead_s` is the traced minus the untraced median op time.
    """
    out = {}
    kinds = sorted({k.split(".")[0] for k, _v, _r in ops})
    for kind in kinds:
        chosen = [(v, r) for k, v, r in ops if k.split(".")[0] == kind]
        layer_self = defaultdict(list)
        for values, _root in chosen:
            per_layer = defaultdict(float)
            for key, value in values.items():
                if key.startswith("self:") and not key.startswith("self:op."):
                    per_layer[key[5:].split(".")[0]] += value
            for layer, value in per_layer.items():
                layer_self[layer].append(value)
        root_busy = [r.busy for _v, r in chosen]
        harness = [v["self:op." + kind] for v, _r in chosen]
        traced = statistics.median(times(samples, kind, True, wall=True))
        untraced = statistics.median(times(samples, kind, False, wall=True))
        out[kind] = {
            "ops": len(chosen),
            "traced_s": traced,
            "untraced_s": untraced,
            "overhead_s": traced - untraced,
            "op_span_s": statistics.median(root_busy),
            "harness_s": statistics.median(harness),
            "layers": {k: statistics.median(v) for k, v in sorted(layer_self.items())},
        }
    return out
