"""Workload inputs, their oracle answers, and the ops the benchmark times.

Every workload runs the same six op kinds, so every end-to-end metric
exists on every workload; what differs is the input each kind sees:

=========  =============================  =============================  ==========================
op kind    synth-1e5                      syslib-audit                   warm-sql
=========  =============================  =============================  ==========================
cold       FRESH count of the 1e5 file    audit of the system core       audit of libz's closure
export     the 1e5 file                   libz                           libz
memoized   stock sqlite3 on that export   stock sqlite3, core snapshot   stock sqlite3, core snapshot
cli        `elfdb query` on a 1e3 file    `elfdb query` on libz          `elfdb query` on libz
disasm     a 2e4-symbol file              libz                           libz
warm       statements, memoized 1e3 file  statements, memoized libz      statements, memoized core
=========  =============================  =============================  ==========================

Each workload spends most of its time on the kinds its name says; the
others run on a small input, so that every metric has samples in every
run and a run stays short.  The system core is a fixed, sorted list of
libraries expanded by `resolve_recursive`; the seed adds a few small
libraries from the sorted directory listing.  elfdb is driven only through
its public functions, looked up at their module attributes so the traced
run can wrap them.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import sqlite3
import string
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from elfdb import analyses, bench, corpus, engine, model

import oracle

# C++-heavy (LLVM, libstdc++, ICU) and C libraries; sorted.
CORE = (
    "libLLVM-15.so.1",
    "libc.so.6",
    "libcrypto.so.3",
    "libicui18n.so.72",
    "libicuuc.so.72",
    "libpython3.11.so.1.0",
    "libstdc++.so.6",
)
SMALL = "libz.so.1"
# Seeded extras: small enough that the seed barely moves the audit's cost.
EXTRA_SIZE = (16 * 1024, 256 * 1024)

WORKLOADS = ("synth-1e5", "syslib-audit", "warm-sql")


class SetupError(Exception):
    """An input is missing or an oracle disagrees with the generated input."""


@dataclass(frozen=True)
class Scale:
    synth_symbols: int
    disasm_symbols: int
    cli_symbols: int
    core: tuple[str, ...]
    extras: int
    warm_statements: int


SCALES = {
    "full": Scale(100_000, 20_000, 1_000, CORE, 3, 300),
    # For the benchmark's self-test: same code paths, seconds instead of minutes.
    "tiny": Scale(2_000, 500, 100, (SMALL,), 1, 20),
}

COUNT_DYNSYM_SQL = "SELECT COUNT(*) FROM elf_symbols WHERE \"table\" = '.dynsym'"
DISASM_SQL = (
    "SELECT mnemonic, COUNT(*), SUM(size) FROM elf_instructions "
    "GROUP BY mnemonic ORDER BY mnemonic"
)
WARM_SQL = {
    "point": (
        'SELECT path, "table", "index", demangle_name, version, exported, imported '
        'FROM elf_symbols WHERE name = :name ORDER BY path, "table", "index"'
    ),
    "scan": (
        'SELECT "index", name, type, binding, section FROM elf_symbols '
        'WHERE path = :path ORDER BY "table", "index" LIMIT 50'
    ),
    "group": (
        "SELECT type, binding, COUNT(*) FROM elf_symbols GROUP BY type, binding "
        "HAVING COUNT(*) >= :min_count ORDER BY type, binding"
    ),
    "join": (
        "SELECT elf_dynamic_entries.ordinal, elf_dynamic_entries.tag, elf_strings.value "
        "FROM elf_dynamic_entries INNER JOIN elf_strings "
        "ON elf_dynamic_entries.value = elf_strings.offset "
        "AND elf_strings.path = elf_dynamic_entries.path "
        "AND elf_strings.section = '.dynstr' "
        "WHERE elf_dynamic_entries.path = :path "
        "AND elf_dynamic_entries.tag IN ('NEEDED', 'SONAME', 'RUNPATH', 'RPATH') "
        "ORDER BY elf_dynamic_entries.ordinal"
    ),
}
# Class shares of the statement mix.  The slow GROUP BY class is a fifth of
# the mix, so the p90 tail falls inside one class instead of on a boundary.
WARM_BLOCK = ("point",) * 4 + ("scan",) * 2 + ("join",) * 2 + ("group",) * 2


@dataclass(frozen=True)
class Statement:
    cls: str
    sql: str
    params: dict
    expected: tuple


@dataclass
class State:
    """Everything one run's ops need; built by a workload's set-up."""

    facts: dict[str, oracle.FileFacts]  # by canonical path
    cold_inputs: list[str]
    cold_resolve: bool
    cold_audit: bool
    cold_paths: frozenset[str]  # catalog the cold op must end up with
    export_input: str
    export_out: str
    memoized_db: str  # an exported file the memoized op counts in
    memoized_dynsym: int
    disasm_input: str
    disasm_ret: Optional[int]  # when every instruction must be `ret`
    cli_input: str
    cli_env: dict
    warm_session: engine.Session
    warm_statements: list[Statement]
    inputs: dict
    fingerprint: Optional[dict] = None
    audit_reference: Optional[tuple] = None
    warm_next: int = 0
    export_bytes: int = 0

    def close(self) -> None:
        self.warm_session.close()


def _facts(paths) -> dict[str, oracle.FileFacts]:
    out = {}
    for path in paths:
        real = os.path.realpath(path)
        out[real] = oracle.file_facts(real, os.path.getsize(real))
    return out


def corpus_fingerprint(paths) -> dict:
    """Resolved file list with sizes and content hashes, plus tool versions."""
    files = []
    for path in sorted(paths):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        files.append([path, os.path.getsize(path), digest.hexdigest()])
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "machine": platform.machine(),
        "files": files,
    }


def library_dir(scale: Scale) -> str:
    """The first of the loader's default directories holding every core library."""
    wanted = scale.core + (SMALL,)
    for directory in corpus.DEFAULT_SEARCH_DIRS:
        if all(os.path.isfile(os.path.join(directory, name)) for name in wanted):
            return os.path.realpath(directory)
    raise SetupError(
        f"no directory of {corpus.DEFAULT_SEARCH_DIRS} holds all of {', '.join(wanted)}"
    )


def core_paths(scale: Scale) -> list[str]:
    libdir = library_dir(scale)
    return [os.path.join(libdir, name) for name in scale.core]


def core_closure(scale: Scale) -> corpus.CorpusCatalog:
    core = core_paths(scale)
    catalog = corpus.resolve_recursive(corpus.add_paths(core), corpus.SearchConfig())
    if catalog.read_errors or catalog.unresolved:
        raise SetupError(
            f"core closure incomplete: {catalog.read_errors} {catalog.unresolved}"
        )
    return catalog


def _pick_extras(rng: random.Random, facts: dict, count: int, libdir: str) -> list[oracle.FileFacts]:
    """Seeded sample of small libraries whose dependencies the core already has."""
    known = set(facts)
    sonames = {f.soname for f in facts.values() if f.soname}
    sonames |= {os.path.basename(p) for p in facts}
    candidates = []
    for name in sorted(os.listdir(libdir)):
        path = os.path.join(libdir, name)
        if not name.startswith("lib") or ".so" not in name or os.path.islink(path):
            continue
        if not os.path.isfile(path) or path in known:
            continue
        if EXTRA_SIZE[0] <= os.path.getsize(path) <= EXTRA_SIZE[1]:
            candidates.append(path)
    rng.shuffle(candidates)
    picked = []
    for path in candidates:
        with open(path, "rb") as fh:
            if fh.read(4) != b"\x7fELF":
                continue
        facts_of = oracle.file_facts(path, os.path.getsize(path))
        if facts_of.dynsym and facts_of.soname not in sonames and set(facts_of.needed) <= sonames:
            picked.append(facts_of)
            if len(picked) == count:
                return picked
    raise SetupError(f"found only {len(picked)} of {count} extra libraries")


def _no_rows(_obj):
    return iter(())


def _export_without(session: engine.Session, dest: str, tables: tuple[str, ...]) -> None:
    """Export with `tables` left empty, for snapshots that never read them.

    Decoding every library of the core for elf_instructions takes half a
    minute and about 1 GB; a table left empty stays empty in `session` too.
    """
    producers = model.TABLE_PRODUCERS
    saved = {t: producers[t] for t in tables}
    producers.update(dict.fromkeys(tables, _no_rows))
    try:
        session.export_database(dest, overwrite=True)
    finally:
        producers.update(saved)


def _warm_setup(catalog, work_dir: str, rng: random.Random, count: int):
    """A session with every table but elf_instructions memoized, its exported
    snapshot, and a seeded statement mix whose answers come from stock
    sqlite3 on that snapshot.  No warm statement reads elf_instructions."""
    memoized = {t: engine.StrategyMode.MEMOIZED for t in engine.TABLE_NAMES}
    del memoized["elf_instructions"]
    session = engine.register(catalog, memoized)
    snapshot = os.path.join(work_dir, "snapshot.sqlite")
    _export_without(session, snapshot, ("elf_instructions",))
    conn = sqlite3.connect(snapshot)
    try:
        paths = [r[0] for r in conn.execute("SELECT path FROM elf_headers ORDER BY path")]
        names = [
            r[0]
            for r in conn.execute(
                "SELECT DISTINCT name FROM elf_symbols WHERE name != '' ORDER BY name"
            )
        ]
        # Per-path statements visit the paths in turn, so that on a small
        # corpus the seed does not change how often each file is scanned.
        rng.shuffle(paths)
        turn = 0
        statements = []
        while len(statements) < count:
            block = list(WARM_BLOCK)
            rng.shuffle(block)
            for cls in block:
                if cls == "point":
                    params = {"name": rng.choice(names)}
                elif cls == "group":
                    params = {"min_count": rng.randint(1, 100)}
                else:
                    params = {"path": paths[turn % len(paths)]}
                    turn += 1
                expected = tuple(conn.execute(WARM_SQL[cls], params).fetchall())
                statements.append(Statement(cls, WARM_SQL[cls], params, expected))
    finally:
        conn.close()
    return session, statements[:count], snapshot


def _cli_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _small_parts(work_dir: str, facts: dict, libdir: str) -> dict:
    """export / disasm / cli on libz, shared by the two system workloads."""
    small = os.path.realpath(os.path.join(libdir, SMALL))
    facts.update(_facts([small]))
    return dict(
        export_input=small,
        export_out=os.path.join(work_dir, "export.sqlite"),
        disasm_input=small,
        disasm_ret=None,
        cli_input=small,
    )


def setup_synth(work_dir: str, rng: random.Random, scale: Scale, src_dir: str) -> State:
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
    big = bench.generate_elf(
        bench.GeneratedElfSpec(scale.synth_symbols, name_pattern=prefix + "_{index:08}"),
        os.path.join(work_dir, "synth.so"),
    )
    # A 1e3-symbol file for the CLI and warm ops; 2e4 one-byte functions to
    # decode, because ops much shorter than 0.1 s swing too much between runs.
    small = bench.generate_elf(
        bench.GeneratedElfSpec(scale.cli_symbols, name_pattern=prefix + "_cli_{index:06}"),
        os.path.join(work_dir, "synth_cli.so"),
    )
    code = bench.generate_elf(
        bench.GeneratedElfSpec(scale.disasm_symbols, name_pattern=prefix + "_asm_{index:06}"),
        os.path.join(work_dir, "synth_asm.so"),
    )
    for manifest in (big, small, code):
        entries = oracle.dynsym_entries(manifest.path)
        if entries != len(manifest.names) + 1:
            raise SetupError(
                f"readelf counts {entries} .dynsym entries in {manifest.path}, "
                f"the manifest {len(manifest.names)} + 1"
            )
    facts = _facts([big.path, small.path, code.path])
    session, statements, _snapshot = _warm_setup(
        corpus.add_paths([small.path]), work_dir, rng, scale.warm_statements
    )
    export_out = os.path.join(work_dir, "export.sqlite")
    return State(
        facts=facts,
        cold_inputs=[big.path],
        cold_resolve=False,
        cold_audit=False,
        cold_paths=frozenset([big.path]),
        export_input=big.path,
        export_out=export_out,
        memoized_db=export_out,  # written by the export op, which runs first
        memoized_dynsym=facts[big.path].dynsym,
        disasm_input=code.path,
        disasm_ret=len(code.names),
        cli_input=small.path,
        cli_env=_cli_env(src_dir),
        warm_session=session,
        warm_statements=statements,
        inputs={
            "symbols": len(big.names),
            "name_prefix": prefix,
            "cli_symbols": len(small.names),
            "disasm_symbols": len(code.names),
        },
    )


def setup_syslib(work_dir: str, rng: random.Random, scale: Scale, src_dir: str) -> State:
    catalog = core_closure(scale)
    closure = catalog.paths
    facts = _facts(closure)
    fingerprint = corpus_fingerprint(closure)
    # The memoized op's file: the core's symbols, strings and dynamic entries.
    snapshot = os.path.join(work_dir, "core.sqlite")
    with engine.register(catalog) as core_session:
        _export_without(core_session, snapshot, ("elf_instructions", "elf_sections"))
    del catalog
    libdir = library_dir(scale)
    extras = _pick_extras(rng, facts, scale.extras, libdir)
    facts.update({f.path: f for f in extras})
    parts = _small_parts(work_dir, facts, libdir)
    small_catalog = corpus.resolve_recursive(
        corpus.add_paths([parts["disasm_input"]]), corpus.SearchConfig()
    )
    facts.update(_facts(small_catalog.paths))
    session, statements, _snapshot = _warm_setup(
        small_catalog, work_dir, rng, scale.warm_statements
    )
    return State(
        memoized_db=snapshot,
        memoized_dynsym=sum(facts[p].dynsym for p in closure),
        facts=facts,
        cold_inputs=core_paths(scale) + [f.path for f in extras],
        cold_resolve=True,
        cold_audit=True,
        cold_paths=frozenset(closure) | {f.path for f in extras},
        cli_env=_cli_env(src_dir),
        warm_session=session,
        warm_statements=statements,
        inputs={"core": list(scale.core), "extras": [f.path for f in extras], "files": len(closure) + len(extras)},
        fingerprint=fingerprint,
        **parts,
    )


def setup_warm(work_dir: str, rng: random.Random, scale: Scale, src_dir: str) -> State:
    catalog = core_closure(scale)
    fingerprint = corpus_fingerprint(catalog.paths)
    facts = _facts(catalog.paths)
    parts = _small_parts(work_dir, facts, library_dir(scale))
    small_closure = corpus.resolve_recursive(
        corpus.add_paths([parts["disasm_input"]]), corpus.SearchConfig()
    ).paths
    facts.update(_facts(small_closure))
    session, statements, snapshot = _warm_setup(catalog, work_dir, rng, scale.warm_statements)
    return State(
        memoized_db=snapshot,
        memoized_dynsym=sum(facts[p].dynsym for p in catalog.paths),
        facts=facts,
        cold_inputs=[parts["disasm_input"]],
        cold_resolve=True,
        cold_audit=True,
        cold_paths=frozenset(small_closure),
        cli_env=_cli_env(src_dir),
        warm_session=session,
        warm_statements=statements,
        inputs={"core": list(scale.core), "files": len(catalog)},
        fingerprint=fingerprint,
        **parts,
    )


SETUPS: dict[str, Callable[..., State]] = {
    "synth-1e5": setup_synth,
    "syslib-audit": setup_syslib,
    "warm-sql": setup_warm,
}


# ---------------------------------------------------------------------------
# Ops.  `run` is timed; `check` returns None or what was wrong.  `split`
# marks a point between calls into elfdb where the harness may probe the
# host's speed (see calibrate.py); it is left out of the op's time.


@dataclass
class ColdAnswer:
    paths: tuple[str, ...]
    counts: dict
    audit: tuple = ()
    histogram: tuple = ()
    runpaths: dict = field(default_factory=dict)


def run_cold(state: State, split: Callable[[], None]) -> ColdAnswer:
    catalog = corpus.add_paths(state.cold_inputs)
    split()
    if state.cold_resolve:
        catalog = corpus.resolve_recursive(catalog, corpus.SearchConfig())
        split()
    with engine.register(catalog) as session:
        counts = {}
        for path in state.cold_inputs:
            counts[path] = analyses.count_symbols(session, path)
            split()
        if not state.cold_audit:
            return ColdAnswer(catalog.paths, counts)
        audit = analyses.interposition_audit(session)
        split()
        histogram = analyses.symbol_histogram(session)
        split()
        runpaths = {p: analyses.runpath(session, p) for p in catalog.paths}
    return ColdAnswer(catalog.paths, counts, audit.rows, histogram.rows, runpaths)


def check_cold(state: State, answer: ColdAnswer) -> Optional[str]:
    if set(answer.paths) != state.cold_paths:
        return f"catalog has {len(answer.paths)} files, expected {len(state.cold_paths)}"
    for path, count in answer.counts.items():
        want = state.facts[os.path.realpath(path)].count_symbols
        if count != want:
            return f"count_symbols({path}) = {count}, readelf says {want}"
    if not state.cold_audit:
        return None
    histogram = dict(answer.histogram)
    for path in state.cold_paths:
        want = state.facts[path].all_symbols
        if histogram.get(path) != want:
            return f"histogram has {histogram.get(path)} symbols for {path}, readelf says {want}"
        if tuple(answer.runpaths[path]) != state.facts[path].runpath:
            return f"runpath({path}) = {answer.runpaths[path]}, readelf says {state.facts[path].runpath}"
    # No independent oracle for the audit: it must be well formed and the
    # same in every op of the run.
    for _name, _version, count, libraries in answer.audit:
        if count < 2 or not set(libraries.split(":")) <= state.cold_paths:
            return f"malformed audit row {_name!r}"
    if state.audit_reference is None:
        state.audit_reference = answer.audit
    elif answer.audit != state.audit_reference:
        return "interposition audit differs from the run's first answer"
    return None


def run_export(state: State, _split) -> engine.ExportSummary:
    catalog = corpus.add_paths([state.export_input])
    with engine.register(catalog) as session:
        return session.export_database(state.export_out, overwrite=True)


def check_export(state: State, summary: engine.ExportSummary) -> Optional[str]:
    state.export_bytes = os.path.getsize(state.export_out)
    want = state.facts[state.export_input].all_symbols
    if summary.per_table["elf_symbols"] != want:
        return f"exported {summary.per_table['elf_symbols']} symbols, readelf says {want}"
    return None


def run_memoized(state: State, _split) -> int:
    conn = sqlite3.connect(state.memoized_db)
    try:
        return conn.execute(COUNT_DYNSYM_SQL).fetchone()[0]
    finally:
        conn.close()


def check_memoized(state: State, count: int) -> Optional[str]:
    want = state.memoized_dynsym
    return None if count == want else f"exported file counts {count}, readelf says {want}"


def run_cli(state: State, _split) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "elfdb.cli", "query", state.cli_input,
         "--sql", COUNT_DYNSYM_SQL, "--format", "csv"],
        env=state.cli_env, capture_output=True, text=True, timeout=120,
    )


def check_cli(state: State, proc: subprocess.CompletedProcess) -> Optional[str]:
    want = str(state.facts[state.cli_input].dynsym)
    lines = proc.stdout.split()
    if proc.returncode != 0 or not lines or lines[-1] != want:
        return f"cli exited {proc.returncode} printing {proc.stdout[-80:]!r}, want {want}"
    return None


def run_disasm(state: State, _split) -> tuple:
    catalog = corpus.add_paths([state.disasm_input])
    with engine.register(catalog) as session:
        return session.execute(DISASM_SQL).rows


def check_disasm(state: State, rows: tuple) -> Optional[str]:
    want = state.facts[state.disasm_input].exec_bytes
    covered = sum(r[2] for r in rows)
    if covered != want:
        return f"instructions cover {covered} bytes, readelf says {want} executable bytes"
    if state.disasm_ret is not None and rows != (("ret", state.disasm_ret, state.disasm_ret),):
        return f"expected {state.disasm_ret} ret instructions, got {rows[:3]}"
    return None


def run_warm(state: State, _split) -> tuple[Statement, tuple]:
    statement = state.warm_statements[state.warm_next % len(state.warm_statements)]
    state.warm_next += 1
    return statement, state.warm_session.execute(statement.sql, statement.params).rows


def check_warm(_state: State, answer) -> Optional[str]:
    statement, rows = answer
    if rows != statement.expected:
        return f"{statement.cls} statement {statement.params} disagrees with stock sqlite3"
    return None


OPS = {
    "cold": (run_cold, check_cold),
    "export": (run_export, check_export),
    "memoized": (run_memoized, check_memoized),
    "cli": (run_cli, check_cli),
    "disasm": (run_disasm, check_disasm),
    "warm": (run_warm, check_warm),
}
