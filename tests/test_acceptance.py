"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Everything is pinned: exact equality unless a criterion states a
timing threshold.
"""

import os
import random
import sqlite3
import statistics
import time

import pytest

from elfdb import corpus, engine
from elfdb.analyses import (
    count_symbols,
    diff_symbols,
    interposition_audit,
    python_extension_check,
    runpath,
    symbol_histogram,
)
from elfdb.bench import GeneratedElfSpec, SymbolSpec, generate_elf, write_elf
from elfdb.corpus import SearchConfig, add_paths, resolve_recursive
from elfdb.engine import StrategyMode, register
from elfdb.model import SCHEMA, TABLE_NAMES
from conftest import RUBY_LIKE, exported_funcs, readelf_table_counts, system_elves
from test_corpus import oracle_loader_trace


def report(number: int, text: str) -> None:
    print(f"\ncriterion {number:02d}: PASS - {text}")


def test_criterion_01_symbol_count_parity_with_oracle(tmp_path):
    start = time.perf_counter()
    fixture_paths = list(system_elves(limit=16))
    for i in range(4):
        dest = str(tmp_path / f"gen{i}.so")
        generate_elf(GeneratedElfSpec(symbol_count=3 + 17 * i), dest)
        fixture_paths.append(dest)
    extra = str(tmp_path / "mixed.so")
    write_elf(
        extra,
        symbols=exported_funcs("f1", "f2") + [SymbolSpec("u", section="SHN_UNDEF")],
        symtab_symbols=exported_funcs("s1"),
    )
    fixture_paths.append(extra)
    assert len(fixture_paths) >= 20

    catalog = add_paths(fixture_paths)
    assert len(catalog.entries) == len(set(map(os.path.realpath, fixture_paths)))
    with register(catalog) as session:
        result = session.execute(
            'SELECT path, "table", COUNT(*) FROM elf_symbols GROUP BY path, "table"'
        )
    ours: dict[str, dict[str, int]] = {}
    for path, table, count in result.rows:
        ours.setdefault(path, {})[table] = count
    for entry in catalog.entries:
        oracle = readelf_table_counts(entry.path)
        assert ours.get(entry.path, {}) == oracle, entry.path
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        1,
        f"per-table symbol counts match readelf for {len(catalog.entries)} files "
        f"in {elapsed:.1f}s",
    )


def test_criterion_02_interpreter_style_fixture():
    oracle = readelf_table_counts(RUBY_LIKE)
    assert oracle == {".dynsym": 22}
    with register(add_paths([RUBY_LIKE])) as session:
        assert count_symbols(session, RUBY_LIKE) == 22
        result = session.execute(
            "SELECT type, binding, section, imported FROM elf_symbols "
            "WHERE name = 'ruby_run_node'"
        )
    assert result.rows == (("FUNC", "GLOBAL", "SHN_UNDEF", 1),)
    report(2, "checked-in 22-entry fixture counts and import flags are exact")


class _FileSession:
    """Duck-typed Session over an exported database file (read-only)."""

    def __init__(self, db_path: str):
        self._conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
        self.paths = tuple(
            row[0] for row in self._conn.execute("SELECT path FROM elf_headers")
        )

    def execute(self, sql, params=None):
        cursor = self._conn.execute(sql, dict(params) if params else {})
        rows = cursor.fetchall()
        columns = tuple(d[0] for d in cursor.description) if cursor.description else ()
        return engine.QueryResult(columns=columns, rows=tuple(map(tuple, rows)))

    def close(self):
        self._conn.close()


def _property_corpus(tmp_path) -> corpus.CorpusCatalog:
    from elfdb.reader import DataEncoding, ElfClass

    paths = []
    a = str(tmp_path / "varied_a.so")
    write_elf(
        a,
        symbols=exported_funcs("shared_fn", "a_only")
        + [
            SymbolSpec("imp", section="SHN_UNDEF"),
            SymbolSpec("store", sym_type="OBJECT", section=".data", size=12),
            SymbolSpec("scratch", sym_type="OBJECT", section=".bss", size=32),
            SymbolSpec("quiet", binding="LOCAL"),
        ],
        needed=["libm.so.6"],
        runpath="/opt/lib:/srv/lib",
        soname="libvaried.so.1",
    )
    paths.append(a)
    b = str(tmp_path / "varied_b.so")
    write_elf(
        b,
        symbols=exported_funcs("shared_fn", "b_only"),
        symtab_symbols=exported_funcs("b_static"),
    )
    paths.append(b)
    c = str(tmp_path / "varied_c32.so")
    write_elf(
        c,
        symbols=exported_funcs("c_fn"),
        elf_class=ElfClass.ELF32,
        encoding=DataEncoding.MSB,
        machine=20,
    )
    paths.append(c)
    d = str(tmp_path / "varied_d.so")
    generate_elf(GeneratedElfSpec(symbol_count=25), d)
    paths.append(d)
    e = str(tmp_path / "varied_null.so")
    write_elf(e, symbols=[])
    paths.append(e)
    return add_paths(paths)


def _random_order_by_queries(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        table = rng.choice(TABLE_NAMES)
        cols = [c for c, _ in SCHEMA[table]]
        selected = rng.sample(cols, k=rng.randint(1, len(cols)))
        select = ", ".join(f'"{c}"' for c in selected)
        total_order = ", ".join(f'"{c}"' for c in cols)
        where = rng.choice(["", ' WHERE "path" LIKE \'%.so\'', ' WHERE "path" != \'\''])
        queries.append(f'SELECT {select} FROM "{table}"{where} ORDER BY {total_order}')
    return queries


def _canned_results(session) -> list:
    paths = session.paths
    out = [interposition_audit(session)]
    for path in paths:
        out.append(count_symbols(session, path))
        out.append(count_symbols(session, path, imported_only=True))
        out.append(runpath(session, path))
        out.append(python_extension_check(session, path, "spam"))
    out.append(diff_symbols(session, paths[0], paths[1]))
    out.append(symbol_histogram(session))
    return out


def test_criterion_03_strategy_and_export_equivalence(tmp_path):
    catalog = _property_corpus(tmp_path)
    queries = _random_order_by_queries(25, seed=0xE1F)
    lazy = register(catalog)
    memo = register(catalog, {t: StrategyMode.MEMOIZED for t in TABLE_NAMES})
    exported_path = str(tmp_path / "equiv.sqlite")
    lazy.export_database(exported_path)
    exported = _FileSession(exported_path)
    try:
        for sql in queries:
            rows_lazy = lazy.execute(sql).rows
            rows_memo = memo.execute(sql).rows
            rows_file = exported.execute(sql).rows
            assert rows_lazy == rows_memo == rows_file, sql
        assert _canned_results(lazy) == _canned_results(memo) == _canned_results(exported)
    finally:
        lazy.close()
        memo.close()
        exported.close()
    report(3, "25 ordered queries and all canned analyses identical across lazy, memoized, exported")


@pytest.mark.parametrize("k", [1, 3, 10])
def test_criterion_04_interposition_audit_planted(tmp_path, k):
    planted = [f"planted_dup_{i:02d}" for i in range(k)]
    a = str(tmp_path / f"lib_a_{k}.so")
    b = str(tmp_path / f"lib_b_{k}.so")
    decoys_a = [
        SymbolSpec("local_dup", binding="LOCAL"),
        SymbolSpec("bss_dup", sym_type="OBJECT", section=".bss", size=8),
        SymbolSpec("import_dup", section="SHN_UNDEF"),
        SymbolSpec("only_in_a"),
    ]
    decoys_b = [
        SymbolSpec("local_dup", binding="LOCAL"),
        SymbolSpec("bss_dup", sym_type="OBJECT", section=".bss", size=8),
        SymbolSpec("import_dup", section="SHN_UNDEF"),
        SymbolSpec("only_in_b"),
    ]
    write_elf(a, symbols=exported_funcs(*planted) + decoys_a)
    write_elf(b, symbols=exported_funcs(*planted) + decoys_b)
    with register(add_paths([a, b])) as session:
        rows = interposition_audit(session).rows
    expected_libraries = ":".join(sorted([os.path.realpath(a), os.path.realpath(b)]))
    assert len(rows) == k
    assert [r[0] for r in rows] == planted  # count ties broken by name
    for name, version, symbol_count, libraries in rows:
        assert version is None
        assert symbol_count == 2
        assert libraries == expected_libraries
    report(4, f"audit reports exactly the {k} planted duplicates, decoys excluded")


def test_criterion_05_runpath_extraction(tmp_path):
    lib = str(tmp_path / "runpath.so")
    write_elf(lib, symbols=exported_funcs("f"), runpath="/opt/lib:/usr/local/lib")
    with register(add_paths([lib])) as session:
        assert runpath(session, lib) == ["/opt/lib", "/usr/local/lib"]
    report(5, "RUNPATH resolved through the string-table join, split exactly")


def test_criterion_06_recursive_closure(tmp_path):
    libs1 = tmp_path / "libs1"
    libs2 = tmp_path / "libs2"
    libs1.mkdir()
    libs2.mkdir()
    write_elf(str(libs2 / "libB.so"), symbols=exported_funcs("b"), soname="libB.so")
    write_elf(
        str(libs1 / "libA.so"),
        symbols=exported_funcs("a"),
        soname="libA.so",
        needed=["libB.so"],
        runpath=str(libs2),
    )
    app = str(tmp_path / "app")
    write_elf(app, symbols=exported_funcs("m"), needed=["libA.so"], runpath=str(libs1))

    resolved = resolve_recursive(add_paths([app]), SearchConfig(default_dirs=()))
    assert set(resolved.paths) == oracle_loader_trace(app)
    assert len(resolved.entries) == 3
    assert resolved.unresolved == ()

    broken = str(tmp_path / "broken_app")
    write_elf(broken, symbols=exported_funcs("m2"), needed=["libabsent.so"])
    missing = resolve_recursive(add_paths([broken]), SearchConfig(default_dirs=()))
    assert len(missing.unresolved) == 1
    assert missing.unresolved[0].soname == "libabsent.so"
    report(6, "3-level closure equals the loader-trace oracle; one unresolved report")


def test_criterion_07_diff_correctness(tmp_path):
    a = str(tmp_path / "old.so")
    b = str(tmp_path / "new.so")
    write_elf(
        a,
        symbols=[
            SymbolSpec("keeps", size=4),
            SymbolSpec("dropped_obj", sym_type="OBJECT", section=".data", size=8),
            SymbolSpec("resized_fn", size=16),
        ],
    )
    write_elf(
        b,
        symbols=[
            SymbolSpec("keeps", size=4),
            SymbolSpec("added_fn", size=32),
            SymbolSpec("resized_fn", size=48),
        ],
    )
    with register(add_paths([a, b])) as session:
        forward = diff_symbols(session, a, b)
        self_diff = diff_symbols(session, a, a)
    assert forward.rows == (
        ("ADDED", "added_fn", "added_fn", "FUNC", None, 32),
        ("REMOVED", "dropped_obj", "dropped_obj", "OBJECT", 8, None),
        ("RESIZED", "resized_fn", "resized_fn", "FUNC", 16, 48),
    )
    assert self_diff.rows == ()
    report(7, "diff reports exactly the added/removed/resized trio; self-diff empty")


def test_criterion_08_python_extension_predicate(tmp_path):
    py3 = str(tmp_path / "py3.so")
    py2 = str(tmp_path / "py2.so")
    plain = str(tmp_path / "plain.so")
    write_elf(py3, symbols=exported_funcs("PyInit_spam"))
    write_elf(py2, symbols=exported_funcs("initspam"))
    write_elf(plain, symbols=exported_funcs("unrelated"))
    with register(add_paths([py3, py2, plain])) as session:
        assert python_extension_check(session, py3, "spam") == 3
        assert python_extension_check(session, py2, "spam") == 2
        assert python_extension_check(session, plain, "spam") is None
    report(8, "module-init predicate returns 3 / 2 / absent as specified")


def _median_of_3(run):
    """Median wall time of three calls of `run`, and the answer it gave."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        answer = run()
        times.append(time.perf_counter() - start)
    return statistics.median(times), answer


def _fresh_count(fixture):
    # Parse, register and query from scratch, as a one-off `elfdb query` does.
    catalog = add_paths([fixture])
    with register(catalog) as session:
        return count_symbols(session, catalog.entries[0].path)


def _memoized_count(db_path):
    # Stock sqlite3 on an exported database: no parsing left to do.
    conn = sqlite3.connect(db_path)
    try:
        return conn.execute("SELECT COUNT(*) FROM elf_symbols WHERE \"table\" = '.dynsym'").fetchone()[0]
    finally:
        conn.close()


def test_criterion_09_performance_thresholds(tmp_path):
    fixture_1e4 = str(tmp_path / "gen_1e4.so")
    generate_elf(GeneratedElfSpec(symbol_count=10_000), fixture_1e4)
    fresh_1e4, count_1e4 = _median_of_3(lambda: _fresh_count(fixture_1e4))
    assert count_1e4 == 10_001
    assert fresh_1e4 < 1.0, f"median {fresh_1e4:.3f}s"

    fixture = str(tmp_path / "gen_1e5.so")
    generate_elf(GeneratedElfSpec(symbol_count=100_000), fixture)
    db_path = str(tmp_path / "gen_1e5.sqlite")
    with register(add_paths([fixture])) as session:
        session.export_database(db_path)
    fresh, fresh_count = _median_of_3(lambda: _fresh_count(fixture))
    memo, memo_count = _median_of_3(lambda: _memoized_count(db_path))
    assert fresh_count == memo_count == 100_001
    assert memo * 5 <= fresh, f"memoized {memo:.4f}s vs fresh {fresh:.4f}s"
    report(
        9,
        f"fresh@1e4 median {fresh_1e4 * 1000:.0f}ms < 1s; "
        f"memoized@1e5 {fresh / memo:.0f}x faster than fresh@1e5",
    )


def test_criterion_10_histogram_planted_counts(tmp_path):
    targets = {"tiny.so": 5, "small.so": 50, "medium.so": 500, "outlier.so": 21127}
    paths = []
    for name, total in targets.items():
        dest = str(tmp_path / name)
        generate_elf(GeneratedElfSpec(symbol_count=total - 1), dest)
        paths.append(dest)
    with register(add_paths(paths)) as session:
        hist = symbol_histogram(session)
    got = {os.path.basename(path): count for path, count in hist.rows}
    assert got == targets
    assert [count for _, count in hist.rows] == [21127, 500, 50, 5]
    assert max(count for _, count in hist.rows) == 21127 < 30000
    assert ("10000-99999", 1) in hist.buckets
    report(10, "histogram reproduces planted counts {5, 50, 500, 21127} exactly")
