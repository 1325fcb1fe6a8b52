import gc
import hashlib
import mmap
import os
import random
import re
import shutil
import sqlite3
import struct
import weakref
from itertools import islice
from pathlib import Path
from textwrap import dedent

import pytest

from elfdb import analyses, bench, corpus, engine, model, reader
from elfdb.bench import SymbolSpec, write_elf
from elfdb.engine import (
    ExportAborted,
    RegistrationFailure,
    SqlError,
    StrategyMode,
    WriteRejected,
    register,
)
from elfdb.model import SCHEMA, TABLE_NAMES
from elfdb.reader import DataEncoding, ElfClass, FileChanged

from conftest import (
    RUBY_LIKE,
    SESSION_PAGE_LIMIT,
    exported_funcs,
    lift_page_limit,
    readelf_symbol_tables,
    run_child,
    write_varied_elf,
)


@pytest.fixture
def small_corpus(tmp_path):
    a = str(tmp_path / "a.so")
    b = str(tmp_path / "b.so")
    write_elf(
        a,
        symbols=exported_funcs("alpha", "beta") + [SymbolSpec("ext", section="SHN_UNDEF")],
        needed=["libdep.so.1"],
        runpath="/opt/lib",
    )
    write_elf(
        b,
        symbols=exported_funcs("gamma")
        + [SymbolSpec("blob", sym_type="OBJECT", section=".data", size=16)],
        symtab_symbols=[SymbolSpec("local_thing", binding="LOCAL")],
    )
    return corpus.add_paths([a, b])


class TestRegistration:
    def test_empty_catalog_yields_empty_tables(self):
        with register(corpus.CorpusCatalog()) as session:
            for table in TABLE_NAMES:
                result = session.execute(f'SELECT COUNT(*) FROM "{table}"')
                assert result.rows == ((0,),)

    def test_select_one(self, small_corpus):
        with register(small_corpus) as session:
            result = session.execute("SELECT 1")
            assert result.columns == ("1",)
            assert result.rows == ((1,),)

    @pytest.mark.parametrize(
        "strategies",
        [
            {"no_such_table": StrategyMode.MEMOIZED},
            {"elf_symbols": "EAGER"},
            {"elf_symbols": "memoized"},
            {"elf_symbols": 3},
            {3: StrategyMode.LAZY},
            "elf_symbols",
            ["elf_symbols"],
            [("elf_symbols", "MEMOIZED")],
            {"ELF_SYMBOLS": StrategyMode.MEMOIZED},
            {"elf_symbols": "MEMOIZED"},
        ],
        ids=[
            "unknown-table", "unknown-mode", "lowercase-mode", "int-mode", "int-table",
            "str", "list-of-names", "list-of-pairs", "uppercase-table", "mode-by-value",
        ],
    )
    def test_unknown_strategy_table_rejected(self, small_corpus, strategies):
        with pytest.raises(RegistrationFailure):
            register(small_corpus, strategies)

    def test_a_failed_registration_closes_its_connection(self, small_corpus, monkeypatch):
        opened = []
        connect = sqlite3.connect

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", recording_connect)

        def failing(_obj):
            raise RuntimeError("producer failed")
            yield

        monkeypatch.setitem(model.TABLE_PRODUCERS, "elf_symbols", failing)
        with pytest.raises(RuntimeError, match="producer failed"):
            register(small_corpus, {"elf_symbols": StrategyMode.MEMOIZED})
        [conn] = opened
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")

    def test_a_dropped_session_is_freed_without_the_cycle_collector(self, small_corpus):
        # The connection holds the authorizer, which must not hold the session.
        session = register(small_corpus)
        session.execute("SELECT COUNT(*) FROM elf_symbols")
        ref = weakref.ref(session)
        # Kept to be closed at the end: a connection is freed only by the
        # cycle collector, and Python 3.13 warns when it was left open.
        conn = session._conn
        gc.disable()
        try:
            del session
            assert ref() is None
        finally:
            gc.enable()
            conn.close()

    def test_a_dropped_session_closes_its_connection_at_once(self, small_corpus):
        session = register(small_corpus)
        session.execute("SELECT COUNT(*) FROM elf_symbols")
        conn = session._conn
        gc.disable()
        try:
            del session
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                conn.execute("SELECT 1")
        finally:
            gc.enable()
            conn.close()

    def test_case_insensitive_table_names(self, small_corpus):
        with register(small_corpus) as session:
            upper = session.execute("SELECT COUNT(*) FROM ELF_SYMBOLS")
            lower = session.execute("SELECT COUNT(*) FROM elf_symbols")
            assert upper.rows == lower.rows


class TestExecution:
    def test_imported_count_matches_oracle(self):
        path = os.path.realpath("/bin/ls")
        if not os.path.exists(path):
            pytest.skip("no /bin/ls")
        oracle = dict(readelf_symbol_tables(path))[".dynsym"]
        expected = sum(
            1 for e in oracle if e.ndx == "UND" and e.bind in ("GLOBAL", "WEAK", "UNIQUE")
        )
        with register(corpus.add_paths([path])) as session:
            result = session.execute(
                "SELECT COUNT(*) FROM elf_symbols WHERE imported = 1"
            )
            assert result.rows[0][0] == expected

    def test_runpath_join_query(self, tmp_path):
        # string-table join resolving a dynamic entry to its text
        lib = str(tmp_path / "rp.so")
        write_elf(lib, symbols=exported_funcs("f"), runpath="/opt/lib")
        with register(corpus.add_paths([lib])) as session:
            result = session.execute(
                """
                SELECT elf_strings.value
                FROM elf_dynamic_entries
                INNER JOIN elf_strings
                    ON elf_dynamic_entries.value = elf_strings.offset
                    AND elf_strings.section = '.dynstr'
                WHERE elf_dynamic_entries.tag = 'RUNPATH'
                """
            )
            assert result.rows == (("/opt/lib",),)

    def test_len_and_iteration_go_over_the_rows(self, small_corpus):
        with register(small_corpus) as session:
            result = session.execute("SELECT name FROM elf_symbols ORDER BY name")
        assert len(result.rows) > 1
        assert len(result) == len(result.rows)
        assert list(result) == list(result.rows)

    def test_named_params(self, small_corpus):
        with register(small_corpus) as session:
            result = session.execute(
                "SELECT COUNT(*) FROM elf_symbols WHERE name = :name",
                {"name": "alpha"},
            )
            assert result.rows == ((1,),)

    def test_missing_param_is_sql_error(self, small_corpus):
        with register(small_corpus) as session:
            with pytest.raises(SqlError):
                session.execute("SELECT * FROM elf_symbols WHERE name = :name")

    def test_syntax_error(self, small_corpus):
        with register(small_corpus) as session:
            with pytest.raises(SqlError, match="syntax"):
                session.execute("SELEKT 1")

    def test_unknown_identifier(self, small_corpus):
        with register(small_corpus) as session:
            with pytest.raises(SqlError, match="no such"):
                session.execute("SELECT * FROM not_a_table")

    def test_multiple_statements_rejected(self, small_corpus):
        with register(small_corpus) as session:
            with pytest.raises(SqlError):
                session.execute("SELECT 1; SELECT 2")

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO elf_symbols (path) VALUES ('x')",
            "DELETE FROM elf_symbols",
            "UPDATE elf_symbols SET name = 'x'",
            "DROP TABLE elf_symbols",
            "CREATE TABLE t (x)",
            "ALTER TABLE elf_symbols ADD COLUMN extra",
            "ATTACH DATABASE ':memory:' AS other",
            "PRAGMA user_version = 7",
            "PRAGMA main.user_version(3)",
            "PRAGMA query_only = 1",
            "PRAGMA case_sensitive_like = 1",
        ],
    )
    def test_writes_rejected(self, small_corpus, sql):
        with register(small_corpus) as session:
            with pytest.raises(WriteRejected):
                session.execute(sql)
            # a refused statement fills nothing
            assert session._pending == set(TABLE_NAMES)
            # the session stays usable afterwards, LAZY tables still fill
            assert session.execute("SELECT 1").rows == ((1,),)
            assert session.execute("SELECT COUNT(*) FROM elf_strings").rows[0][0] > 0
            assert session.execute("PRAGMA user_version").rows == ((0,),)

    def test_with_statement_allowed(self, small_corpus):
        with register(small_corpus) as session:
            result = session.execute(
                "WITH counts AS (SELECT path, COUNT(*) AS n FROM elf_symbols GROUP BY path) "
                "SELECT SUM(n) FROM counts"
            )
            assert result.rows[0][0] > 0
            recursive = session.execute(
                "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c WHERE x < 4) "
                "SELECT SUM(x) FROM c"
            )
            assert recursive.rows == ((10,),)
            window = session.execute(
                "SELECT ROW_NUMBER() OVER (ORDER BY name) FROM elf_symbols ORDER BY 1"
            )
            assert [row[0] for row in window.rows] == list(range(1, len(window.rows) + 1))

    def test_pragma_allowed(self, small_corpus):
        with register(small_corpus) as session:
            # SQLite passes the pragma name as typed
            for sql in ("PRAGMA table_info(elf_headers)", "PRAGMA TABLE_INFO(elf_headers)"):
                result = session.execute(sql)
                assert [row[1] for row in result.rows][:2] == ["path", "file_type"]
            assert session.execute("PRAGMA user_version").rows == ((0,),)

    def test_raw_section_bytes_queryable(self, tmp_path):
        # extracting the runpath by slicing .dynstr content directly must
        # agree with the string-table join route
        lib = str(tmp_path / "content.so")
        write_elf(lib, symbols=exported_funcs("f"), runpath="/opt/lib")
        with register(corpus.add_paths([lib])) as session:
            via_content = session.execute(
                """
                SELECT SUBSTR(untrimmed, 1, INSTR(untrimmed, char(0)) - 1)
                FROM (
                    SELECT CAST(
                        SUBSTR(elf_sections.content, elf_dynamic_entries.value + 1) AS char
                    ) AS untrimmed
                    FROM elf_sections, elf_dynamic_entries
                    WHERE elf_dynamic_entries.tag = 'RUNPATH'
                      AND elf_sections.name = '.dynstr'
                )
                """
            )
            via_join = session.execute(
                """
                SELECT elf_strings.value FROM elf_dynamic_entries
                INNER JOIN elf_strings
                    ON elf_dynamic_entries.value = elf_strings.offset
                    AND elf_strings.section = '.dynstr'
                WHERE elf_dynamic_entries.tag = 'RUNPATH'
                """
            )
            assert via_content.rows == via_join.rows == (("/opt/lib",),)

    def test_needed_join_reproduces_reader(self, tmp_path):
        lib = str(tmp_path / "needs.so")
        write_elf(lib, symbols=exported_funcs("f"), needed=["libaa.so.1", "libbb.so.2"])
        catalog = corpus.add_paths([lib])
        from elfdb.reader import needed_libraries

        expected = needed_libraries(catalog.entries[0])
        with register(catalog) as session:
            result = session.execute(
                """
                SELECT elf_strings.value
                FROM elf_dynamic_entries
                JOIN elf_strings
                    ON elf_strings.offset = elf_dynamic_entries.value
                    AND elf_strings.path = elf_dynamic_entries.path
                    AND elf_strings.section = '.dynstr'
                WHERE elf_dynamic_entries.tag = 'NEEDED'
                ORDER BY elf_dynamic_entries.ordinal
                """
            )
        assert [row[0] for row in result.rows] == expected == ["libaa.so.1", "libbb.so.2"]

    def test_full_range_unsigned_values_survive(self, tmp_path):
        # kernel-style addresses in the top half of the u64 range must not
        # break materialization; the signed bit pattern is preserved
        import struct

        from elfdb import reader as reader_mod

        lib = str(tmp_path / "hi.so")
        write_elf(lib, symbols=exported_funcs("hi_fn"))
        obj = reader_mod.load_elf(lib)
        dynsym = next(s for s in obj.sections if s.name == ".dynsym")
        data = bytearray(Path(lib).read_bytes())
        # st_value of symbol 1 sits 8 bytes into its 24-byte entry
        struct.pack_into("<Q", data, dynsym.offset + 24 + 8, 0xFFFFFFFF_FFFFF000)
        Path(lib).write_bytes(data)
        with register(corpus.add_paths([lib])) as session:
            result = session.execute(
                "SELECT value FROM elf_symbols WHERE name = 'hi_fn'"
            )
        assert result.rows[0][0] & 0xFFFFFFFFFFFFFFFF == 0xFFFFFFFF_FFFFF000

    def test_wide_offset_of_a_section_without_contents_survives(self, tmp_path):
        # sh_offset is bounds-checked only for sections with file contents,
        # so the SHT_NULL section 0 may claim an offset past SQLite's range.
        path = tmp_path / "null_offset.so"
        lib = str(path)
        write_elf(lib, symbols=exported_funcs("f"))
        data = bytearray(path.read_bytes())
        # sh_offset sits 24 bytes into the 64-byte header of section 0
        struct.pack_into("<Q", data, reader.load_elf(lib).header.shoff + 24, 2**63 + 1)
        path.write_bytes(data)
        catalog = corpus.add_paths([lib])
        with register(catalog) as session:
            assert session.execute("SELECT COUNT(*) FROM elf_sections").rows[0][0] > 1
            stored = session.execute('SELECT "offset" FROM elf_sections WHERE "index" = 0').rows
        assert stored[0][0] & 0xFFFFFFFFFFFFFFFF == 2**63 + 1

    def test_source_files_untouched_by_queries(self, small_corpus):
        digests = {
            e.path: hashlib.sha256(Path(e.path).read_bytes()).hexdigest()
            for e in small_corpus.entries
        }
        with register(small_corpus) as session:
            session.execute("SELECT * FROM elf_symbols")
            session.execute("SELECT * FROM elf_sections")
        for path, digest in digests.items():
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


def _query_everything(session) -> dict:
    out = {}
    for table in TABLE_NAMES:
        columns = ", ".join(f'"{c}"' for c, _ in SCHEMA[table])
        sql = f'SELECT {columns} FROM "{table}" ORDER BY {columns}'
        out[table] = session.execute(sql).rows
    return out


class TestProducers:
    def test_a_replaced_producer_feeds_sessions_and_views(self, small_corpus):
        """Replacing a TABLE_PRODUCERS entry reroutes both the LAZY fill and
        the MEMOIZED one; putting the original back undoes it."""

        def one_row(obj):
            yield (obj.path, 7, "DT_PLANTED", -1, "planted")

        producers = model.TABLE_PRODUCERS
        original = producers["elf_dynamic_entries"]
        planted = (("DT_PLANTED", -1, "planted"),) * len(small_corpus.entries)
        memoized = {"elf_dynamic_entries": StrategyMode.MEMOIZED}
        producers["elf_dynamic_entries"] = one_row
        try:
            for strategies in (None, memoized):
                with register(small_corpus, strategies) as session:
                    result = session.execute("SELECT tag, value, string FROM elf_dynamic_entries")
                assert result.rows == planted, strategies
        finally:
            producers["elf_dynamic_entries"] = original
        with register(small_corpus) as session:
            tags = session.execute("SELECT tag FROM elf_dynamic_entries").rows
        assert "DT_PLANTED" not in {t for (t,) in tags}

    def test_a_replaced_demangle_feeds_the_fill(self, small_corpus, monkeypatch):
        """The symbol producer calls `model.demangle` through the module, so
        that perfbench's tracer can time it."""
        monkeypatch.setattr(model, "demangle", lambda name: f"<{name}>")
        with register(small_corpus) as session:
            rows = session.execute("SELECT name, demangle_name FROM elf_symbols").rows
        assert rows and all(shown == f"<{name}>" for name, shown in rows)


B = engine._BATCH_ROWS

# A generated file of n symbols gives n + 1 elf_symbols rows (the null symbol
# included) and, for n >= 1, n + 7 elf_strings rows; these n put both counts on
# B - 1, B, B + 1 and 2B + 1, and elf_symbols on 1.
BOUNDARY_SYMBOL_COUNTS = (0, B - 8, B - 7, B - 6, B - 2, B - 1, B, 2 * B - 6, 2 * B)


def _dump_sql(table: str) -> str:
    """Every row with its rowid and the storage class of each column."""
    columns = [f'"{c}"' for c, _ in SCHEMA[table]]
    types = ", ".join(f"typeof({c})" for c in columns)
    return f'SELECT rowid, {", ".join(columns)}, {types} FROM "{table}" ORDER BY rowid'


def _temp_tables(session) -> list:
    """The tables of the session's temp schema, where a fill keeps its keys."""
    return session._conn.execute("SELECT name FROM sqlite_temp_master").fetchall()


def _assert_fill_equals_one_row_inserts(catalog) -> dict[str, tuple]:
    """Each table of a LAZY session equals a database filled with the full
    rows of `model.rows`, one row per statement, rowids and storage classes
    included."""
    reference = sqlite3.connect(":memory:")
    try:
        with register(catalog) as session:
            dumps = {}
            for table, columns in SCHEMA.items():
                reference.execute(engine._CREATE_SQL[table])
                reference.executemany(
                    'INSERT INTO "{}" VALUES ({})'.format(table, ", ".join("?" * len(columns))),
                    (r for e in catalog for r in model.rows(table, reader.load_elf(e.path))),
                )
                dumps[table] = tuple(reference.execute(_dump_sql(table)))
                assert session.execute(_dump_sql(table)).rows == dumps[table], table
                assert _temp_tables(session) == [], table
    finally:
        reference.close()
    return dumps


def _generated(tmp_path, symbol_count: int) -> str:
    path = str(tmp_path / f"gen{symbol_count}.so")
    bench.generate_elf(bench.GeneratedElfSpec(symbol_count=symbol_count), path)
    return path


class TestBatchedFill:
    def test_boundary_counts_are_reached(self, tmp_path):
        counts = {"elf_symbols": set(), "elf_strings": set()}
        for n in BOUNDARY_SYMBOL_COUNTS:
            obj = reader.load_elf(_generated(tmp_path, n))
            for table, seen in counts.items():
                seen.add(sum(1 for _ in model.TABLE_PRODUCERS[table](obj)))
        assert {1, B - 1, B, B + 1, 2 * B + 1} <= counts["elf_symbols"]
        assert {B - 1, B, B + 1, 2 * B + 1} <= counts["elf_strings"]

    def test_empty_catalog_equals_one_row_inserts(self):
        dumps = _assert_fill_equals_one_row_inserts(corpus.CorpusCatalog())
        assert not any(dumps.values())

    @pytest.mark.parametrize("symbol_count", BOUNDARY_SYMBOL_COUNTS)
    def test_one_file_equals_one_row_inserts(self, tmp_path, symbol_count):
        _assert_fill_equals_one_row_inserts(corpus.add_paths([_generated(tmp_path, symbol_count)]))

    def test_a_file_ending_inside_a_batch_equals_one_row_inserts(self, tmp_path):
        first = write_varied_elf(str(tmp_path / "varied.so"), ElfClass.ELF64, DataEncoding.LSB)
        catalog = corpus.add_paths([first, _generated(tmp_path, 2 * B)])
        objs = [reader.load_elf(e.path) for e in catalog]
        for table in ("elf_symbols", "elf_strings"):
            rows = [sum(1 for _ in model.TABLE_PRODUCERS[table](obj)) for obj in objs]
            # The first file ends inside a batch that the second file would complete;
            # its last rows go in one at a time before the second file is opened.
            assert rows[0] % B and sum(rows) >= (rows[0] // B + 1) * B, table
        obj = objs[0]
        assert isinstance(next(model.TABLE_PRODUCERS["elf_sections"](obj))[-1], memoryview)
        dumps = _assert_fill_equals_one_row_inserts(catalog)
        assert any(type(v) is int and v < 0 for row in dumps["elf_symbols"] for v in row)
        assert {row[-1] for row in dumps["elf_sections"]} == {"blob"}

    def test_a_failing_producer_leaves_the_table_empty_and_pending(self, tmp_path, monkeypatch):
        catalog = corpus.add_paths([_generated(tmp_path, 2 * B)])
        original = model.TABLE_PRODUCERS["elf_symbols"]

        def failing(obj):
            yield from islice(original(obj), B + 3)
            raise RuntimeError("producer failed")

        with register(catalog) as session:
            monkeypatch.setitem(model.TABLE_PRODUCERS, "elf_symbols", failing)
            with pytest.raises(RuntimeError, match="producer failed"):
                session.execute("SELECT COUNT(*) FROM elf_symbols")
            assert session._conn.execute("SELECT COUNT(*) FROM elf_symbols").fetchone() == (0,)
            assert "elf_symbols" in session._pending
            assert _temp_tables(session) == []
            assert session.execute("SELECT COUNT(*) FROM elf_headers").rows == ((1,),)
            monkeypatch.undo()
            assert session.execute("SELECT COUNT(*) FROM elf_symbols").rows == ((2 * B + 1,),)

    def test_batches_stay_under_the_oldest_variable_limit(self):
        # 999 is SQLITE_MAX_VARIABLE_NUMBER's default before SQLite 3.32.
        assert B * max(len(columns) for columns in SCHEMA.values()) <= 999
        conn = sqlite3.connect(":memory:")
        try:
            if hasattr(conn, "setlimit"):  # Python 3.11+
                conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
            for table in TABLE_NAMES:
                conn.execute(engine._CREATE_SQL[table])
                statements = [engine._INSERT_SQL[table], engine._BATCH_INSERT_SQL[table]]
                if table in model.KEY_COLUMNS:
                    create_keys, *insert_keys = engine._KEYS_SQL[table]
                    conn.execute(create_keys)
                    statements += insert_keys
                for sql in statements:
                    # Prepares the statement, so too many variables raise here.
                    conn.executemany(sql, [])
                if table in model.KEY_COLUMNS:
                    conn.execute(f"DROP TABLE {engine._KEYS_TABLE}")
        finally:
            conn.close()

    def test_a_keyed_row_binds_its_own_columns_and_its_key_number(self):
        for table, keys in model.KEY_COLUMNS.items():
            width = len(SCHEMA[table]) - len(keys) + 1
            assert engine._INSERT_SQL[table].count("?") == width, table
            assert engine._BATCH_INSERT_SQL[table].count("?") == B * width, table
        assert engine._INSERT_SQL["elf_symbols"].count("?") == 6


class TestVersionBinding:
    """A missing `elf_symbols.version` is stored as NULL and a version named
    "0" as text, on both sides of a batch's end."""

    def test_version_named_zero_is_text_and_a_missing_one_is_null(self, versioned_lib, tmp_path):
        path, versions = versioned_lib
        # "0" on both sides of the first batch's end: one batched row, one single-row insert.
        assert len(versions) == B + 9 and versions[B - 1] == versions[B + 1] == "0"
        want = [(".dynsym", i, v, "null" if v is None else "text") for i, v in enumerate(versions)]
        want += [(".symtab", i, None, "null") for i in range(3)]
        sql = 'SELECT "table", "index", version, typeof(version) FROM elf_symbols ORDER BY rowid'
        memoized = {"elf_symbols": StrategyMode.MEMOIZED}
        for mode, strategies in (("lazy", None), ("memoized", memoized)):
            dest = str(tmp_path / f"{mode}.sqlite")
            with register(corpus.add_paths([path]), strategies) as session:
                assert list(session.execute(sql).rows) == want, mode
                session.export_database(dest)
            conn = sqlite3.connect(dest)
            try:
                assert conn.execute(sql).fetchall() == want, mode
            finally:
                conn.close()


class TestStrategyEquivalence:
    def test_lazy_equals_memoized(self, small_corpus):
        with register(small_corpus) as lazy, register(
            small_corpus, {t: StrategyMode.MEMOIZED for t in TABLE_NAMES}
        ) as memo:
            assert _query_everything(lazy) == _query_everything(memo)

    def test_every_table_equal_lazy_memoized_and_exported(self, mapped_elf, tmp_path):
        catalog = corpus.add_paths([mapped_elf, RUBY_LIKE])
        objs = [reader.load_elf(e.path) for e in catalog]
        mapped, read = (obj.section_named(".dynsym").view.obj for obj in objs)
        assert isinstance(mapped, mmap.mmap) and type(read) is bytes
        dest = str(tmp_path / "all.sqlite")
        with register(catalog) as lazy, register(
            catalog, {t: StrategyMode.MEMOIZED for t in TABLE_NAMES}
        ) as memo:
            memo.export_database(dest)
            stock = sqlite3.connect(f"file:{dest}?mode=ro", uri=True)
            try:
                for table in TABLE_NAMES:
                    sql = f'SELECT * FROM "{table}" ORDER BY rowid'
                    want = memo.execute(sql).rows
                    assert want, table
                    assert lazy.execute(sql).rows == want, table
                    assert tuple(stock.execute(sql)) == want, table
            finally:
                stock.close()
            blobs = lazy.execute(
                "SELECT content FROM elf_sections WHERE name = '.dynstr' ORDER BY rowid"
            ).rows
        assert [b for (b,) in blobs] == [obj.section_named(".dynstr").content for obj in objs]

    def test_lazy_tables_fill_only_when_touched(self, small_corpus):
        session = register(small_corpus)
        try:
            assert set(session._pending) == set(TABLE_NAMES)
            session.execute("SELECT COUNT(*) FROM elf_headers")
            assert "elf_headers" not in session._pending
            assert "elf_symbols" in session._pending
        finally:
            session.close()

    @pytest.mark.parametrize(
        "sql, filled",
        [
            ("SELECT 'elf_symbols'", set()),
            ("SELECT 1 -- FROM elf_symbols", set()),
            ("PRAGMA table_info(elf_symbols)", set()),
            ("SELECT sql FROM sqlite_master WHERE name = 'elf_symbols'", set()),
            ("EXPLAIN SELECT * FROM elf_symbols", set()),
            ("EXPLAIN QUERY PLAN SELECT * FROM elf_symbols", set()),
            ("", set()),
            ("-- c", set()),
            (
                "SELECT h.path FROM elf_headers h JOIN elf_symbols s USING (path)",
                {"elf_headers", "elf_symbols"},
            ),
            (
                "SELECT COUNT(*) FROM elf_headers NATURAL JOIN elf_dynamic_entries",
                {"elf_headers", "elf_dynamic_entries"},
            ),
            (
                "SELECT h.path FROM elf_headers h LEFT JOIN elf_segments s USING (path)",
                {"elf_headers", "elf_segments"},
            ),
            ("WITH v AS (SELECT value FROM elf_strings) SELECT COUNT(*) FROM v", {"elf_strings"}),
            ("VALUES ((SELECT COUNT(*) FROM elf_segments))", {"elf_segments"}),
            ("SELECT COUNT(*) FROM main.elf_sections", {"elf_sections"}),
            ('SELECT COUNT(*) FROM "ELF_SYMBOLS"', {"elf_symbols"}),
        ],
        ids=[
            "literal", "comment", "pragma", "sqlite_master", "explain", "explain-query-plan",
            "empty", "comment-only", "using", "natural", "left-using", "cte", "values",
            "main-qualified", "quoted-upper",
        ],
    )
    def test_fills_exactly_the_tables_read(self, small_corpus, sql, filled):
        with register(small_corpus) as session:
            session.execute(sql)
            assert set(TABLE_NAMES) - session._pending == filled

    @pytest.mark.parametrize(
        "sql",
        [
            'SELECT * FROM elf_headers JOIN elf_symbols s USING (path) ORDER BY path, s."table", s."index"',
            "SELECT *, ordinal FROM elf_headers NATURAL JOIN elf_dynamic_entries ORDER BY path, ordinal",
            "SELECT h.path, d.ordinal FROM elf_headers h "
            "LEFT JOIN elf_dynamic_entries d USING (path) ORDER BY 1, 2",
        ],
        ids=["using", "natural", "left-using"],
    )
    def test_a_join_as_first_statement_equals_memoized(self, small_corpus, sql):
        with register(small_corpus) as lazy, register(
            small_corpus, {t: StrategyMode.MEMOIZED for t in TABLE_NAMES}
        ) as memo:
            want = memo.execute(sql).rows
            # the last column is the right-hand table's, never NULL in a match
            assert want and None not in {row[-1] for row in want}
            assert lazy.execute(sql).rows == want

    def test_memoized_fill_at_registration(self, small_corpus):
        session = register(small_corpus, {"elf_symbols": StrategyMode.MEMOIZED})
        try:
            assert "elf_symbols" not in session._pending
        finally:
            session.close()

    def test_randomized_order_by_queries(self, small_corpus):
        rng = random.Random(20240817)
        with register(small_corpus) as lazy, register(
            small_corpus, {t: StrategyMode.MEMOIZED for t in TABLE_NAMES}
        ) as memo:
            for _ in range(10):
                table = rng.choice(TABLE_NAMES)
                cols = [c for c, _ in SCHEMA[table]]
                chosen = rng.sample(cols, k=rng.randint(1, len(cols)))
                order = ", ".join(f'"{c}"' for c in cols)
                select = ", ".join(f'"{c}"' for c in chosen)
                sql = f'SELECT {select} FROM "{table}" ORDER BY {order}'
                assert lazy.execute(sql).rows == memo.execute(sql).rows


def index_names(conn) -> list[str]:
    return [name for (name,) in conn.execute("SELECT name FROM sqlite_master WHERE type = 'index'")]


class TestSymbolIndex:
    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_two_file_sessions_and_their_exports_hold_it(self, small_corpus, mode, tmp_path):
        dest = str(tmp_path / "out.sqlite")
        with register(small_corpus, {"elf_symbols": mode}) as session:
            filled = mode is StrategyMode.MEMOIZED
            assert index_names(session._conn) == (["elf_symbols_path"] if filled else [])
            session.execute("SELECT COUNT(*) FROM elf_symbols")
            assert index_names(session._conn) == ["elf_symbols_path"]
            session.export_database(dest)
        conn = sqlite3.connect(dest)
        try:
            assert index_names(conn) == ["elf_symbols_path"]
        finally:
            conn.close()

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_one_file_sessions_and_their_exports_never_hold_it(self, mode, tmp_path):
        dest = str(tmp_path / "out.sqlite")
        with register(corpus.add_paths([RUBY_LIKE]), {"elf_symbols": mode}) as session:
            session.execute("SELECT COUNT(*) FROM elf_symbols")
            assert index_names(session._conn) == []
            session.export_database(dest)
        conn = sqlite3.connect(dest)
        try:
            assert index_names(conn) == []
        finally:
            conn.close()

    def test_count_symbols_searches_it(self, small_corpus):
        path = small_corpus.paths[0]
        with register(small_corpus) as session:
            assert analyses.count_symbols(session, path) == 4  # null row, alpha, beta, ext
            plan = session.execute("EXPLAIN QUERY PLAN " + analyses._COUNT_TABLE_SQL, {"path": path})
        # One search; SQLite before 3.36 writes "SEARCH TABLE elf_symbols USING ...".
        [(*_, detail)] = plan.rows
        assert "USING COVERING INDEX elf_symbols_path (path=?)" in detail

    def test_a_count_through_it_fills_nothing_else(self, small_corpus):
        # The covering index is the only b-tree the count opens, as the plan above shows.
        memoized = {t: StrategyMode.MEMOIZED for t in TABLE_NAMES}
        with register(small_corpus) as lazy, register(small_corpus, memoized) as memo:
            lazy.execute("SELECT COUNT(*) FROM elf_symbols")
            pending = set(TABLE_NAMES) - {"elf_symbols"}
            assert lazy._pending == pending
            for path in small_corpus.paths:
                assert analyses.count_symbols(lazy, path) == analyses.count_symbols(memo, path)
            assert lazy._pending == pending


class TestStatementReuse:
    """The allowlist authorizer stays installed, so SQLite's statement cache
    serves a repeated statement until a fill reinstalls the authorizer, which
    expires every prepared statement, the fill's own included."""

    SQL = "SELECT name FROM elf_symbols WHERE path = :path ORDER BY name"

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_a_repeated_statement_is_compiled_once(self, small_corpus, mode, monkeypatch):
        # Each compile of a session registered below calls its authorizer.
        calls = []
        authorize = engine.Session._authorize

        def recording(self, *args):
            calls.append(args)
            return authorize(self, *args)

        monkeypatch.setattr(engine.Session, "_authorize", recording)
        # elf_sections stays LAZY for the fill below, and elf_strings so that
        # a table is pending at every measured execute: each then runs the
        # same `EXPLAIN` probe besides the statement itself.
        lazy = ("elf_sections", "elf_strings")
        strategies = {t: mode for t in TABLE_NAMES if t not in lazy}
        params = {"path": small_corpus.paths[0]}
        with register(small_corpus, strategies) as session:
            session.execute("SELECT COUNT(*) FROM elf_symbols")
            calls.clear()
            first = session.execute(self.SQL, params)
            compiled = list(calls)
            assert compiled and first.rows
            calls.clear()
            assert session.execute(self.SQL, params) == first
            assert calls == []
            session.execute("SELECT COUNT(*) FROM elf_sections")
            assert "elf_sections" not in session._pending and "elf_strings" in session._pending
            calls.clear()
            assert session.execute(self.SQL, params) == first
            assert calls == compiled

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_a_fills_statements_are_never_reused(self, small_corpus, mode):
        counts = [f'SELECT COUNT(*) FROM "{t}"' for t in TABLE_NAMES]
        with register(small_corpus, dict.fromkeys(TABLE_NAMES, mode)) as session:
            # In a LAZY session these counts fill every table.  Either way the
            # fills have prepared each statement below, and with two files in
            # the corpus the index exists.
            before = [session.execute(sql).rows for sql in counts]
            assert not session._pending and index_names(session._conn)
            for sql in ("BEGIN", "COMMIT"):
                with pytest.raises(WriteRejected):
                    session.execute(sql)
            # SQLite finds the index's name taken before it asks the authorizer.
            with pytest.raises(SqlError, match="already exists"):
                session.execute(engine._SYMBOL_INDEX_SQL)
            for name in TABLE_NAMES:
                for sql in (engine._INSERT_SQL[name], engine._BATCH_INSERT_SQL[name]):
                    # `execute` binds names only, and `sqlite3` binds a cached
                    # statement before SQLite re-prepares it, so the INSERT
                    # fails to bind.  Bound by position, the re-prepare refuses it.
                    with pytest.raises(SqlError):
                        session.execute(sql)
                    with pytest.raises(sqlite3.DatabaseError, match="not authorized"):
                        session._conn.execute(sql, [0] * sql.count("?"))
            assert not session._conn.in_transaction
            assert [session.execute(sql).rows for sql in counts] == before


class TestExport:
    def test_round_trip_counts(self, small_corpus, tmp_path):
        dest = str(tmp_path / "out.sqlite")
        with register(small_corpus) as session:
            before = _query_everything(session)
            summary = session.export_database(dest)
        assert summary.tables == len(TABLE_NAMES)
        assert summary.rows == sum(len(rows) for rows in before.values())
        conn = sqlite3.connect(dest)
        try:
            for table, rows in before.items():
                columns = ", ".join(f'"{c}"' for c, _ in SCHEMA[table])
                got = conn.execute(
                    f'SELECT {columns} FROM "{table}" ORDER BY {columns}'
                ).fetchall()
                assert tuple(tuple(r) for r in got) == rows
        finally:
            conn.close()

    def test_empty_export_has_all_tables_and_columns(self, tmp_path):
        dest = str(tmp_path / "empty.sqlite")
        with register(corpus.CorpusCatalog()) as session:
            summary = session.export_database(dest)
        assert summary.rows == 0
        conn = sqlite3.connect(dest)
        try:
            names = {
                r[0]
                for r in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            assert names == set(TABLE_NAMES)
            for table, columns in SCHEMA.items():
                info = conn.execute(f'PRAGMA table_info("{table}")').fetchall()
                assert [c[1] for c in info] == [c for c, _ in columns]
        finally:
            conn.close()

    def test_export_keeps_the_declared_schema(self, small_corpus, tmp_path):
        dest = str(tmp_path / "out.sqlite")
        with register(small_corpus) as session:
            session.export_database(dest)
            declared = session.schema_sql()
        conn = sqlite3.connect(dest)
        try:
            exported = tuple(
                r[0]
                for r in conn.execute(
                    "SELECT sql FROM sqlite_master WHERE type = 'table' ORDER BY name"
                )
            )
        finally:
            conn.close()
        assert exported == declared
        assert all("INTEGER" in sql for sql in declared)

    def test_stale_temp_file_is_overwritten(self, small_corpus, tmp_path):
        out = tmp_path / "export"
        out.mkdir()
        dest = out / "out.sqlite"
        stale = sqlite3.connect(out / f".out.sqlite.tmp{os.getpid()}")
        stale.execute('CREATE TABLE "elf_headers" (leftover)')
        stale.execute("CREATE TABLE leftover (x)")
        stale.commit()
        stale.close()
        with register(small_corpus) as session:
            summary = session.export_database(str(dest))
        conn = sqlite3.connect(dest)
        try:
            names = [r[0] for r in conn.execute("SELECT name FROM sqlite_master ORDER BY name")]
            headers = conn.execute("SELECT COUNT(*) FROM elf_headers").fetchone()[0]
        finally:
            conn.close()
        assert names == sorted(TABLE_NAMES + ("elf_symbols_path",))
        assert headers == summary.per_table["elf_headers"] == 2
        assert os.listdir(out) == ["out.sqlite"]

    def test_export_refuses_overwrite(self, small_corpus, tmp_path):
        dest = tmp_path / "out.sqlite"
        dest.write_bytes(b"precious")
        with register(small_corpus) as session:
            with pytest.raises(FileExistsError):
                session.export_database(str(dest))
            assert dest.read_bytes() == b"precious"
            session.export_database(str(dest), overwrite=True)
        assert dest.read_bytes()[:16] == b"SQLite format 3\x00"

    def test_export_idempotent(self, small_corpus, tmp_path):
        d1 = str(tmp_path / "one.sqlite")
        d2 = str(tmp_path / "two.sqlite")
        with register(small_corpus) as session:
            session.export_database(d1)
            session.export_database(d2)
        c1, c2 = sqlite3.connect(d1), sqlite3.connect(d2)
        try:
            for table in TABLE_NAMES:
                rows1 = sorted(map(repr, c1.execute(f'SELECT * FROM "{table}"')))
                rows2 = sorted(map(repr, c2.execute(f'SELECT * FROM "{table}"')))
                assert rows1 == rows2
        finally:
            c1.close()
            c2.close()

    def test_failed_export_leaves_nothing(self, small_corpus, tmp_path):
        target_dir = tmp_path / "destdir"
        target_dir.mkdir()
        with register(small_corpus) as session:
            with pytest.raises(ExportAborted):
                # replacing a directory fails after materialization
                session.export_database(str(target_dir), overwrite=True)
        leftovers = [p for p in os.listdir(tmp_path) if "tmp" in p]
        assert leftovers == []
        assert target_dir.is_dir()

    def test_interrupted_export_leaves_nothing(self, small_corpus, tmp_path, monkeypatch):
        before = sorted(os.listdir(tmp_path))

        def interrupt(src, dst):
            raise KeyboardInterrupt

        with register(small_corpus) as session:
            monkeypatch.setattr(os, "replace", interrupt)
            with pytest.raises(KeyboardInterrupt):
                session.export_database(str(tmp_path / "out.sqlite"))
        assert sorted(os.listdir(tmp_path)) == before

    def test_missing_directory(self, small_corpus, tmp_path):
        with register(small_corpus) as session:
            with pytest.raises(FileNotFoundError):
                session.export_database(str(tmp_path / "nope" / "out.sqlite"))

    def test_exported_file_readable_by_stock_sqlite(self, small_corpus, tmp_path):
        dest = str(tmp_path / "snap.sqlite")
        with register(small_corpus) as session:
            in_session = session.execute(
                "SELECT COUNT(*) FROM elf_symbols WHERE exported = 1"
            ).rows
        with register(small_corpus) as session:
            session.export_database(dest)
        conn = sqlite3.connect(f"file:{dest}?mode=ro", uri=True)
        try:
            assert (
                tuple(conn.execute("SELECT COUNT(*) FROM elf_symbols WHERE exported = 1"))
                == in_session
            )
        finally:
            conn.close()


class TestTemporaryDatabase:
    """The session database is SQLite's private temporary database: past
    its page cache it spills to a file that SQLite unlinks at once."""

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_16_kib_pages_in_the_session_and_its_export(self, small_corpus, mode, tmp_path):
        """The page cache keeps SQLite's default size in bytes, 2,000 KiB."""
        dest = str(tmp_path / "snap.sqlite")
        with register(small_corpus, dict.fromkeys(TABLE_NAMES, mode)) as session:
            assert session.execute("PRAGMA page_size").rows == ((16384,),)
            assert session.execute("PRAGMA cache_size").rows == ((-2000,),)
            session.export_database(dest)
        conn = sqlite3.connect(dest)
        try:
            assert conn.execute("PRAGMA page_size").fetchone() == (16384,)
        finally:
            conn.close()

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
    def test_a_fill_keeps_memory_bounded(self, symbols_1e5):
        script = """
            import os, sys
            from elfdb import corpus, engine

            def rss():
                with open("/proc/self/statm") as fh:
                    return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

            with engine.register(corpus.add_paths([sys.argv[1]])) as session:
                before = rss()
                session.execute("SELECT COUNT(*) FROM elf_symbols")
                grown = rss() - before
                [(pages,)] = session.execute("PRAGMA page_count").rows
                [(page_size,)] = session.execute("PRAGMA page_size").rows
            print([grown, pages * page_size])
        """
        grown, database = run_child(script, symbols_1e5)
        # 1e5 rows take about 10 MB; an in-memory database grew RSS by 8.3 MB.
        assert database > 8_000_000
        assert grown < database / 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_the_spill_goes_to_sqlite_tmpdir_and_leaves_nothing(self, symbols_1e5, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        script = """
            import os, sys
            from elfdb import corpus, engine

            def spilled():
                links = []
                for fd in os.listdir("/proc/self/fd"):
                    try:
                        links.append(os.readlink(f"/proc/self/fd/{fd}"))
                    except FileNotFoundError:  # the descriptor that listed the directory
                        pass
                return [link for link in links if link.startswith(os.environ["SQLITE_TMPDIR"])]

            with engine.register(corpus.add_paths([sys.argv[1]])) as session:
                session.execute("SELECT COUNT(*) FROM elf_symbols")
                during = [spilled(), os.listdir(os.environ["SQLITE_TMPDIR"])]
            print([during, [spilled(), os.listdir(os.environ["SQLITE_TMPDIR"])]])
        """
        (open_during, listed_during), after = run_child(script, symbols_1e5, SQLITE_TMPDIR=str(spill))
        assert open_during
        for link in open_during:
            assert os.path.dirname(link) == str(spill) and link.endswith(" (deleted)")
        assert listed_during == []
        assert after == [[], []]
        assert os.listdir(spill) == []


# The start of a child script: `open_inputs(directory)` lists the files under
# `directory` that the process maps or holds a descriptor of.
_OPEN_INPUTS = dedent(
    """
    import os

    def open_inputs(directory):
        names = set()
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)
                if len(fields) == 6:
                    names.add(fields[5].strip())
        for fd in os.listdir("/proc/self/fd"):
            try:
                names.add(os.readlink(f"/proc/self/fd/{fd}"))
            except FileNotFoundError:  # the descriptor that listed the directory
                pass
        return sorted(name for name in names if name.startswith(directory + os.sep))
    """
)

_NO_PROC = not (os.path.exists("/proc/self/maps") and os.path.isdir("/proc/self/fd"))


@pytest.fixture(scope="module")
def sized_files(tmp_path_factory) -> list[str]:
    """Six generated libraries padded with zeros to 2.5 MiB, past what any
    parse reads, so they are mapped; then four of 0.3 MB, which are read.
    Beside them, an `app` that needs all ten through its RUNPATH."""
    directory = os.path.realpath(tmp_path_factory.mktemp("sized"))
    paths = []
    for i in range(10):
        paths.append(os.path.join(directory, f"lib{i}.so"))
        count = 20_000 + 1_000 * i if i < 6 else 8_000
        bench.generate_elf(bench.GeneratedElfSpec(symbol_count=count), paths[-1])
        if i < 6:
            os.truncate(paths[-1], 5 << 19)
    mapped = [os.path.getsize(path) >= reader.MAP_THRESHOLD for path in paths]
    assert mapped == [True] * 6 + [False] * 4
    write_elf(
        os.path.join(directory, "app"),
        symbols=exported_funcs("main"),
        needed=[os.path.basename(path) for path in paths],
        runpath=directory,
    )
    return paths


@pytest.mark.skipif(_NO_PROC, reason="needs /proc/self/maps and /proc/self/fd")
class TestOneFileAtATime:
    """A catalog keeps no file mapped or open, and a fill maps, parses and
    releases one file at a time."""

    def test_a_catalog_keeps_no_input_open(self, sized_files):
        script = """
            import sys
            from elfdb import corpus

            directory = os.path.dirname(sys.argv[1])
            catalog = corpus.add_paths(sys.argv[1:])
            added = open_inputs(directory)
            app = corpus.add_paths([os.path.join(directory, "app")])
            resolved = corpus.resolve_recursive(app, corpus.SearchConfig(default_dirs=()))
            print([len(catalog), len(resolved), added, open_inputs(directory)])
        """
        script = _OPEN_INPUTS + dedent(script)
        files, resolved, added, after_resolution = run_child(script, *sized_files)
        assert (files, resolved) == (10, 11)
        assert added == after_resolution == []

    def test_a_fill_maps_one_input_at_a_time(self, sized_files):
        script = """
            import sys
            from elfdb import corpus, engine, model

            directory = os.path.dirname(sys.argv[1])
            produce = model.TABLE_PRODUCERS["elf_symbols"]
            probes = []

            def probed(obj):
                probes.append([obj.path, open_inputs(directory)])
                yield from produce(obj)

            model.TABLE_PRODUCERS["elf_symbols"] = probed
            with engine.register(corpus.add_paths(sys.argv[1:])) as session:
                session.execute("SELECT COUNT(*) FROM elf_symbols")
                probes.append(["after the fill", open_inputs(directory)])
            print(probes)
        """
        *during, after = run_child(_OPEN_INPUTS + dedent(script), *sized_files)
        assert [path for path, _ in during] == sized_files
        for path, open_now in during:
            # The file being filled, while mapped; never one filled before it.
            assert open_now == ([path] if os.path.getsize(path) >= reader.MAP_THRESHOLD else [])
        assert after == ["after the fill", []]

    def test_a_fill_grows_peak_rss_by_less_than_the_largest_file(self, sized_files):
        script = """
            import sys
            from elfdb import corpus, engine

            def peak_rss():
                with open("/proc/self/status") as fh:
                    [kib] = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
                return int(kib) * 1024

            engine.register(corpus.CorpusCatalog()).close()
            before = peak_rss()
            with engine.register(corpus.add_paths(sys.argv[1:])) as session:
                session.execute("SELECT COUNT(*) FROM elf_headers")
            print(peak_rss() - before)
        """
        grown = run_child(script, *sized_files)
        # A catalog that kept each file held every small file's bytes and
        # every page the parses touched: 5.6 MB here.
        assert grown < max(map(os.path.getsize, sized_files))


def _change(path: str, how: str) -> None:
    """Make the file at `path` another file: rename a new file over it,
    rewrite it in place with another size, touch it, or delete it."""
    if how == "rename":
        write_elf(path + ".new", symbols=exported_funcs("renamed"))
        os.replace(path + ".new", path)
    elif how == "rewrite":
        with open(path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.write(bytes(16))
    elif how == "touch":
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    else:
        os.unlink(path)


CHANGES = ("rename", "rewrite", "touch", "delete")


class TestChangedFile:
    """A file that is gone, or is another file, when a fill reads it again
    raises FileChanged naming it, and nothing of its table is inserted."""

    @pytest.fixture
    def files(self, tmp_path) -> tuple[str, str]:
        kept = str(tmp_path / "kept.so")
        changed = str(tmp_path / "changed.so")
        write_elf(kept, symbols=exported_funcs("k"))
        write_elf(changed, symbols=exported_funcs("c"), needed=["libz.so.1"])
        return os.path.realpath(kept), os.path.realpath(changed)

    @pytest.mark.parametrize("how", CHANGES)
    def test_a_statement_raises_and_its_table_stays_pending(self, files, how):
        kept, changed = files
        with register(corpus.add_paths([kept, changed])) as session:
            assert session.execute("SELECT COUNT(*) FROM elf_headers").rows == ((2,),)
            _change(changed, how)
            for _ in range(2):
                with pytest.raises(FileChanged, match=re.escape(changed)):
                    session.execute("SELECT COUNT(*) FROM elf_symbols")
                assert "elf_symbols" in session._pending
                assert session._conn.execute("SELECT COUNT(*) FROM elf_symbols").fetchone() == (0,)
                assert _temp_tables(session) == []
            assert session.execute("SELECT COUNT(*) FROM elf_headers").rows == ((2,),)

    @pytest.mark.parametrize("how", CHANGES)
    def test_a_memoized_registration_and_an_export_raise(self, files, how, tmp_path):
        kept, changed = files
        catalog = corpus.add_paths([kept, changed])
        _change(changed, how)
        with pytest.raises(FileChanged, match=re.escape(changed)):
            register(catalog, {"elf_symbols": StrategyMode.MEMOIZED})
        out = tmp_path / "out"
        out.mkdir()
        with register(catalog) as session:
            with pytest.raises(FileChanged, match=re.escape(changed)):
                session.export_database(str(out / "snap.sqlite"))
            assert set(session._pending) == set(TABLE_NAMES)
        assert os.listdir(out) == []

    def test_a_mapped_file_replaced_before_its_fill(self, mapped_elf, tmp_path):
        """The map of a catalogued file no longer keeps the old file
        readable once a new one is renamed over it."""
        path = str(tmp_path / "mapped.so")
        shutil.copyfile(mapped_elf, path)
        catalog = corpus.add_paths([path])
        _change(path, "rename")
        with register(catalog) as session:
            with pytest.raises(FileChanged, match=re.escape(path) + ".* ino"):
                session.execute("SELECT COUNT(*) FROM elf_symbols")


class TestFullDatabase:
    """A fill that meets SQLITE_FULL raises the error of the call that ran
    it, leaves its table empty and pending, and counts right on a retry."""

    def test_a_query_raises_sql_error(self, mapped_elf, full_session_database):
        with register(corpus.add_paths([mapped_elf])) as session:
            [conn] = full_session_database
            assert conn.execute("PRAGMA page_size").fetchone() == (16384,)
            assert conn.execute("PRAGMA max_page_count").fetchone() == (SESSION_PAGE_LIMIT,)
            assert session.execute("SELECT COUNT(*) FROM elf_headers").rows == ((1,),)
            with pytest.raises(SqlError, match="database or disk is full"):
                session.execute("SELECT COUNT(*) FROM elf_symbols")
            assert session._conn.execute("SELECT COUNT(*) FROM elf_symbols").fetchone() == (0,)
            assert "elf_symbols" in session._pending
            lift_page_limit(session)
            assert session.execute("SELECT COUNT(*) FROM elf_symbols").rows == ((30_001,),)

    def test_a_memoized_registration_raises_registration_failure(
        self, mapped_elf, full_session_database, monkeypatch
    ):
        catalog = corpus.add_paths([mapped_elf])
        memoized = {"elf_symbols": StrategyMode.MEMOIZED}
        with pytest.raises(RegistrationFailure, match="database or disk is full"):
            register(catalog, memoized)
        [conn] = full_session_database
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")
        monkeypatch.undo()
        with register(catalog, memoized) as session:
            assert session.execute("SELECT COUNT(*) FROM elf_symbols").rows == ((30_001,),)

    def test_an_export_raises_export_aborted_and_leaves_nothing(
        self, mapped_elf, full_session_database, tmp_path
    ):
        dest = tmp_path / "out.sqlite"
        with register(corpus.add_paths([mapped_elf])) as session:
            with pytest.raises(ExportAborted, match="database or disk is full"):
                session.export_database(str(dest))
            assert os.listdir(tmp_path) == []
            assert session._pending
            for table in session._pending:
                assert session._conn.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone() == (0,)
            lift_page_limit(session)
            summary = session.export_database(str(dest))
        assert summary.per_table["elf_symbols"] == 30_001
        assert os.listdir(tmp_path) == ["out.sqlite"]
