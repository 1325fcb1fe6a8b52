import os
import sqlite3
import struct
from contextlib import closing
from pathlib import Path

import pytest

from elfdb import analyses, corpus, engine, model, reader
from elfdb.analyses import (
    UnknownPath,
    count_symbols,
    diff_symbols,
    interposition_audit,
    python_extension_check,
    runpath,
    symbol_histogram,
)
from elfdb.bench import GeneratedElfSpec, SymbolSpec, generate_elf, write_elf
from elfdb.reader import DataEncoding, ElfClass

from conftest import RUBY_LIKE, exported_funcs, readelf_dynamic, system_elves, write_varied_elf


def session_over(*paths):
    return engine.register(corpus.add_paths(list(paths)))


class TestInterpositionAudit:
    def test_planted_duplicate(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=exported_funcs("foo", "only_a"))
        write_elf(b, symbols=exported_funcs("foo", "only_b"))
        with session_over(a, b) as session:
            report = interposition_audit(session)
        assert report.columns == ("name", "version", "symbol_count", "libraries")
        assert len(report.rows) == 1
        name, version, count, libraries = report.rows[0]
        assert (name, version, count) == ("foo", None, 2)
        assert libraries == ":".join(sorted([os.path.realpath(a), os.path.realpath(b)]))

    def test_single_file_no_duplicates(self, tmp_path):
        a = str(tmp_path / "a.so")
        write_elf(a, symbols=exported_funcs("foo", "bar"))
        with session_over(a) as session:
            assert interposition_audit(session).rows == ()

    def test_bss_duplicates_excluded(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=[SymbolSpec("dup", sym_type="OBJECT", section=".bss", size=8)])
        write_elf(b, symbols=[SymbolSpec("dup", sym_type="OBJECT", section=".bss", size=8)])
        with session_over(a, b) as session:
            assert interposition_audit(session).rows == ()

    def test_local_and_imported_duplicates_excluded(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        for path in (a, b):
            write_elf(
                path,
                symbols=[
                    SymbolSpec("local_dup", binding="LOCAL"),
                    SymbolSpec("import_dup", section="SHN_UNDEF"),
                ],
            )
        with session_over(a, b) as session:
            assert interposition_audit(session).rows == ()

    def test_paths_containing_colons(self, tmp_path):
        lib_dir = tmp_path / "a:b"
        lib_dir.mkdir()
        a = str(lib_dir / "x.so")
        b = str(lib_dir / "y.so")
        write_elf(a, symbols=exported_funcs("foo"))
        write_elf(b, symbols=exported_funcs("foo"))
        with session_over(b, a) as session:
            ((_name, _version, count, libraries),) = interposition_audit(session).rows
        assert count == 2
        assert libraries == ":".join(sorted([os.path.realpath(a), os.path.realpath(b)]))

    def test_unique_duplicates_reported(self, tmp_path):
        unique = SymbolSpec(
            "_ZZN3app8instanceEvE1x", binding="GNU_UNIQUE", sym_type="OBJECT", section=".data"
        )
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=[unique])
        write_elf(b, symbols=[unique])
        with session_over(a, b) as session:
            rows = interposition_audit(session).rows
        assert [(name, count) for name, _version, count, _libraries in rows] == [(unique.name, 2)]

    def test_report_invariant_under_registration_order(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=exported_funcs("foo"))
        write_elf(b, symbols=exported_funcs("foo"))
        with session_over(a, b) as one, session_over(b, a) as two:
            assert interposition_audit(one).rows == interposition_audit(two).rows


class TestCountSymbols:
    def test_interpreter_fixture_is_22(self):
        with session_over(RUBY_LIKE) as session:
            assert count_symbols(session, RUBY_LIKE) == 22

    def test_null_only_imported_count_zero(self, tmp_path):
        lib = str(tmp_path / "n.so")
        write_elf(lib, symbols=[])
        with session_over(lib) as session:
            assert count_symbols(session, lib, imported_only=True) == 0
            assert count_symbols(session, lib) == 1

    def test_generated_file_counts_null_row(self, tmp_path):
        dest = str(tmp_path / "g.so")
        manifest = generate_elf(GeneratedElfSpec(symbol_count=37), dest)
        with session_over(dest) as session:
            assert count_symbols(session, dest) == len(manifest.names) + 1

    def test_falls_back_to_symtab(self, tmp_path):
        lib = str(tmp_path / "s.so")
        # no dynsym content beyond null, but a populated symtab
        write_elf(lib, symbols=[], symtab_symbols=exported_funcs("one", "two"))
        with session_over(lib) as session:
            # .dynsym exists (null only) so it wins the table choice
            assert count_symbols(session, lib) == 1

    def test_unknown_path(self, tmp_path):
        lib = str(tmp_path / "k.so")
        write_elf(lib, symbols=[])
        with session_over(lib) as session:
            with pytest.raises(UnknownPath):
                count_symbols(session, "/no/such/file")

    def test_path_not_valid_utf8(self, non_utf8_lib):
        with session_over(non_utf8_lib) as session:
            assert count_symbols(session, non_utf8_lib) == 3
            assert count_symbols(session, non_utf8_lib, imported_only=True) == 0
            (path,) = session.execute("SELECT path FROM elf_headers").rows[0]
        assert path.endswith("/lib\\xffz.so")


class TestRunpath:
    def test_two_entries(self, tmp_path):
        lib = str(tmp_path / "r.so")
        write_elf(lib, symbols=exported_funcs("f"), runpath="/opt/lib:/usr/local/lib")
        with session_over(lib) as session:
            assert runpath(session, lib) == ["/opt/lib", "/usr/local/lib"]

    def test_absent(self, tmp_path):
        lib = str(tmp_path / "r.so")
        write_elf(lib, symbols=[])
        with session_over(lib) as session:
            assert runpath(session, lib) == []

    def test_split_semantics(self, tmp_path):
        lib = str(tmp_path / "r.so")
        write_elf(lib, symbols=exported_funcs("f"), runpath="a:b")
        with session_over(lib) as session:
            assert runpath(session, lib) == ["a", "b"]

    def test_rpath_fallback(self, tmp_path):
        lib = str(tmp_path / "r.so")
        write_elf(lib, symbols=exported_funcs("f"), rpath="/legacy")
        with session_over(lib) as session:
            assert runpath(session, lib) == ["/legacy"]

    def test_offset_inside_another_entry(self, tmp_path):
        """A RUNPATH offset 5 bytes into a NEEDED string names that
        string's tail, as readelf -d resolves it."""
        lib = tmp_path / "r.so"
        written = write_elf(
            str(lib), symbols=exported_funcs("f"), needed=["libz:/opt/lib"], runpath="/elsewhere"
        )
        obj = reader.load_elf(str(lib))
        entry = next(e for e in obj.dynamic if e.tag_code == reader.DT_RUNPATH)
        d_val_at = obj.section_named(".dynamic").offset + entry.ordinal * 16 + 8
        data = bytearray(lib.read_bytes())
        struct.pack_into("<Q", data, d_val_at, written.dynstr_offsets["libz:/opt/lib"] + 5)
        lib.write_bytes(data)
        [oracle] = [value for tag, value in readelf_dynamic(str(lib)) if tag == "RUNPATH"]
        assert oracle == "/opt/lib"
        assert reader.dynamic_string(reader.load_elf(str(lib)), reader.DT_RUNPATH) == oracle
        with session_over(str(lib)) as session:
            assert runpath(session, str(lib)) == [oracle]
            stored = session.execute(
                "SELECT string FROM elf_dynamic_entries WHERE tag = 'RUNPATH'"
            ).rows
        assert stored == ((oracle,),)


class TestPythonExtensionCheck:
    def test_py3_extension(self, tmp_path):
        lib = str(tmp_path / "spam3.so")
        write_elf(lib, symbols=exported_funcs("PyInit_spam"))
        with session_over(lib) as session:
            assert python_extension_check(session, lib, "spam") == 3

    def test_py2_extension(self, tmp_path):
        lib = str(tmp_path / "spam2.so")
        write_elf(lib, symbols=exported_funcs("initspam"))
        with session_over(lib) as session:
            assert python_extension_check(session, lib, "spam") == 2

    def test_cffi_pypy(self, tmp_path):
        lib = str(tmp_path / "cffi.so")
        write_elf(lib, symbols=exported_funcs("_cffi_pypyinit_spam"))
        with session_over(lib) as session:
            assert python_extension_check(session, lib, "spam") == 2

    def test_imported_init_does_not_count(self, tmp_path):
        lib = str(tmp_path / "imp.so")
        write_elf(lib, symbols=[SymbolSpec("PyInit_spam", section="SHN_UNDEF")])
        with session_over(lib) as session:
            assert python_extension_check(session, lib, "spam") is None

    def test_no_match(self, tmp_path):
        lib = str(tmp_path / "plain.so")
        write_elf(lib, symbols=exported_funcs("whatever"))
        with session_over(lib) as session:
            assert python_extension_check(session, lib, "spam") is None

    def test_wrong_module_name(self, tmp_path):
        lib = str(tmp_path / "other.so")
        write_elf(lib, symbols=exported_funcs("PyInit_spam"))
        with session_over(lib) as session:
            assert python_extension_check(session, lib, "eggs") is None


class TestDiffSymbols:
    def test_identical_is_empty(self, tmp_path):
        lib = str(tmp_path / "same.so")
        write_elf(lib, symbols=exported_funcs("f", "g"))
        with session_over(lib) as session:
            assert diff_symbols(session, lib, lib).rows == ()

    def test_added_function(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=[SymbolSpec("f", size=8)])
        write_elf(b, symbols=[SymbolSpec("f", size=8), SymbolSpec("g", size=16)])
        with session_over(a, b) as session:
            report = diff_symbols(session, a, b)
        assert report.rows == (("ADDED", "g", "g", "FUNC", None, 16),)

    def test_zero_size_symbols_ignored(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=[SymbolSpec("zero", size=0)])
        write_elf(b, symbols=[])
        with session_over(a, b) as session:
            assert diff_symbols(session, a, b).rows == ()

    def test_added_removed_resized_trio(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(
            a,
            symbols=[
                SymbolSpec("stays", size=4),
                SymbolSpec("gone", sym_type="OBJECT", section=".data", size=8),
                SymbolSpec("grows", size=16),
            ],
        )
        write_elf(
            b,
            symbols=[
                SymbolSpec("stays", size=4),
                SymbolSpec("fresh", size=32),
                SymbolSpec("grows", size=24),
            ],
        )
        with session_over(a, b) as session:
            report = diff_symbols(session, a, b)
        assert report.rows == (
            ("ADDED", "fresh", "fresh", "FUNC", None, 32),
            ("REMOVED", "gone", "gone", "OBJECT", 8, None),
            ("RESIZED", "grows", "grows", "FUNC", 16, 24),
        )

    def test_added_equals_reverse_removed(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=[SymbolSpec("x", size=4)])
        write_elf(b, symbols=[SymbolSpec("x", size=4), SymbolSpec("y", size=2)])
        with session_over(a, b) as session:
            forward = diff_symbols(session, a, b)
            backward = diff_symbols(session, b, a)
        added = [r[1:] for r in forward.rows if r[0] == "ADDED"]
        removed = [
            (r[1], r[2], r[3], None, r[4]) for r in backward.rows if r[0] == "REMOVED"
        ]
        assert added == removed

    def test_unknown_path(self, tmp_path):
        lib = str(tmp_path / "x.so")
        write_elf(lib, symbols=[])
        with session_over(lib) as session:
            with pytest.raises(UnknownPath):
                diff_symbols(session, lib, "/absent")

    def test_first_row_of_a_name_wins(self, tmp_path):
        # `f` of .dynsym, the first table, is 8 bytes and `f` of .symtab 16.
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=[SymbolSpec("f", size=8)], symtab_symbols=[SymbolSpec("f", size=16)])
        write_elf(b, symbols=[SymbolSpec("f", size=8)])
        with session_over(a, b) as session:
            assert diff_symbols(session, a, b).rows == ()
            assert diff_symbols(session, b, a).rows == ()

    def test_stock_sqlite_on_an_export_agrees(self, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=[SymbolSpec("stays"), SymbolSpec("gone"), SymbolSpec("grows", size=2)])
        write_elf(b, symbols=[SymbolSpec("stays"), SymbolSpec("fresh"), SymbolSpec("grows", size=9)])
        dest = str(tmp_path / "export.sqlite")
        with session_over(a, b) as session:
            session.export_database(dest)
            want = [diff_symbols(session, a, b).rows, diff_symbols(session, b, a).rows]
        real_a, real_b = os.path.realpath(a), os.path.realpath(b)
        with closing(sqlite3.connect(dest)) as conn:
            got = [
                tuple(conn.execute(analyses._DIFF_SQL, {"a": x, "b": y}).fetchall())
                for x, y in ((real_a, real_b), (real_b, real_a))
            ]
        assert got == want
        assert {row[0] for row in want[0]} == {"ADDED", "REMOVED", "RESIZED"}


class TestSymbolHistogram:
    def test_planted_counts(self, tmp_path):
        targets = {"five.so": 5, "fifty.so": 50, "fivehundred.so": 500}
        paths = []
        for name, total in targets.items():
            dest = str(tmp_path / name)
            generate_elf(GeneratedElfSpec(symbol_count=total - 1), dest)
            paths.append(dest)
        with session_over(*paths) as session:
            report = symbol_histogram(session)
        counts = {os.path.basename(path): n for path, n in report.rows}
        assert counts == targets
        assert [n for _, n in report.rows] == [500, 50, 5]  # descending
        assert report.buckets == (("1-9", 1), ("10-99", 1), ("100-999", 1))

    def test_empty_corpus(self):
        with engine.register(corpus.CorpusCatalog()) as session:
            report = symbol_histogram(session)
        assert report.rows == ()
        assert report.buckets == ()

    def test_fixed_bucket_width(self, tmp_path):
        for i, total in enumerate((3, 7, 12)):
            generate_elf(GeneratedElfSpec(symbol_count=total - 1), str(tmp_path / f"f{i}.so"))
        with session_over(*(str(p) for p in sorted(tmp_path.iterdir()))) as session:
            report = symbol_histogram(session, bucket_width=10)
        assert report.buckets == (("0-9", 2), ("10-19", 1))

    @pytest.mark.parametrize("width", [0, -5])
    def test_non_positive_bucket_width_rejected(self, width):
        with engine.register(corpus.CorpusCatalog()) as session:
            with pytest.raises(ValueError, match="bucket_width"):
                symbol_histogram(session, bucket_width=width)


# The statements `count_symbols` and `symbol_histogram` ran before each
# became one scan of elf_symbols, kept verbatim as the reference.
_OLD_COUNT_TABLE_SQL = """
    SELECT COUNT(*) FROM elf_symbols
    WHERE path = :path AND "table" = (
        SELECT CASE WHEN EXISTS (
            SELECT 1 FROM elf_symbols WHERE path = :path AND "table" = '.dynsym'
        ) THEN '.dynsym' ELSE '.symtab' END
    )
"""

_OLD_HISTOGRAM_SQL = """
    SELECT elf_headers.path, COUNT(elf_symbols.path) AS symbol_count
    FROM elf_headers
    LEFT JOIN elf_symbols ON elf_symbols.path = elf_headers.path
    GROUP BY elf_headers.path
    ORDER BY symbol_count DESC, elf_headers.path
"""


def hide_sections(path: str, *names: str) -> str:
    """Retype the named sections of an ELF64-LSB file as SHT_PROGBITS, so
    the reader finds no symbol table in them."""
    obj = reader.load_elf(path)
    data = bytearray(Path(path).read_bytes())
    for sec in obj.sections:
        if sec.name in names:
            struct.pack_into("<I", data, obj.header.shoff + sec.index * obj.header.shentsize + 4, 1)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def symtab_only(tmp_path) -> list[str]:
    lib = str(tmp_path / "symtab_only.so")
    write_elf(lib, symbols=exported_funcs("dyn"), symtab_symbols=exported_funcs("one", "two"))
    return [hide_sections(lib, ".dynsym")]


def no_symbol_rows(tmp_path) -> list[str]:
    lib = str(tmp_path / "no_symbols.so")
    write_elf(lib, symbols=exported_funcs("dyn"), symtab_symbols=exported_funcs("one"))
    return [hide_sections(lib, ".dynsym", ".symtab"), RUBY_LIKE]


REFERENCE_INPUTS = {
    "ruby_like": lambda tmp_path: [RUBY_LIKE],
    "generated": lambda tmp_path: [
        write_varied_elf(str(tmp_path / "msb32.so"), ElfClass.ELF32, DataEncoding.MSB),
        write_varied_elf(str(tmp_path / "lsb64.so"), ElfClass.ELF64, DataEncoding.LSB),
    ],
    "symtab-only": symtab_only,
    "no-symbol-rows": no_symbol_rows,
    "system": lambda tmp_path: system_elves(limit=6),
}


class TestOneScanStatements:
    @pytest.mark.parametrize("inputs", list(REFERENCE_INPUTS))
    def test_equal_to_the_old_statements_everywhere(self, inputs, tmp_path, monkeypatch):
        catalog = corpus.add_paths(REFERENCE_INPUTS[inputs](tmp_path))
        # Neither statement reads elf_instructions, whose toy decoder would
        # make the export of the system files take seconds.
        monkeypatch.setitem(model.TABLE_PRODUCERS, "elf_instructions", lambda obj: ())
        dest = str(tmp_path / "export.sqlite")
        memoized = {t: engine.StrategyMode.MEMOIZED for t in model.TABLE_NAMES}
        with engine.register(catalog) as lazy, engine.register(catalog, memoized) as memo:
            memo.export_database(dest)
            stock = sqlite3.connect(f"file:{dest}?mode=ro", uri=True)
            try:
                # The new statements run first, so the LAZY session fills
                # through them.
                runs = {
                    "lazy": lambda sql, params: lazy.execute(sql, params).rows,
                    "memoized": lambda sql, params: memo.execute(sql, params).rows,
                    "stock": lambda sql, params: tuple(stock.execute(sql, params)),
                }
                for where, run in runs.items():
                    histogram = run(analyses._HISTOGRAM_SQL, {})
                    assert histogram == run(_OLD_HISTOGRAM_SQL, {}), where
                    assert len(histogram) == len(catalog.paths), where
                    for path in catalog.paths:
                        params = {"path": path}
                        count = run(analyses._COUNT_TABLE_SQL, params)
                        assert count == run(_OLD_COUNT_TABLE_SQL, params), (where, path)
                for session in (lazy, memo):
                    report = symbol_histogram(session)
                    assert report.columns == ("path", "symbol_count")
                    assert report.columns == session.execute(_OLD_HISTOGRAM_SQL).columns
                    assert report.rows == histogram
                    for path in catalog.paths:
                        assert (count_symbols(session, path),) == session.execute(
                            _OLD_COUNT_TABLE_SQL, {"path": path}
                        ).rows[0]
            finally:
                stock.close()

    def test_symtab_only_file_counts_its_symtab(self, tmp_path):
        [lib] = symtab_only(tmp_path)
        with session_over(lib) as session:
            assert count_symbols(session, lib) == 3  # null row, one, two
            tables = session.execute('SELECT DISTINCT "table" FROM elf_symbols').rows
        assert tables == ((".symtab",),)

    def test_file_without_symbol_rows_counts_zero(self, tmp_path):
        lib, other = (os.path.realpath(p) for p in no_symbol_rows(tmp_path))
        with session_over(lib, other) as session:
            rows = session.execute("SELECT COUNT(*) FROM elf_symbols WHERE path = :p", {"p": lib})
            assert rows.rows == ((0,),)
            assert count_symbols(session, lib) == 0
            report = symbol_histogram(session)
        assert report.rows == ((other, 22), (lib, 0))
        assert report.buckets == (("0", 1), ("10-99", 1))


def every_analysis(session, paths) -> dict:
    """Each canned analysis over `session`, keyed by analysis and arguments."""
    out: dict = {}
    for path in paths:
        out["count", path] = count_symbols(session, path)
        out["imported", path] = count_symbols(session, path, imported_only=True)
    out["audit"] = interposition_audit(session)
    out["histogram"] = symbol_histogram(session)
    out["histogram", 10] = symbol_histogram(session, bucket_width=10)
    for path in paths:
        out["runpath", path] = runpath(session, path)
        out["python", path] = python_extension_check(session, path, "spam")
        for other in paths:
            if other != path:
                out["diff", path, other] = diff_symbols(session, path, other)
    return out


class TestSymbolIndex:
    @pytest.mark.parametrize("mode", list(engine.StrategyMode))
    def test_every_analysis_agrees_without_it(self, mode, tmp_path):
        ext = str(tmp_path / "ext.so")
        write_elf(
            ext,
            symbols=exported_funcs("PyInit_spam", "helper") + [SymbolSpec("plain", size=16)],
            runpath="/opt/ext:/opt/lib",
        )
        catalog = corpus.add_paths(
            [
                RUBY_LIKE,
                write_varied_elf(str(tmp_path / "msb32.so"), ElfClass.ELF32, DataEncoding.MSB),
                write_varied_elf(str(tmp_path / "lsb64.so"), ElfClass.ELF64, DataEncoding.LSB),
                ext,
                *symtab_only(tmp_path),
                no_symbol_rows(tmp_path)[0],
                *system_elves(limit=3),
            ]
        )
        strategies = {"elf_symbols": mode}
        plan = "EXPLAIN QUERY PLAN " + analyses._COUNT_TABLE_SQL
        with engine.register(catalog, strategies) as indexed, engine.register(
            catalog, strategies
        ) as plain:
            plain.execute("SELECT COUNT(*) FROM elf_symbols")
            plain._conn.set_authorizer(engine._allow_all)
            plain._conn.execute("DROP INDEX elf_symbols_path")
            plain._conn.set_authorizer(plain._authorize)
            want = every_analysis(plain, catalog.paths)
            # A LAZY session fills elf_symbols, and so builds the index, on its first count.
            got = every_analysis(indexed, catalog.paths)
            params = {"path": catalog.paths[0]}
            assert "elf_symbols_path" in str(indexed.execute(plan, params).rows)
            assert "elf_symbols_path" not in str(plain.execute(plan, params).rows)
        assert got == want
        assert want["python", os.path.realpath(ext)] == 3
        assert want["audit"].rows and want["histogram"].rows
        assert any(want[key].rows for key in want if key[0] == "diff")
