import io
import json
import os
import sqlite3
import subprocess
import sys
from typing import Sequence

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elfdb import cli, corpus, engine, reader
from elfdb.bench import GeneratedElfSpec, SymbolSpec, generate_elf, write_elf
from elfdb.cli import FORMATS, _cell_text, main, write_csv, write_json, write_table
from elfdb.engine import register

from conftest import RUBY_LIKE, child_env, exported_funcs, run_child


@pytest.fixture
def lib(tmp_path):
    path = str(tmp_path / "lib.so")
    write_elf(
        path,
        symbols=exported_funcs("alpha", "beta")
        + [SymbolSpec("needs_me", section="SHN_UNDEF")],
        runpath="/opt/lib",
    )
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuery:
    def test_single_cell_count(self, capsys, lib):
        code, out, _ = run_cli(
            capsys,
            "query",
            lib,
            "--sql",
            "SELECT COUNT(*) AS imported FROM elf_symbols WHERE imported = 1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "imported"
        assert lines[2].strip() == "1"

    def test_json_format(self, capsys, lib):
        code, out, _ = run_cli(
            capsys,
            "query",
            lib,
            "--format",
            "json",
            "--sql",
            "SELECT name, exported FROM elf_symbols WHERE exported = 1 ORDER BY name",
        )
        assert code == 0
        assert json.loads(out) == [
            {"name": "alpha", "exported": 1},
            {"name": "beta", "exported": 1},
        ]

    def test_csv_format(self, capsys, lib):
        code, out, _ = run_cli(
            capsys,
            "query",
            lib,
            "--format",
            "csv",
            "--sql",
            "SELECT name FROM elf_symbols WHERE exported = 1 ORDER BY name",
        )
        assert code == 0
        assert out.strip().splitlines() == ["name", "alpha", "beta"]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_blob_cell_as_hex_literal(self, capsys, lib, fmt):
        """A BLOB cell is printed as SQL's literal of its bytes, x'<hex>'."""
        content = reader.load_elf(lib).section_named(".dynstr").content
        code, out, _ = run_cli(
            capsys, "query", lib, "--format", fmt,
            "--sql", "SELECT content FROM elf_sections WHERE name = '.dynstr'",
        )
        assert code == 0
        literal = f"x'{content.hex()}'"
        if fmt == "json":
            assert json.loads(out) == [{"content": literal}]
        else:
            assert out.strip().splitlines()[-1] == literal

    def test_output_stable_across_runs(self, capsys, lib):
        argv = (
            "query",
            lib,
            "--format",
            "json",
            "--sql",
            "SELECT \"table\", name FROM elf_symbols ORDER BY \"table\", \"index\"",
        )
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_sql_file(self, capsys, lib, tmp_path):
        sql_file = tmp_path / "query.sql"
        sql_file.write_text("SELECT COUNT(*) FROM elf_headers")
        code, out, _ = run_cli(capsys, "query", lib, "--sql-file", str(sql_file))
        assert code == 0
        assert out.strip().splitlines()[-1].strip() == "1"

    def test_sql_file_not_utf8_exit_one(self, capsys, lib, tmp_path):
        sql_file = tmp_path / "bad.sql"
        sql_file.write_bytes(b"SELECT \xff\xfe 1")
        code, out, err = run_cli(capsys, "query", lib, "--sql-file", str(sql_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "bad.sql" in err

    def test_memoize_is_not_an_option(self, capsys, lib):
        code, out, err = run_cli(capsys, "query", lib, "--memoize", "all", "--sql", "SELECT 1")
        assert code == 2
        assert out == "" and "--memoize" in err

    def test_missing_paths_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "query", "--sql", "SELECT 1")
        assert code == 2

    def test_sql_and_sql_file_conflict(self, capsys, lib, tmp_path):
        f = tmp_path / "q.sql"
        f.write_text("SELECT 1")
        code, _, _ = run_cli(capsys, "query", lib, "--sql", "SELECT 1", "--sql-file", str(f))
        assert code == 2

    def test_path_not_valid_utf8(self, capsys, non_utf8_lib):
        directory = os.path.dirname(non_utf8_lib)
        sql = "SELECT path, COUNT(*) FROM elf_symbols GROUP BY path"
        code, out, err = run_cli(capsys, "query", directory, "--sql", sql)
        assert code == 0, err
        ((label, count),) = [[c.strip() for c in line.split("|")] for line in out.splitlines()[2:]]
        assert label.endswith("/lib\\xffz.so") and count == "3"

    def test_sql_error_exit_one(self, capsys, lib):
        code, _, err = run_cli(capsys, "query", lib, "--sql", "SELECT nope FROM elf_symbols")
        assert code == 1
        assert "nope" in err

    def test_write_rejected_exit_one(self, capsys, lib):
        code, _, err = run_cli(capsys, "query", lib, "--sql", "DELETE FROM elf_symbols")
        assert code == 1
        assert "error" in err


class TestRepl:
    def test_scripted_statements(self, capsys, lib, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(
            "SELECT COUNT(*) FROM elf_headers;\nSELECT 2;\n"
        ))
        code, out, _ = run_cli(capsys, "repl", lib)
        assert code == 0
        blocks = out.strip().split("\n\n") if "\n\n" in out else [out]
        assert "COUNT(*)" in out
        assert "2" in out

    def test_tables_meta_command(self, capsys, lib, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(".tables\n.quit\n"))
        code, out, _ = run_cli(capsys, "repl", lib)
        assert code == 0
        listed = out.strip().splitlines()
        assert listed == [
            "elf_headers",
            "elf_sections",
            "elf_segments",
            "elf_symbols",
            "elf_strings",
            "elf_dynamic_entries",
            "elf_instructions",
        ]

    def test_schema_meta_command(self, capsys, lib, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(".schema\n"))
        code, out, _ = run_cli(capsys, "repl", lib)
        assert code == 0
        assert 'CREATE TABLE "elf_symbols"' in out

    def test_error_recovery(self, capsys, lib, monkeypatch):
        import io

        with register(corpus.add_paths([lib])) as session:
            (strings,), = session.execute("SELECT COUNT(*) FROM elf_strings").rows
        for script, expected in (
            ("SELECT broken FROM nowhere;\nSELECT 7;\n", "7"),
            # a refused pragma setter leaves LAZY tables fillable
            ("PRAGMA query_only = 1;\nSELECT COUNT(*) FROM elf_strings;\n", str(strings)),
        ):
            monkeypatch.setattr("sys.stdin", io.StringIO(script))
            code, out, err = run_cli(capsys, "repl", lib)
            assert code == 0
            assert "error" in err
            assert expected in out

    def test_multiline_statement(self, capsys, lib, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("SELECT COUNT(*)\nFROM elf_headers\n;\n")
        )
        code, out, _ = run_cli(capsys, "repl", lib)
        assert code == 0
        assert "1" in out


class TestExport:
    def test_round_trip(self, capsys, lib, tmp_path):
        out_db = str(tmp_path / "snap.sqlite")
        code, out, _ = run_cli(capsys, "export", lib, "--out", out_db)
        assert code == 0
        assert "7 tables" in out
        conn = sqlite3.connect(out_db)
        try:
            count = conn.execute("SELECT COUNT(*) FROM elf_symbols").fetchone()[0]
        finally:
            conn.close()
        assert count == 4

    def test_refuses_overwrite_without_force(self, capsys, lib, tmp_path):
        out_db = tmp_path / "snap.sqlite"
        out_db.write_bytes(b"keep me")
        code, _, err = run_cli(capsys, "export", lib, "--out", str(out_db))
        assert code == 1
        assert out_db.read_bytes() == b"keep me"
        code, _, _ = run_cli(capsys, "export", lib, "--out", str(out_db), "--force")
        assert code == 0
        assert out_db.read_bytes()[:15] == b"SQLite format 3"

    def test_a_full_session_database_exits_1_and_leaves_nothing(
        self, capsys, mapped_elf, tmp_path, full_session_database
    ):
        code, out, err = run_cli(capsys, "export", mapped_elf, "--out", str(tmp_path / "snap.sqlite"))
        assert (code, out, err) == (1, "", "error: database or disk is full\n")
        assert os.listdir(tmp_path) == []

    def test_directory_export(self, capsys, tmp_path):
        for i in range(3):
            write_elf(str(tmp_path / f"m{i}.so"), symbols=exported_funcs(f"fn{i}"))
        out_db = str(tmp_path / "corpus.sqlite")
        code, out, _ = run_cli(capsys, "export", str(tmp_path), "--out", out_db)
        assert code == 0
        conn = sqlite3.connect(out_db)
        try:
            files = conn.execute("SELECT COUNT(DISTINCT path) FROM elf_headers").fetchone()[0]
        finally:
            conn.close()
        assert files == 3


class TestAnalysisCommands:
    def test_audit_planted_corpus(self, capsys, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=exported_funcs("dup_fn"))
        write_elf(b, symbols=exported_funcs("dup_fn"))
        code, out, _ = run_cli(capsys, "audit", a, b, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,version,symbol_count,libraries"
        assert len(lines) == 2
        assert lines[1].startswith("dup_fn,,2,")

    def test_diff_self_reports_no_differences(self, capsys, lib):
        code, out, _ = run_cli(capsys, "diff", lib, lib)
        assert code == 0
        assert out.strip() == "no differences"

    def test_diff_reports_changes(self, capsys, tmp_path):
        a = str(tmp_path / "a.so")
        b = str(tmp_path / "b.so")
        write_elf(a, symbols=[SymbolSpec("f", size=4)])
        write_elf(b, symbols=[SymbolSpec("f", size=4), SymbolSpec("g", size=8)])
        code, out, _ = run_cli(capsys, "diff", a, b, "--format", "csv")
        assert code == 0
        assert "ADDED,g,g,FUNC,,8" in out

    def test_histogram_planted(self, capsys, tmp_path):
        write_elf(str(tmp_path / "one.so"), symbols=exported_funcs(*[f"s{i}" for i in range(4)]))
        code, out, _ = run_cli(capsys, "histogram", str(tmp_path))
        assert code == 0
        assert "symbol_count" in out
        assert "bucket" in out
        assert "1-9" in out

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_histogram_non_positive_bucket_width_is_usage_error(self, capsys, width):
        code, out, err = run_cli(capsys, "histogram", RUBY_LIKE, "--bucket-width", width)
        assert code == 2
        assert out == ""
        assert "--bucket-width" in err

    def test_recursive_flag(self, capsys, tmp_path):
        libdir = tmp_path / "libs"
        libdir.mkdir()
        write_elf(str(libdir / "libdep.so"), symbols=exported_funcs("dep_fn"), soname="libdep.so")
        app = str(tmp_path / "app")
        write_elf(app, symbols=exported_funcs("main_fn"), needed=["libdep.so"], runpath=str(libdir))
        code, out, _ = run_cli(
            capsys,
            "query",
            app,
            "--recursive",
            "--format",
            "csv",
            "--sql",
            "SELECT COUNT(DISTINCT path) FROM elf_headers",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "2"

    @pytest.mark.parametrize("flag", [["--env-search-path"], []], ids=["flag", "no_flag"])
    def test_env_search_path_flag(self, capsys, tmp_path, monkeypatch, flag):
        """With --env-search-path, --recursive finds a dependency that only
        LD_LIBRARY_PATH names; without it, the dependency is unresolved."""
        libdir = tmp_path / "libs"
        libdir.mkdir()
        write_elf(str(libdir / "libenvonly.so"), symbols=exported_funcs("dep_fn"), soname="libenvonly.so")
        app = str(tmp_path / "app")
        write_elf(app, symbols=exported_funcs("main_fn"), needed=["libenvonly.so"])
        monkeypatch.setenv("LD_LIBRARY_PATH", str(libdir))
        code, out, err = run_cli(
            capsys, "query", app, "--recursive", *flag, "--format", "csv",
            "--sql", "SELECT COUNT(DISTINCT path) FROM elf_headers",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == ("2" if flag else "1")
        assert ("unresolved dependency libenvonly.so" in err) == (not flag)

    def test_unresolved_dependency_warns_but_succeeds(self, capsys, tmp_path):
        app = str(tmp_path / "app")
        write_elf(app, symbols=exported_funcs("m"), needed=["libnothere.so"])
        code, out, err = run_cli(
            capsys, "query", app, "--recursive", "--sql", "SELECT COUNT(*) FROM elf_headers"
        )
        assert code == 0
        assert "libnothere.so" in err


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_nonexistent_input_path(self, capsys):
        code, _, err = run_cli(capsys, "query", "/no/such/input", "--sql", "SELECT 1")
        assert code == 1
        assert err


class TestStartup:
    def test_query_run_loads_only_what_it_runs(self):
        # `python -m elfdb.cli`, with the modules loaded at exit compared
        # with those a bare interpreter (and any site .pth file) loaded.
        script = """
            import runpy, sys
            bare = set(sys.modules)
            sys.argv = ["elfdb", "query", sys.argv[1], "--format", "csv", "--sql",
                        "SELECT COUNT(*) FROM elf_symbols WHERE exported = 1"]
            try:
                runpy.run_module("elfdb.cli", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                status = exc.code
            unused = ("csv", "json", "elfdb.analyses", "elfdb.disasm", "ctypes", "logging", "dataclasses")
            print([status, [m for m in unused if m in sys.modules and m not in bare]])
        """
        assert run_child(script, RUBY_LIKE) == [0, []]

    def test_bare_import_loads_no_submodule_and_resolves_on_lookup(self):
        script = """
            import sys
            import elfdb
            bare = sorted(m for m in sys.modules if m.startswith("elfdb."))
            resolved = [
                len(elfdb.model.SCHEMA), elfdb.engine.TABLE_NAMES == tuple(elfdb.model.SCHEMA),
                elfdb.count_symbols.__module__, set(elfdb.__all__) <= set(dir(elfdb)),
            ]
            # The model imports `demangle` from the submodule `elfdb.cxxabi`;
            # the package's `demangle` is that function.
            print([bare, resolved, elfdb.demangle("_Z3foov") in ("foo()", "_Z3foov")])
        """
        assert run_child(script) == [[], [7, True, "elfdb.analyses", True], True]

    def test_cli_import_loads_neither_ctypes_nor_bench(self):
        script = """
            import sys
            bare = set(sys.modules)  # with whatever a site .pth file loads
            import elfdb.cli
            added = set(sys.modules) - bare
            loaded = [m for m in ("ctypes", "dataclasses", "elfdb.bench", "logging") if m in added]
            import json
            import elfdb
            star = {}
            exec("from elfdb import *", star)
            try:
                elfdb.no_such_name
                missing = "resolved"
            except AttributeError:
                missing = "AttributeError"
            print(json.dumps({
                "loaded": loaded,
                "star_missing": sorted(set(elfdb.__all__) - set(star)),
                "missing": missing,
            }))
        """
        assert run_child(script) == {"loaded": [], "star_missing": [], "missing": "AttributeError"}


class TestClosedStdout:
    """`elfdb query … | head -1`: the reader of stdout exits before elfdb
    has written everything."""

    @pytest.mark.parametrize(
        "sql",
        [
            # Fits the stdout buffer, so the write fails at the final flush.
            "SELECT COUNT(*) FROM elf_symbols",
            # About 100 kB, so the write fails inside the command.
            "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n WHERE i < 20000) "
            "SELECT i FROM n",
        ],
    )
    def test_exits_141_without_a_message(self, sql):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered, as usual
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "elfdb.cli", "query", RUBY_LIKE, "--sql", sql],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")


# The string builders that the writers replaced, kept as the reference
# whose string, with print's newline, each writer's output must equal.
def format_table(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    cells = [[_cell_text(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header = " | ".join(c.ljust(w) for c, w in zip(columns, widths))
    rule = "-+-".join("-" * w for w in widths)
    body = [" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join([header.rstrip(), rule] + body)


def csv_line(cells: Sequence[str]) -> str:
    """One row as `csv.writer` with CRLF line ends writes it, on every
    Python (each quotes a cell holding a character of the line end), with
    the row's CRLF replaced by LF."""
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    line = buf.getvalue()
    assert line.endswith("\r\n")
    return line[:-2] + "\n"


def format_csv(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    lines = [csv_line(columns)] + [csv_line([_cell_text(v) for v in row]) for row in rows]
    return "".join(lines).rstrip("\n")


def format_json(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    records = [
        {col: (_cell_text(v) if isinstance(v, bytes) else v) for col, v in zip(columns, row)}
        for row in rows
    ]
    return json.dumps(records, ensure_ascii=False)


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(',"| \r\n')), max_size=12)
_CELLS = st.one_of(
    st.none(), st.integers(-(2**63), 2**63 - 1), st.floats(), st.binary(max_size=8), _TEXT
)


@st.composite
def results(draw) -> tuple[list[str], list[tuple]]:
    """Column names and rows as a statement gives them: no statement gives
    rows without columns."""
    columns = draw(st.lists(_TEXT, max_size=4))
    rows = draw(st.lists(st.tuples(*[_CELLS] * len(columns)), max_size=5)) if columns else []
    return columns, rows


@given(results())
@example(([], []))
@example((["a", "b"], []))
@example((["name", "x"], [("", None), ("grüße,\"|\n ", b"\0\xff"), (" ", -(2**63))]))
def test_writers_equal_the_reference_strings(result):
    columns, rows = result
    for write, reference in (
        (write_table, format_table), (write_csv, format_csv), (write_json, format_json)
    ):
        out = io.StringIO()
        write(columns, rows, out)
        assert out.getvalue() == reference(columns, rows) + "\n", write.__name__


@pytest.mark.parametrize(
    "row",
    [
        ("", ""), ("",), (None,), ("a", ""), ("", "b"),
        ('say "hi"', "x"), ('"',), ("a,b", "c"), (",",), ("a", ",", "b"),
        ("cr\rlf", "x"), ("\r",), ("line\nbreak",), ("\r\n", ""),
        (" ", "  spaced  "), (" ",), ("grüße", "日本", "é,"), (b"\0\xff", b""), (b"",),
        ("plain", 0, -1, 1.5),
    ],
)
def test_csv_equals_the_stdlib_writer_byte_for_byte(row):
    """A row that `write_csv` joins as it is and one whose cells it quotes
    both read as the stdlib writer with CRLF line ends writes them, with
    LF for the row's CRLF, as a header and as a row."""
    cells = [_cell_text(v) for v in row]
    out = io.StringIO()
    write_csv(cells, [row], out)
    assert out.getvalue().encode() == (csv_line(cells) * 2).encode()


def test_csv_output_reads_back_to_the_session_cells(capsys, tmp_path):
    """`elfdb query --format csv` of names holding CR, LF, `,`, `"` and
    non-ASCII text reads back through `csv.reader` to the statement's cells."""
    import csv

    path = str(tmp_path / "odd.so")
    names = ["cr\rname", "lf\nname", "crlf\r\n", "a,b", 'say "hi"', "grüße", "\r", "plain"]
    write_elf(path, symbols=exported_funcs(*names))
    sql = "SELECT * FROM elf_symbols"
    code, out, _ = run_cli(capsys, "query", path, "--format", "csv", "--sql", sql)
    assert code == 0
    with register(corpus.add_paths([path])) as session:
        result = session.execute(sql)
    expected = [list(result.columns)] + [[_cell_text(v) for v in row] for row in result.rows]
    assert list(csv.reader(io.StringIO(out, newline=""))) == expected
    assert set(names) <= {row[result.columns.index("name")] for row in expected[1:]}


class _CountingRaw(io.RawIOBase):
    """A binary sink that counts its write calls and bytes."""

    def __init__(self):
        self.writes = self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.writes += 1
        self.bytes += len(data)
        return len(data)


@pytest.mark.parametrize("fmt", FORMATS)
def test_unbuffered_stdout_takes_blocks_not_lines(monkeypatch, fmt):
    """Through a stdout that passes each write on at once, as with
    `PYTHONUNBUFFERED=1`, a result of 10,000 rows takes one write per
    `_BLOCK` characters and one for the rest: the same text in far fewer
    calls than its lines."""
    columns = ("index", "name", "version")
    rows = [(i, f"symbol_{i}", None if i % 3 else "V1") for i in range(10_000)]
    raw = _CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    cli.write(fmt, columns, rows)
    whole = io.StringIO()
    {"table": write_table, "csv": write_csv, "json": write_json}[fmt](columns, rows, whole)
    assert raw.bytes == len(whole.getvalue()) > 2 * cli._BLOCK
    assert raw.writes <= raw.bytes // cli._BLOCK + 2, raw.writes


def test_output_path_memory_does_not_grow_with_the_printed_bytes(tmp_path):
    """Each `SELECT *` child peaks below the `COUNT(*)` child's peak plus
    half the bytes it printed.

    The bound: the `COUNT(*)` child fills the same table, so its peak is the
    fill's.  A writer holds one block of `cli._BLOCK` characters of output
    at a time, so only the rows fetched and, for `table`, each cell's text
    come on top.  Holding the
    whole output as one string, and then as its encoded bytes, adds at
    least the printed bytes once more, twice the bound's margin.  On a
    2-vCPU x86-64 host the `COUNT(*)` child peaked at 66 MB; the string
    builders at 149, 143 and 159 MB for 41.4, 40.9 and 42.7 MB printed
    (table, csv, json); the writers at 69, 66 and 66 MB."""
    path = str(tmp_path / "wide.so")
    generate_elf(GeneratedElfSpec(10_000, name_pattern="w" * 2000 + "_{index:05}"), path)
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)

    def peak_and_printed(sql: str, fmt: str) -> tuple[int, int]:
        """The child's own peak RSS and the bytes it printed.  Each child is
        waited on by pid: RUSAGE_CHILDREN keeps the largest of all children."""
        child = subprocess.Popen(
            [sys.executable, "-m", "elfdb.cli", "query", path, "--format", fmt, "--sql", sql],
            env=env, stdout=subprocess.PIPE,
        )
        printed = 0
        while chunk := child.stdout.read(1 << 16):
            printed += len(chunk)
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        assert child.returncode == 0
        return usage.ru_maxrss * 1024, printed

    floor, _ = peak_and_printed("SELECT COUNT(*) FROM elf_symbols", "csv")
    for fmt in FORMATS:
        peak, printed = peak_and_printed("SELECT * FROM elf_symbols", fmt)
        assert printed > 40e6, fmt
        assert peak < floor + printed / 2, (fmt, peak, floor, printed)


class TestChangedFile:
    """A file touched between its catalog and its fill: `elfdb query` exits
    1 with the message, and the shell reports it and reads on."""

    @pytest.fixture
    def touched_before_fill(self, lib, monkeypatch) -> str:
        register = engine.register

        def touching(catalog, *args):
            st = os.stat(lib)
            os.utime(lib, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            return register(catalog, *args)

        monkeypatch.setattr(engine, "register", touching)
        return f"error: {os.path.realpath(lib)} changed after it was first read"

    def test_query_exits_one(self, capsys, lib, touched_before_fill):
        code, out, err = run_cli(capsys, "query", lib, "--sql", "SELECT COUNT(*) FROM elf_symbols")
        assert (code, out) == (1, "")
        assert err.startswith(touched_before_fill)

    def test_the_shell_reports_it_and_reads_the_next_line(
        self, capsys, lib, touched_before_fill, monkeypatch
    ):
        import io

        script = "SELECT COUNT(*) FROM elf_symbols;\nSELECT 7;\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code, out, err = run_cli(capsys, "repl", lib)
        assert code == 0
        assert err.startswith(touched_before_fill)
        assert "7" in out
