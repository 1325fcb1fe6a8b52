import json
import os
import sqlite3
import subprocess
import sys
import textwrap

import pytest

import elfdb
from elfdb import corpus
from elfdb.bench import SymbolSpec, write_elf
from elfdb.cli import main
from elfdb.engine import register

from conftest import RUBY_LIKE, exported_funcs


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
    def test_cli_import_loads_neither_ctypes_nor_bench(self):
        script = textwrap.dedent(
            """
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
        )
        src = os.path.dirname(os.path.dirname(elfdb.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert json.loads(out) == {"loaded": [], "star_missing": [], "missing": "AttributeError"}
