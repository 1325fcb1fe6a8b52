"""Command-line interface: SQL queries, an interactive shell, database
export, and the canned analyses, over one or more ELF files or directories.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sqlite3
import sys
from typing import Optional, Sequence

from . import analyses, corpus, engine, reader
from .engine import Session, SqlError

FORMATS = ("table", "csv", "json")


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bytes):
        return "x'" + value.hex() + "'"
    return str(value)


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


def format_csv(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell_text(v) for v in row])
    return buf.getvalue().rstrip("\n")


def format_json(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    records = [
        {col: (_cell_text(v) if isinstance(v, bytes) else v) for col, v in zip(columns, row)}
        for row in rows
    ]
    return json.dumps(records, ensure_ascii=False)


def render(fmt: str, columns: Sequence[str], rows: Sequence[tuple]) -> str:
    if fmt == "csv":
        return format_csv(columns, rows)
    if fmt == "json":
        return format_json(columns, rows)
    return format_table(columns, rows)


def _add_corpus_args(parser: argparse.ArgumentParser, with_format: bool = True) -> None:
    parser.add_argument("paths", nargs="+", help="ELF files or directories")
    parser.add_argument(
        "--recursive",
        action="store_true",
        help="also load transitive shared-library dependencies",
    )
    parser.add_argument(
        "--walk-subdirs",
        action="store_true",
        help="descend into subdirectories of directory arguments",
    )
    parser.add_argument(
        "--env-search-path",
        action="store_true",
        help="honor LD_LIBRARY_PATH from the environment during --recursive",
    )
    if with_format:
        parser.add_argument("--format", choices=FORMATS, default="table")


class UsageError(Exception):
    pass


def build_session(args) -> Session:
    catalog = corpus.add_paths(args.paths, recurse_dirs=getattr(args, "walk_subdirs", False))
    if getattr(args, "recursive", False):
        if args.env_search_path:
            cfg = corpus.SearchConfig.from_environment()
        else:
            cfg = corpus.SearchConfig()
        catalog = corpus.resolve_recursive(catalog, cfg)
        for miss in catalog.unresolved:
            print(
                f"warning: unresolved dependency {miss.soname} (needed by {miss.dependent}): {miss.reason}",
                file=sys.stderr,
            )
    return engine.register(catalog)


def cmd_query(args) -> int:
    if args.sql is not None:
        sql = args.sql
    else:
        try:
            with open(args.sql_file, encoding="utf-8") as fh:
                sql = fh.read()
        except UnicodeDecodeError as exc:
            print(f"error: {args.sql_file}: not UTF-8: {exc}", file=sys.stderr)
            return 1
    with build_session(args) as session:
        result = session.execute(sql)
        print(render(args.format, result.columns, result.rows))
    return 0


def cmd_repl(args) -> int:
    interactive = sys.stdin.isatty()
    with build_session(args) as session:
        if interactive:
            print("elfdb shell; statements end with ';', .help for meta-commands")
        buffer = ""
        while True:
            prompt = ("elfdb> " if not buffer.strip() else "  ...> ") if interactive else ""
            try:
                line = input(prompt)
            except EOFError:
                break
            if not buffer.strip() and line.strip().startswith("."):
                command = line.strip()
                if command in (".quit", ".exit"):
                    break
                if command == ".tables":
                    print("\n".join(session.table_names))
                elif command == ".schema":
                    print("\n".join(s + ";" for s in session.schema_sql()))
                elif command == ".help":
                    print(".tables    list schema tables\n.schema    show table DDL\n.quit      leave the shell")
                else:
                    print(f"unknown meta-command: {command}", file=sys.stderr)
                continue
            buffer += line + "\n"
            if not sqlite3.complete_statement(buffer):
                continue
            statement, buffer = buffer, ""
            try:
                result = session.execute(statement)
            except SqlError as exc:
                print(f"error: {exc}", file=sys.stderr)
                continue
            print(render("table", result.columns, result.rows))
    return 0


def cmd_export(args) -> int:
    with build_session(args) as session:
        summary = session.export_database(args.out, overwrite=args.force)
    print(f"wrote {args.out}: {summary.tables} tables, {summary.rows} rows")
    for name in engine.TABLE_NAMES:
        print(f"  {name}: {summary.per_table[name]}")
    return 0


def cmd_audit(args) -> int:
    with build_session(args) as session:
        report = analyses.interposition_audit(session)
    print(render(args.format, report.columns, report.rows))
    return 0


def cmd_diff(args) -> int:
    args.paths = [args.path_a, args.path_b]
    with build_session(args) as session:
        report = analyses.diff_symbols(session, args.path_a, args.path_b)
    if not report.rows and args.format == "table":
        print("no differences")
    else:
        print(render(args.format, report.columns, report.rows))
    return 0


def cmd_histogram(args) -> int:
    if args.bucket_width is not None and args.bucket_width < 1:
        raise UsageError(f"--bucket-width must be >= 1, got {args.bucket_width}")
    with build_session(args) as session:
        report = analyses.symbol_histogram(session, bucket_width=args.bucket_width)
    print(render(args.format, report.columns, report.rows))
    if args.format == "table" and report.buckets:
        print()
        print(format_table(("bucket", "files"), report.buckets))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elfdb",
        description="Query ELF files with SQL: one relational schema over headers, "
        "sections, segments, symbols, strings, dynamic entries, and instructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="run one SQL statement and print the result")
    _add_corpus_args(p_query)
    source = p_query.add_mutually_exclusive_group(required=True)
    source.add_argument("--sql", help="SQL text to run")
    source.add_argument("--sql-file", help="file containing the SQL to run")
    p_query.set_defaults(func=cmd_query)

    p_repl = sub.add_parser("repl", help="interactive SQL shell")
    _add_corpus_args(p_repl, with_format=False)
    p_repl.set_defaults(func=cmd_repl)

    p_export = sub.add_parser("export", help="materialize the schema into a SQLite file")
    _add_corpus_args(p_export, with_format=False)
    p_export.add_argument("--out", required=True, help="destination database file")
    p_export.add_argument("--force", action="store_true", help="overwrite an existing file")
    p_export.set_defaults(func=cmd_export)

    p_audit = sub.add_parser("audit", help="report symbol interposition candidates")
    _add_corpus_args(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_diff = sub.add_parser("diff", help="compare the symbols of two ELF files")
    p_diff.add_argument("path_a")
    p_diff.add_argument("path_b")
    p_diff.add_argument("--format", choices=FORMATS, default="table")
    p_diff.set_defaults(func=cmd_diff, recursive=False, env_search_path=False)

    p_hist = sub.add_parser("histogram", help="per-file symbol counts and buckets")
    _add_corpus_args(p_hist)
    p_hist.add_argument("--bucket-width", type=int, default=None)
    p_hist.set_defaults(func=cmd_histogram)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        engine.SqlError,
        engine.RegistrationFailure,
        engine.ExportAborted,
        analyses.UnknownPath,
        corpus.CorpusError,
        reader.ElfError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
