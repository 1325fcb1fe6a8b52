"""Command-line interface: SQL queries, an interactive shell, database
export, and the canned analyses, over one or more ELF files or directories.

Exit codes: 0 success, 1 runtime error, 2 usage error, 141 (128 + SIGPIPE,
as for `readelf` or `nm` killed by the signal) when the reader of stdout
closed it early, as `elfdb query … | head -1` does; that exit prints nothing.

A command imports only what it runs: the analyses, the JSON writer and,
through `model`, the instruction decoder load on first use.  CSV is quoted
by one rule of elfdb's own (see `write_csv`), so its bytes are the same on
every Python.
"""

from __future__ import annotations

import argparse
import os
import sqlite3
import sys
from itertools import chain
from typing import Optional, Sequence, TextIO

from . import corpus, engine, reader
from .engine import Session, SqlError

FORMATS = ("table", "csv", "json")


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bytes):
        return "x'" + value.hex() + "'"
    return str(value)


def write_table(columns: Sequence[str], rows: Sequence[tuple], out: TextIO) -> None:
    """Columns padded to their widest cell, `|` between them, each line's
    trailing blanks dropped; the widths need every cell's text first."""
    cells = [[_cell_text(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out.write(" | ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
    out.write("-+-".join("-" * w for w in widths) + "\n")
    for row in cells:
        out.write(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def _csv_cell(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(columns: Sequence[str], rows: Sequence[tuple], out: TextIO) -> None:
    """RFC 4180 text with `\\n` line ends, the same on every Python: a cell
    holding `,`, `"`, CR or LF is written between `"`s with each `"`
    doubled, and a row of one empty cell as `""`.  A row whose joined line
    has no such character is written as it is."""
    for cells in chain((columns,), ([_cell_text(v) for v in row] for row in rows)):
        line = ",".join(cells)
        if line.count(",") != len(cells) - 1 or '"' in line or "\n" in line or "\r" in line:
            line = ",".join([_csv_cell(cell) for cell in cells])
        elif not line:
            line = '""'
        out.write(line + "\n")


def write_json(columns: Sequence[str], rows: Sequence[tuple], out: TextIO) -> None:
    """The text of `json.dumps` of the list of records, one record at a time."""
    import json

    encode = json.JSONEncoder(ensure_ascii=False).encode  # as json.dumps(..., ensure_ascii=False)
    separator = ""
    out.write("[")
    for row in rows:
        record = {col: (_cell_text(v) if isinstance(v, bytes) else v) for col, v in zip(columns, row)}
        out.write(separator + encode(record))
        separator = ", "
    out.write("]\n")


# Characters of output `write` gathers before it passes them on: with
# unbuffered stdout (`PYTHONUNBUFFERED=1`, `python -u`) each pass is one
# write(2), where a line at a time made one per row.
_BLOCK = 65536


class _Blocks:
    """A text sink that passes what it is given to `out` in blocks of at
    least `_BLOCK` characters, and the rest on `flush`."""

    def __init__(self, out: TextIO):
        self._out = out
        self._parts: list[str] = []
        self._size = 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= _BLOCK:
            self.flush()

    def flush(self) -> None:
        self._out.write("".join(self._parts))
        self._parts.clear()
        self._size = 0


def write(fmt: str, columns: Sequence[str], rows: Sequence[tuple]) -> None:
    """Print a result in format `fmt` to the current `sys.stdout`, in blocks
    of about `_BLOCK` characters: at most one block is held at a time."""
    out = _Blocks(sys.stdout)
    {"table": write_table, "csv": write_csv, "json": write_json}[fmt](columns, rows, out)
    out.flush()


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
        write(args.format, result.columns, result.rows)
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
            except (SqlError, reader.ElfError) as exc:  # a file changed before its fill, too
                print(f"error: {exc}", file=sys.stderr)
                continue
            write("table", result.columns, result.rows)
    return 0


def cmd_export(args) -> int:
    with build_session(args) as session:
        summary = session.export_database(args.out, overwrite=args.force)
    print(f"wrote {args.out}: {summary.tables} tables, {summary.rows} rows")
    for name, rows in summary.per_table.items():
        print(f"  {name}: {rows}")
    return 0


def cmd_audit(args) -> int:
    from . import analyses

    with build_session(args) as session:
        report = analyses.interposition_audit(session)
    write(args.format, report.columns, report.rows)
    return 0


def cmd_diff(args) -> int:
    from . import analyses

    args.paths = [args.path_a, args.path_b]
    with build_session(args) as session:
        report = analyses.diff_symbols(session, args.path_a, args.path_b)
    if not report.rows and args.format == "table":
        print("no differences")
    else:
        write(args.format, report.columns, report.rows)
    return 0


def cmd_histogram(args) -> int:
    from . import analyses

    with build_session(args) as session:
        report = analyses.symbol_histogram(session, bucket_width=args.bucket_width)
    write(args.format, report.columns, report.rows)
    if args.format == "table" and report.buckets:
        print()
        write("table", ("bucket", "files"), report.buckets)
    return 0


def bucket_width(text: str) -> int:
    """A `--bucket-width` value: an integer of at least 1."""
    width = int(text)
    if width < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {width}")
    return width


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
    p_hist.add_argument("--bucket-width", type=bucket_width, default=None)
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
    except BrokenPipeError:
        raise
    except _runtime_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _runtime_errors() -> tuple:
    """The exceptions that exit 1.  An `except` evaluates this only once an
    exception reaches it, so `analyses` is not imported on success."""
    from .analyses import UnknownPath

    return (
        engine.SqlError,
        engine.RegistrationFailure,
        engine.ExportAborted,
        UnknownPath,
        corpus.CorpusError,
        reader.ElfError,
        OSError,
    )


def entry_point() -> None:
    try:
        status = main()
        # Output that fits the buffer meets a closed pipe only here.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone.  As the `signal` module's docs advise,
        # point stdout at devnull, so that the flush at shutdown raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    entry_point()
