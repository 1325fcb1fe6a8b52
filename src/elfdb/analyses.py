"""Canned analyses over a Session: interposition audit, symbol counting,
runpath extraction, Python-extension detection, symbol diff, and the
per-file symbol histogram.

Each analysis is a SQL statement against the schema, so results are
identical under lazy, memoized, and exported-file execution, and the
queries double as documentation of the data model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .engine import QueryResult, Session
from .model import path_text


class UnknownPath(Exception):
    """The path is not registered in the session's corpus."""


AnalysisReport = QueryResult


@dataclass(frozen=True)
class HistogramReport(QueryResult):
    # (bucket label, file count), ascending by lower bound
    buckets: tuple[tuple[str, int], ...] = ()


def _require_path(session: Session, path: str) -> str:
    """The `path` column value of a registered file."""
    real = os.path.realpath(path)
    if real not in session.paths:
        raise UnknownPath(path)
    return path_text(real)


_INTERPOSITION_SQL = """
    SELECT name, version,
           COUNT(*) AS symbol_count,
           GROUP_CONCAT(path, char(0)) AS libraries
    FROM elf_symbols
    WHERE exported = 1 AND section != '.bss'
    GROUP BY name, version
    HAVING COUNT(*) >= 2
    ORDER BY symbol_count DESC, name
"""


def interposition_audit(session: Session) -> AnalysisReport:
    """Names exported by two or more corpus members, grouped by version.

    The libraries column lists the offending paths sorted and ':'-joined,
    so the report is invariant under registration order.  The query joins
    them with NUL, which no path contains, so a ':' inside a path survives
    the sort.
    """
    result = session.execute(_INTERPOSITION_SQL)
    rows = tuple(
        (name, version, count, ":".join(sorted(libraries.split("\0"))))
        for name, version, count, libraries in result.rows
    )
    return AnalysisReport(columns=result.columns, rows=rows)


# One scan: the .dynsym rows if any, else every row (all .symtab); no rows give 0.
_COUNT_TABLE_SQL = """
    SELECT CASE WHEN SUM("table" = '.dynsym') THEN SUM("table" = '.dynsym')
                ELSE COUNT(*) END
    FROM elf_symbols
    WHERE path = :path
"""

_COUNT_IMPORTED_SQL = "SELECT COUNT(*) FROM elf_symbols WHERE path = :path AND imported = 1"


def count_symbols(session: Session, path: str, imported_only: bool = False) -> int:
    """Symbol count for one file: all of .dynsym (else .symtab), or imports only."""
    real = _require_path(session, path)
    sql = _COUNT_IMPORTED_SQL if imported_only else _COUNT_TABLE_SQL
    result = session.execute(sql, {"path": real})
    return result.rows[0][0]


_RUNPATH_SQL = """
    SELECT string FROM elf_dynamic_entries
    WHERE path = :path AND tag IN ('RUNPATH', 'RPATH')
    ORDER BY tag = 'RPATH', ordinal
    LIMIT 1
"""


def runpath(session: Session, path: str) -> list[str]:
    """The file's RUNPATH entries (RPATH as fallback), split on ':'."""
    rows = session.execute(_RUNPATH_SQL, {"path": _require_path(session, path)}).rows
    return [part for part in rows[0][0].split(":") if part] if rows else []


_PYTHON_EXTENSION_SQL = """
    SELECT CASE name
           WHEN :init2 THEN 2
           WHEN :init3 THEN 3
           WHEN :cffi THEN 2
           END AS python_version
    FROM elf_symbols
    WHERE path = :path
      AND name IN (:init2, :init3, :cffi)
      AND exported = 1
      AND type = 'FUNC'
    ORDER BY python_version DESC
    LIMIT 1
"""


def python_extension_check(session: Session, path: str, module_name: str) -> Optional[int]:
    """2 or 3 when the file exports a Python module-init function, else None."""
    real = _require_path(session, path)
    result = session.execute(
        _PYTHON_EXTENSION_SQL,
        {
            "path": real,
            "init2": f"init{module_name}",
            "init3": f"PyInit_{module_name}",
            "cffi": f"_cffi_pypyinit_{module_name}",
        },
    )
    return result.rows[0][0] if result.rows else None


_DIFF_EXTRACT_SQL = """
    SELECT name, demangle_name, type, size
    FROM elf_symbols
    WHERE path = :path AND size != 0 AND type IN ('FUNC', 'OBJECT')
    ORDER BY "table", "index"
"""

DIFF_COLUMNS = ("change", "name", "demangle_name", "type", "old_size", "new_size")


def _diff_extract(session: Session, real: str) -> dict[tuple[str, str], tuple[str, int]]:
    # (name, type) -> (demangle_name, size); first occurrence wins.
    result = session.execute(_DIFF_EXTRACT_SQL, {"path": real})
    out: dict[tuple[str, str], tuple[str, int]] = {}
    for name, demangle_name, sym_type, size in result.rows:
        out.setdefault((name, sym_type), (demangle_name, size))
    return out


def diff_symbols(session: Session, path_a: str, path_b: str) -> AnalysisReport:
    """Nonzero-size FUNC/OBJECT symbols added, removed, or resized from a to b.

    Rows carry old/new sizes (NULL on the absent side) and are grouped
    ADDED, REMOVED, RESIZED, each sorted by name.
    """
    real_a = _require_path(session, path_a)
    real_b = _require_path(session, path_b)
    syms_a = _diff_extract(session, real_a)
    syms_b = _diff_extract(session, real_b)
    rows: list[tuple] = []
    for key in sorted(syms_b.keys() - syms_a.keys()):
        name, sym_type = key
        demangled, size = syms_b[key]
        rows.append(("ADDED", name, demangled, sym_type, None, size))
    for key in sorted(syms_a.keys() - syms_b.keys()):
        name, sym_type = key
        demangled, size = syms_a[key]
        rows.append(("REMOVED", name, demangled, sym_type, size, None))
    for key in sorted(syms_a.keys() & syms_b.keys()):
        name, sym_type = key
        demangled_a, size_a = syms_a[key]
        demangled_b, size_b = syms_b[key]
        if size_a != size_b:
            rows.append(("RESIZED", name, demangled_b, sym_type, size_a, size_b))
    return AnalysisReport(columns=DIFF_COLUMNS, rows=tuple(rows))


# Counted before the join: joining elf_symbols itself builds an automatic index per call.
_HISTOGRAM_SQL = """
    SELECT path, COALESCE(symbol_count, 0) AS symbol_count
    FROM elf_headers
    LEFT JOIN (SELECT path, COUNT(*) AS symbol_count FROM elf_symbols GROUP BY path)
        USING (path)
    ORDER BY symbol_count DESC, path
"""


def _bucket_label(count: int, bucket_width: Optional[int]) -> tuple[int, str]:
    if bucket_width is not None:
        low = (count // bucket_width) * bucket_width
        return low, f"{low}-{low + bucket_width - 1}"
    if count == 0:
        return 0, "0"
    low = 10 ** (len(str(count)) - 1)
    return low, f"{low}-{low * 10 - 1}"


def symbol_histogram(session: Session, bucket_width: Optional[int] = None) -> HistogramReport:
    """Per-file symbol counts (descending) plus bucketed file counts.

    Buckets default to powers of ten; pass `bucket_width` for fixed-width
    buckets instead; it must be at least 1.
    """
    if bucket_width is not None and bucket_width < 1:
        raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
    result = session.execute(_HISTOGRAM_SQL)
    tally: dict[tuple[int, str], int] = {}
    for _path, count in result.rows:
        key = _bucket_label(count, bucket_width)
        tally[key] = tally.get(key, 0) + 1
    buckets = tuple(
        (label, tally[(low, label)]) for low, label in sorted(tally.keys())
    )
    return HistogramReport(columns=result.columns, rows=result.rows, buckets=buckets)
