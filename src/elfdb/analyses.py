"""Canned analyses over a Session: interposition audit, symbol counting,
runpath extraction, Python-extension detection, symbol diff, and the
per-file symbol histogram.

Each analysis is a SQL statement against the schema, so results are
identical under lazy, memoized, and exported-file execution, and the
queries double as documentation of the data model.  The symbol diff is one
statement too: one grouped scan of both files' symbols, whose first rows it
fetches by rowid, and stock `sqlite3` runs it unchanged on an export.  What
Python adds is presentation: the audit's sorted library list, the runpath
split and the histogram's buckets.
"""

from __future__ import annotations

import os
from typing import Optional

from .engine import QueryResult, Session
from .model import path_text


class UnknownPath(Exception):
    """The path is not registered in the session's corpus."""


AnalysisReport = QueryResult


class HistogramReport(QueryResult):
    _fields = QueryResult._fields + ("buckets",)
    __slots__ = ("buckets",)

    def __init__(
        self,
        columns: tuple[str, ...],
        rows: tuple[tuple, ...],
        # (bucket label, file count), ascending by lower bound
        buckets: tuple[tuple[str, int], ...] = (),
    ):
        self._assign(columns, rows, buckets)


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


# One grouped scan of both files keeps the rowid of each (name, type)'s first
# row in each file (rowids follow the reader's order: .dynsym, then .symtab,
# each by index); the report fetches those rows by rowid.  A (name, type) in
# both files whose rows there all have one size is unchanged whichever rows
# are first, so the scan drops it before any fetch; another unchanged symbol
# gets no change and drops out after.  Changes sort ADDED, REMOVED, RESIZED.
_DIFF_SQL = """
    WITH firsts AS (
        SELECT name, type, MIN(CASE WHEN path = :a THEN rowid END) AS a,
               MIN(CASE WHEN path = :b THEN rowid END) AS b
        FROM elf_symbols
        WHERE path IN (:a, :b) AND size != 0 AND type IN ('FUNC', 'OBJECT')
        GROUP BY name, type
        HAVING a IS NULL OR b IS NULL OR MIN(size) != MAX(size)
    )
    SELECT CASE WHEN firsts.a IS NULL THEN 'ADDED' WHEN firsts.b IS NULL THEN 'REMOVED'
                WHEN old.size != new.size THEN 'RESIZED' END AS change,
           firsts.name AS name, COALESCE(new.demangle_name, old.demangle_name) AS demangle_name,
           firsts.type AS type, old.size AS old_size, new.size AS new_size
    FROM firsts
    LEFT JOIN elf_symbols AS old ON old.rowid = firsts.a
    LEFT JOIN elf_symbols AS new ON new.rowid = firsts.b
    WHERE change IS NOT NULL
    ORDER BY change, name, type
"""


def diff_symbols(session: Session, path_a: str, path_b: str) -> AnalysisReport:
    """Nonzero-size FUNC/OBJECT symbols added, removed, or resized from a to b.

    Rows carry old/new sizes (NULL on the absent side) and are grouped
    ADDED, REMOVED, RESIZED, each sorted by name.  A name and type listed
    twice in one file count once, as their first row.
    """
    params = {"a": _require_path(session, path_a), "b": _require_path(session, path_b)}
    return session.execute(_DIFF_SQL, params)


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
