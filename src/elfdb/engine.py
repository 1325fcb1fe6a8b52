"""Bridge between the relational schema and an embedded SQLite engine.

A Session owns an in-memory SQLite database holding the seven schema
tables.  Each table follows a strategy: MEMOIZED tables are filled when the
session is registered, LAZY tables are filled before the first statement
whose compiled program reads them (its `EXPLAIN` listing opens their
b-trees), so queries only pay for the tables they read.  Pragmas, schema
lookups, `EXPLAIN` and refused statements fill nothing.  (The stdlib engine
offers no Python-level virtual tables; a deferred fill keeps their
contract: pay at first query, same results.)  A fill inserts its producer's
rows in order through multi-row `INSERT` statements of `_BATCH_ROWS` rows
each, the last few one row at a time, so rowids follow producer order.
When the corpus holds two or more files, the `elf_symbols` fill also builds
the index `elf_symbols_path` on `(path, "table")`, so per-file statements
search it instead of scanning every file's symbols.  Rows and rowids do not
change, but a statement without a total `ORDER BY` may list its rows in
index order, e.g. `SELECT path FROM elf_symbols` by path.
The read-only allowlist authorizer stays installed for the session's life.
A fill swaps in a permissive one and then reinstalls it, which expires
every prepared statement: a repeated statement compiles once until the next
fill, and no statement of a fill is ever reused unchecked.

`export_database` persists the whole schema, declared column types and
`elf_symbols_path` included, to an ordinary SQLite 3 file with SQLite's
online-backup API; any stock SQLite tooling reads it and plans with the same
index.
"""

from __future__ import annotations

import os
import sqlite3
import weakref
from contextlib import closing
from enum import Enum
from functools import partial
from itertools import chain, islice
from typing import Mapping, NamedTuple, Optional, Union

from .corpus import CorpusCatalog
from .model import SCHEMA, TABLE_NAMES, TABLE_PRODUCERS, ZERO_IS_NULL
from .reader import Frozen


class RegistrationFailure(Exception):
    """The engine rejected the schema or the strategy set is invalid."""


class SqlError(Exception):
    """A statement failed to parse, bind, or run."""


class WriteRejected(SqlError):
    """A statement attempted to mutate the schema or its tables."""


class ExportAborted(Exception):
    """Materializing the export failed; no partial file is left behind."""


class StrategyMode(Enum):
    LAZY = "LAZY"
    MEMOIZED = "MEMOIZED"


class QueryResult(Frozen):
    """A statement's column names and rows; `len` and iteration are over
    the rows."""

    _fields = __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: tuple[tuple, ...]):
        self._assign(columns, rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


class ExportSummary(NamedTuple):
    tables: int
    rows: int
    per_table: dict[str, int]


# The SQLite type each declared Python column type is stored as.
_AFFINITY = {str: "TEXT", int: "INTEGER", bool: "INTEGER", bytes: "BLOB"}

_CREATE_SQL = {
    name: 'CREATE TABLE "{}" ({})'.format(
        name, ", ".join(f'"{col}" {_AFFINITY[kind]}' for col, kind in columns)
    )
    for name, columns in SCHEMA.items()
}

# Rows per multi-row INSERT.  Each `executemany` step costs about as much as
# binding a whole row, so a fill steps once per batch.  A batch of the widest
# table must bind at most 999 parameters, the limit of SQLite before 3.32.
_BATCH_ROWS = 32


def _insert_sql(name: str, rows: int) -> str:
    row = "({})".format(
        ", ".join("NULLIF(?, 0)" if (name, col) == ZERO_IS_NULL else "?" for col, _ in SCHEMA[name])
    )
    return 'INSERT INTO "{}" VALUES {}'.format(name, ", ".join([row] * rows))


_INSERT_SQL = {name: _insert_sql(name, 1) for name in SCHEMA}
_BATCH_INSERT_SQL = {name: _insert_sql(name, _BATCH_ROWS) for name in SCHEMA}

# Built with the fill, in the same transaction, when the catalog holds two or
# more files; with one file every row has the same path, so the index could
# never narrow a search.  Per-file counts then search it, and the histogram
# groups along it without a sort.
_SYMBOL_INDEX_SQL = 'CREATE INDEX elf_symbols_path ON elf_symbols (path, "table")'

# Authorizer actions a read needs.  Everything else is denied, pragmas apart:
# reading a pragma's value and `table_info` are allowed (see _authorize).
_READ_ACTIONS = frozenset(
    (sqlite3.SQLITE_READ, sqlite3.SQLITE_SELECT, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE)
)

# Each table not named is LAZY.
Strategies = Optional[Mapping[str, StrategyMode]]


def _allow_all(_action, _arg1, _arg2, _dbname, _source):
    # set_authorizer(None) clears the hook only on Python 3.11+; this works everywhere.
    return sqlite3.SQLITE_OK


def _normalize_strategies(strategies: Strategies) -> dict[str, StrategyMode]:
    modes = dict.fromkeys(TABLE_NAMES, StrategyMode.LAZY)
    if strategies is None:
        return modes
    if not isinstance(strategies, Mapping):
        raise RegistrationFailure(
            f"strategies must map table names to StrategyMode, not {type(strategies).__name__}"
        )
    for name, mode in strategies.items():
        key = name.lower() if isinstance(name, str) else name
        if key not in modes:
            raise RegistrationFailure(f"unknown table in strategy: {name!r}")
        try:
            modes[key] = StrategyMode(mode)
        except ValueError:
            raise RegistrationFailure(f"unknown strategy mode for {name!r}: {mode!r}") from None
    return modes


class Session:
    """A SQL namespace over one immutable corpus.  One statement at a time."""

    def __init__(self, catalog: CorpusCatalog, strategies: Strategies = None):
        self._catalog = catalog
        modes = _normalize_strategies(strategies)
        self._conn = sqlite3.connect(":memory:", isolation_level=None)
        self._pending = set(TABLE_NAMES)
        self._write_denied = False
        # Weak, so the connection keeps no session alive: one dropped unclosed is freed at once.
        self._allowlist = partial(Session._authorize, weakref.proxy(self))
        try:
            try:
                for name in TABLE_NAMES:
                    self._conn.execute(_CREATE_SQL[name])
            except sqlite3.Error as exc:
                raise RegistrationFailure(str(exc)) from exc
            self._map_root_pages()
            self._conn.set_authorizer(self._allowlist)
            for name in TABLE_NAMES:
                if modes[name] == StrategyMode.MEMOIZED:
                    self._materialize(name)
        except BaseException:
            self._conn.close()
            raise

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(e.path for e in self._catalog.entries)

    @property
    def table_names(self) -> tuple[str, ...]:
        return TABLE_NAMES

    def _map_root_pages(self) -> None:
        # Each b-tree's root page to its table.  `tbl_name`, so that an index
        # (which a covering scan opens alone) maps to the table it indexes.
        self._root_tables = dict(self._conn.execute("SELECT rootpage, tbl_name FROM sqlite_master"))

    def _materialize(self, table: str) -> None:
        producer = TABLE_PRODUCERS[table]
        rows = chain.from_iterable(producer(entry.object) for entry in self._catalog.entries)
        tail: list[tuple] = []

        def batches():
            while True:
                batch = tuple(islice(rows, _BATCH_ROWS))
                if len(batch) < _BATCH_ROWS:
                    tail.extend(batch)
                    return
                yield tuple(chain.from_iterable(batch))

        self._conn.set_authorizer(_allow_all)
        try:
            self._conn.execute("BEGIN")
            self._conn.executemany(_BATCH_INSERT_SQL[table], batches())
            self._conn.executemany(_INSERT_SQL[table], tail)
            indexed = table == "elf_symbols" and len(self._catalog.entries) >= 2
            if indexed:
                self._conn.execute(_SYMBOL_INDEX_SQL)
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        finally:
            self._conn.set_authorizer(self._allowlist)
        self._pending.discard(table)
        if indexed:
            self._map_root_pages()

    def _fill_tables_read(self, sql: str, params: dict) -> None:
        # `EXPLAIN <sql>` compiles the statement under the authorizer without running it;
        # an OpenRead row with p3 = 0 opens the main database's b-tree whose root page is p2.
        try:
            program = self._conn.execute("EXPLAIN " + sql, params).fetchall()
        except (sqlite3.Error, sqlite3.Warning):
            if self._write_denied:
                raise
            # The statement reports its own error.  Only an empty statement and
            # the user's own EXPLAIN compile alone but not here; neither reads rows.
            return
        read = {self._root_tables.get(op[3]) for op in program if op[1] == "OpenRead" and op[4] == 0}
        for table in sorted(read & self._pending):
            self._materialize(table)

    def materialize_all(self) -> None:
        for name in sorted(self._pending, key=TABLE_NAMES.index):
            self._materialize(name)

    def _authorize(self, action, arg1, arg2, _dbname, _source):
        # A pragma's name arrives as typed: `table_info` or `TABLE_INFO`.
        if action in _READ_ACTIONS or (
            action == sqlite3.SQLITE_PRAGMA and (arg2 is None or arg1.lower() == "table_info")
        ):
            return sqlite3.SQLITE_OK
        self._write_denied = True
        return sqlite3.SQLITE_DENY

    def execute(self, sql: str, params: Optional[Mapping[str, object]] = None) -> QueryResult:
        """Run one read-only statement and fetch its full result set.

        Raises WriteRejected for any statement that would mutate state and
        SqlError for everything else the engine refuses.
        """
        params = dict(params) if params else {}
        self._write_denied = False
        try:
            if self._pending:
                self._fill_tables_read(sql, params)
            cursor = self._conn.execute(sql, params)
            rows = cursor.fetchall()
            columns = tuple(d[0] for d in cursor.description) if cursor.description else ()
        except (sqlite3.Error, sqlite3.Warning) as exc:
            if self._write_denied:
                raise WriteRejected(str(exc)) from exc
            raise SqlError(str(exc)) from exc
        return QueryResult(columns, tuple(rows))

    def schema_sql(self) -> tuple[str, ...]:
        rows = self._conn.execute("SELECT sql FROM sqlite_master WHERE type = 'table' ORDER BY name")
        return tuple(sql for (sql,) in rows)

    def export_database(self, dest: Union[str, os.PathLike], overwrite: bool = False) -> ExportSummary:
        """Materialize every table into a standalone SQLite file at `dest`.

        Copies the session database page by page into a temp file with
        SQLite's online-backup API, so the file keeps the declared schema,
        then atomically renames it, so a failed export leaves nothing
        behind.  Raises FileExistsError when `dest` exists and `overwrite`
        is false.
        """
        dest = os.fspath(dest)
        if os.path.exists(dest) and not overwrite:
            raise FileExistsError(f"refusing to overwrite existing file: {dest}")
        dest_dir = os.path.dirname(os.path.abspath(dest)) or "."
        if not os.path.isdir(dest_dir):
            raise FileNotFoundError(f"no such directory: {dest_dir}")
        self.materialize_all()
        tmp = os.path.join(dest_dir, f".{os.path.basename(dest)}.tmp{os.getpid()}")
        try:
            with closing(sqlite3.connect(tmp)) as target:
                self._conn.backup(target)
            os.replace(tmp, dest)
        except (sqlite3.Error, OSError) as exc:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise ExportAborted(str(exc)) from exc
        per_table = {
            name: self._conn.execute(f'SELECT COUNT(*) FROM main."{name}"').fetchone()[0]
            for name in TABLE_NAMES
        }
        return ExportSummary(len(TABLE_NAMES), sum(per_table.values()), per_table)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def register(catalog: CorpusCatalog, strategies: Strategies = None) -> Session:
    """Create a Session whose SQL namespace holds all seven schema tables."""
    return Session(catalog, strategies)
