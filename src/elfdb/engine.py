"""Bridge between the relational schema and an embedded SQLite engine.

A Session owns a private temporary SQLite database, opened with an empty
file name, holding the tables of `model.TABLES` (as it was when the
session was created) in 16 KiB pages, four times SQLite's default: a scan
or a BLOB read pays the per-page cost a quarter as often, in the session
and in any stock reader of its export, whose pages are the session's.  At
most SQLite's default page cache (2 MiB, set in bytes, so a quarter as many
pages) of it stays in memory.  Once the database outgrows the cache,
SQLite writes the other pages to a file that it unlinks as soon as it
opens it, in the first writable directory of
`SQLITE_TMPDIR`, `TMPDIR`, `/var/tmp`, `/usr/tmp`, `/tmp` and `.`.  The
file grows to about the size of the session's export and is gone when the
session closes, or the process ends.  A fill that meets a full disk
(SQLITE_FULL) raises the error of the call that ran it and leaves its table
empty and pending.

Each table follows a strategy: MEMOIZED tables are filled when the
session is registered, LAZY tables are filled before the first statement
whose compiled program reads them (its `EXPLAIN` listing opens their
b-trees), so queries only pay for the tables they read.  Pragmas, schema
lookups, `EXPLAIN` and refused statements fill nothing.  (The stdlib engine
offers no Python-level virtual tables; a deferred fill keeps their
contract: pay at first query, same results.)

A fill works one catalog entry at a time, in catalog order: `corpus.reopen`
opens the file again, checks it against the identity its catalog recorded
and parses it.  The table's producer gives the file's rows in blocks of
columns (see `model`).  A block's new key rows (of the table's key columns)
go into a temp table, `_KEYS_TABLE`, each with its number as its rowid.
Its columns, the table's own columns and each row's key number, are
interleaved into one list of values, whose slices are the parameters of
multi-row `INSERT` statements of `_BATCH_ROWS` rows each; a partial batch
carries into the next block, and only the file's last few rows go in one
row at a time.  So rowids follow catalog and producer order, and the fill
builds no Python object per row.  The `INSERT` joins each row to its key
row by rowid and stores the table's row, with the storage classes that
binding it whole would give.  The fill creates that table and drops it
within its transaction, so a failed fill leaves none behind.  Binding is
most of an insert's cost, and each text bound is copied: an `elf_symbols`
row binds 6 values, not 14.  A row whose key number matches no key row
fails the fill with RuntimeError rather than being dropped.
The parsed file, and its map, are dropped before the next file opens, so a
fill holds one file at a time.  A file that is gone or is another file raises
`reader.FileChanged` from the call that ran the fill (`execute`, `register`
for a MEMOIZED table, `export_database`); the fill is rolled back and its
table stays pending.
Every statement and the DDL come from the table's `model.Table` record
alone; the engine names no table.
When the corpus holds two or more files, the fill of a table that declares
an index also builds it: `elf_symbols_path` on `(path, "table")`, so
per-file statements search it instead of scanning every file's symbols.
Rows and rowids do not change, but a statement without a total `ORDER BY`
may list its rows in index order, e.g. `SELECT path FROM elf_symbols` by
path.
The read-only allowlist authorizer stays installed for the session's life.
A fill swaps in a permissive one and then reinstalls it, which expires
every prepared statement: a repeated statement compiles once until the next
fill, and no statement of a fill is ever reused unchecked.

`export_database` persists the whole schema, declared column types and
indexes included, to an ordinary SQLite 3 file with SQLite's
online-backup API, which gives the new file the session's page size; any
stock SQLite tooling reads it and plans with the same indexes.
"""

from __future__ import annotations

import os
import sqlite3
import weakref
from contextlib import closing
from enum import Enum
from functools import cache, partial
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from . import corpus, model
from .model import TABLE_NAMES  # re-exported: the names of the tables a session holds
from .reader import ElfObject, Frozen


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


# The session database's page size, set before its first table; an export
# keeps it.  Stock sqlite3 counting the .dynsym rows of an export of 1e5
# generated symbols scans the 723 pages of elf_symbols, where SQLite's
# default of 4 KiB made 2,936, and takes about 16% less time.  Larger pages
# waste more of each small table's last page: 32 KiB made libz's export
# 2.9% larger than 16 KiB, and 16 KiB 0.7% larger than 4 KiB.
_PAGE_SIZE = 16384

# Rows per multi-row INSERT.  Each `executemany` step costs about as much as
# binding a whole row, so a fill steps once per batch.  A batch of the widest
# table must bind at most 999 parameters, the limit of SQLite before 3.32.
_BATCH_ROWS = 32

# A fill's key rows, one file's at a time: created and dropped within the
# fill's transaction.  Untyped columns keep each value's storage class.
_KEYS_TABLE = "temp.fill_keys"


def _values(width: int, rows: int) -> str:
    return ", ".join(["({})".format(", ".join("?" * width))] * rows)


def _insert_sql(table: model.Table, rows: int) -> str:
    """The INSERT of `rows` producer rows of `table`: it joins each row's own
    values to its key row in `_KEYS_TABLE`, by rowid, and stores the columns
    in declaration order."""
    own = table.own_columns
    width = len(own) + 1
    # A VALUES list names its columns column1, column2, ...; the key number is last.
    source = {col: f"v.column{i}" for i, col in enumerate(own, 1)}
    source.update((col, f'k."{col}"') for col in table.key_columns)
    columns = ", ".join(source[col] for col, _ in table.columns)
    return (
        f'INSERT INTO "{table.name}" SELECT {columns} FROM (VALUES {_values(width, rows)}) AS v '
        f"CROSS JOIN {_KEYS_TABLE} AS k ON k.rowid = v.column{width}"
    )


# The SQLite type each declared Python column type is stored as.
_AFFINITY = {str: "TEXT", int: "INTEGER", bool: "INTEGER", bytes: "BLOB"}


class _Statements(NamedTuple):
    """A table's SQL: its CREATE; its key table's CREATE and one-row INSERT,
    which binds the key row's number as its rowid (a file has few key rows,
    so they go in one at a time: the syslib core has 1,017 of elf_symbols,
    for 82,467 rows); the INSERT of one row and of `_BATCH_ROWS`; the CREATE
    INDEX of its index, if it has one."""

    create: str
    create_keys: str
    insert_key: str
    insert_one: str
    insert_batch: str
    create_index: Optional[str]


@cache
def _statements(table: model.Table) -> _Statements:
    """The SQL of `table`, built from its record alone."""
    keys = table.key_columns
    return _Statements(
        'CREATE TABLE "{}" ({})'.format(
            table.name, ", ".join(f'"{col}" {_AFFINITY[kind]}' for col, kind in table.columns)
        ),
        "CREATE TABLE {} ({})".format(_KEYS_TABLE, ", ".join(f'"{col}"' for col in keys)),
        "INSERT INTO {} (rowid, {}) VALUES {}".format(
            _KEYS_TABLE, ", ".join(f'"{col}"' for col in keys), _values(len(keys) + 1, 1)
        ),
        _insert_sql(table, 1),
        _insert_sql(table, _BATCH_ROWS),
        f"CREATE INDEX {table.name}_path ON {table.name} ({table.index})" if table.index else None,
    )


def _insert(conn: sqlite3.Connection, table: model.Table, obj: ElfObject) -> int:
    """Insert the rows of `table` for one file in order, into `conn`, whose
    `_KEYS_TABLE` for `table` the caller created, and return how many.
    Raises RuntimeError when a row matches no key row, so is not stored.
    Nothing refers to the file once this returns, so its map is gone before
    the next file opens."""
    sql = _statements(table)
    width = len(table.own_columns) + 1
    batch = width * _BATCH_ROWS
    # The last file's key rows hold the numbers this file's will.
    conn.execute(f"DELETE FROM {_KEYS_TABLE}")
    before = conn.total_changes
    given = keys = 0
    # The values of the rows not yet inserted, row after row: between two
    # blocks, fewer than a batch.
    flat: list = []
    for new_keys, columns in model.TABLE_PRODUCERS[table.name](obj):
        conn.executemany(sql.insert_key, new_keys)
        keys += len(new_keys)
        rows = len(columns[0])
        given += rows
        start = len(flat)
        flat += [None] * (rows * width)
        for at, column in enumerate(columns, start):
            flat[at::width] = column
        full = len(flat) - len(flat) % batch
        conn.executemany(sql.insert_batch, (flat[k : k + batch] for k in range(0, full, batch)))
        del flat[:full]
    conn.executemany(sql.insert_one, (flat[k : k + width] for k in range(0, len(flat), width)))
    lost = given - (conn.total_changes - before - keys)
    if lost:
        raise RuntimeError(f"{table.name}: {lost} of the {given} rows of {obj.path} match no key row")
    return given


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


def _normalize_strategies(names: Iterable[str], strategies: Strategies) -> dict[str, StrategyMode]:
    modes = dict.fromkeys(names, StrategyMode.LAZY)
    if strategies is None:
        return modes
    if not isinstance(strategies, Mapping):
        raise RegistrationFailure(
            f"strategies must map table names to StrategyMode, not {type(strategies).__name__}"
        )
    for name, mode in strategies.items():
        if name not in modes:
            raise RegistrationFailure(f"unknown table in strategy: {name!r}")
        if not isinstance(mode, StrategyMode):
            raise RegistrationFailure(f"strategy for {name!r} is not a StrategyMode: {mode!r}")
        modes[name] = mode
    return modes


class Session:
    """A SQL namespace over one immutable corpus.  One statement at a time.

    The session keeps the catalog, which holds no file; each fill reads the
    files it needs again and releases each before the next (see the module
    docstring)."""

    def __init__(self, catalog: corpus.CorpusCatalog, strategies: Strategies = None):
        self._catalog = catalog
        self._tables = model.TABLES
        modes = _normalize_strategies(self._tables, strategies)
        # A private temporary database: past its page cache, pages go to an unlinked file.
        self._conn = sqlite3.connect("", isolation_level=None)
        # Closed once the session is dropped: the cache's cycle would wait for the collector.
        self._close = weakref.finalize(self, self._conn.close)
        self._pending = set(self._tables)
        # Each filled table's row count, as its fill stored them.
        self._rows: dict[str, int] = {}
        self._write_denied = False
        # Weak, so the connection keeps no session alive: one dropped unclosed is freed at once.
        self._allowlist = partial(Session._authorize, weakref.proxy(self))
        try:
            try:
                self._conn.execute(f"PRAGMA page_size = {_PAGE_SIZE}")
                for table in self._tables.values():
                    self._conn.execute(_statements(table).create)
                # Each table's root page, mapped once: a table's index exists only once the
                # table is filled, so a statement that opens it reads no pending table.
                self._root_tables = dict(self._conn.execute("SELECT rootpage, name FROM sqlite_master"))
                self._conn.set_authorizer(self._allowlist)
                for name, mode in modes.items():
                    if mode == StrategyMode.MEMOIZED:
                        self._materialize(name)
            except sqlite3.Error as exc:
                raise RegistrationFailure(str(exc)) from exc
        except BaseException:
            self._close()
            raise

    @property
    def paths(self) -> tuple[str, ...]:
        return self._catalog.paths

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def _materialize(self, name: str) -> None:
        table = self._tables[name]
        sql = _statements(table)
        self._conn.set_authorizer(_allow_all)
        try:
            self._conn.execute("BEGIN")
            self._conn.execute(sql.create_keys)
            rows = sum(_insert(self._conn, table, corpus.reopen(entry)) for entry in self._catalog.entries)
            self._conn.execute(f"DROP TABLE {_KEYS_TABLE}")
            if sql.create_index and len(self._catalog.entries) >= 2:
                self._conn.execute(sql.create_index)
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        finally:
            self._conn.set_authorizer(self._allowlist)
        self._pending.discard(name)
        self._rows[name] = rows

    def _fill_tables_read(self, sql: str, params: dict) -> None:
        # `EXPLAIN <sql>` compiles the statement under the authorizer without running it;
        # an OpenRead row with p3 = 0 opens the main database's b-tree whose root page is p2.
        try:
            program = self._conn.execute("EXPLAIN " + sql, params).fetchall()
        except (sqlite3.Error, sqlite3.Warning):
            # The statement reports its own error, a refused write included.  Only
            # an empty statement and the user's own EXPLAIN compile alone but not
            # here; neither reads rows.
            return
        read = {self._root_tables.get(op[3]) for op in program if op[1] == "OpenRead" and op[4] == 0}
        for table in sorted(read & self._pending):
            self._materialize(table)

    def materialize_all(self) -> None:
        for name in [name for name in self._tables if name in self._pending]:
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
        is false, reader.FileChanged when a fill finds a file changed since
        its catalog, and ExportAborted when a fill, the copy or the rename
        fails otherwise; any other exception propagates as it is, and every
        failure removes the temp file.
        """
        dest = os.fspath(dest)
        if os.path.exists(dest) and not overwrite:
            raise FileExistsError(f"refusing to overwrite existing file: {dest}")
        dest_dir = os.path.dirname(os.path.abspath(dest)) or "."
        if not os.path.isdir(dest_dir):
            raise FileNotFoundError(f"no such directory: {dest_dir}")
        tmp = os.path.join(dest_dir, f".{os.path.basename(dest)}.tmp{os.getpid()}")
        try:
            self.materialize_all()
            with closing(sqlite3.connect(tmp)) as target:
                self._conn.backup(target)
            os.replace(tmp, dest)
        except (sqlite3.Error, OSError) as exc:
            raise ExportAborted(str(exc)) from exc
        finally:
            # Renamed, the temp file is gone; any failure, KeyboardInterrupt too, removes it.
            if os.path.exists(tmp):
                os.unlink(tmp)
        per_table = {name: self._rows[name] for name in self._tables}
        return ExportSummary(len(per_table), sum(per_table.values()), per_table)

    def close(self) -> None:
        self._close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def register(catalog: corpus.CorpusCatalog, strategies: Strategies = None) -> Session:
    """Create a Session whose SQL namespace holds every table of `model.TABLES`.

    Raises RegistrationFailure when the strategies are invalid or SQLite
    fails to create the schema or fill a MEMOIZED table, and
    reader.FileChanged when a MEMOIZED table's fill finds a file changed
    since its catalog."""
    return Session(catalog, strategies)
