"""Bridge between the relational schema and an embedded SQLite engine.

A Session owns a private temporary SQLite database, opened with an empty
file name, holding the seven schema tables in 16 KiB pages, four times
SQLite's default: a scan or a BLOB read pays the per-page cost a quarter as
often, in the session and in any stock reader of its export, whose pages
are the session's.  At most SQLite's default page cache (2 MiB, set in
bytes, so a quarter as many pages) of it stays in memory.  Once the
database outgrows the cache, SQLite writes the other pages to a file that
it unlinks as soon as it opens it, in the first writable directory of
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
and parses it; the table's producer gives its rows, which go in through
multi-row `INSERT` statements of `_BATCH_ROWS` rows each, the file's last
few one row at a time, so rowids follow catalog and producer order.  Of a
table with `model.KEY_COLUMNS`, the file's key rows go first into a temp
table, `_KEYS_TABLE`, and each producer row binds only its own columns and
the number of its key row; the `INSERT` joins the two by rowid and stores
the table's row, with the storage classes that binding it whole would
give.  The fill creates that table and drops it within its transaction, so
a failed fill leaves none behind.  Binding is most of an insert's cost,
and each text bound is copied: an `elf_symbols` row binds 6 values, not 14.
The parsed file, and its map, are dropped before the next file opens, so a
fill holds one file at a time.  A file that is gone or is another file raises
`reader.FileChanged` from the call that ran the fill (`execute`, `register`
for a MEMOIZED table, `export_database`); the fill is rolled back and its
table stays pending.
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
online-backup API, which gives the new file the session's page size; any
stock SQLite tooling reads it and plans with the same index.
"""

from __future__ import annotations

import os
import sqlite3
import weakref
from contextlib import closing
from enum import Enum
from functools import partial
from itertools import chain, islice
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from . import corpus
from .model import KEY_COLUMNS, SCHEMA, TABLE_KEYS, TABLE_NAMES, TABLE_PRODUCERS
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


# The SQLite type each declared Python column type is stored as.
_AFFINITY = {str: "TEXT", int: "INTEGER", bool: "INTEGER", bytes: "BLOB"}

_CREATE_SQL = {
    name: 'CREATE TABLE "{}" ({})'.format(
        name, ", ".join(f'"{col}" {_AFFINITY[kind]}' for col, kind in columns)
    )
    for name, columns in SCHEMA.items()
}

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

# A keyed fill's key rows, one file's at a time: created and dropped within
# the fill's transaction.  Untyped columns keep each value's storage class.
_KEYS_TABLE = "temp.fill_keys"


def _values(width: int, rows: int) -> str:
    return ", ".join(["({})".format(", ".join("?" * width))] * rows)


def _insert_sql(name: str, rows: int) -> str:
    """The INSERT of `rows` rows of `name` from producer rows.  Of a keyed
    table it joins each row's own values to its key row in `_KEYS_TABLE`,
    by rowid, and stores the columns in SCHEMA order."""
    keys = KEY_COLUMNS.get(name, ())
    own = [col for col, _ in SCHEMA[name] if col not in keys]
    width = len(own) + bool(keys)
    if not keys:
        return 'INSERT INTO "{}" VALUES {}'.format(name, _values(width, rows))
    # A VALUES list names its columns column1, column2, ...; the key number is last.
    source = {col: f"v.column{i}" for i, col in enumerate(own, 1)}
    source.update((col, f'k."{col}"') for col in keys)
    return 'INSERT INTO "{}" SELECT {} FROM (VALUES {}) AS v CROSS JOIN {} AS k ON k.rowid = v.column{}'.format(
        name, ", ".join(source[col] for col, _ in SCHEMA[name]), _values(width, rows), _KEYS_TABLE, width
    )


_INSERT_SQL = {name: _insert_sql(name, 1) for name in SCHEMA}
_BATCH_INSERT_SQL = {name: _insert_sql(name, _BATCH_ROWS) for name in SCHEMA}
# Per keyed table: the key table's CREATE, then its INSERTs of one row and of a batch.
_KEYS_SQL = {
    name: (
        "CREATE TABLE {} ({})".format(_KEYS_TABLE, ", ".join(f'"{col}"' for col in keys)),
        *(f"INSERT INTO {_KEYS_TABLE} VALUES {_values(len(keys), rows)}" for rows in (1, _BATCH_ROWS)),
    )
    for name, keys in KEY_COLUMNS.items()
}


def _insert_rows(conn: sqlite3.Connection, one: str, batch: str, rows: Iterable[tuple]) -> None:
    """Insert `rows` in order: `batch` inserts `_BATCH_ROWS` of them at a
    time, and `one` the last few, one at a time."""
    rows = iter(rows)
    tail: list[tuple] = []

    def batches():
        while True:
            chunk = tuple(islice(rows, _BATCH_ROWS))
            if len(chunk) < _BATCH_ROWS:
                tail.extend(chunk)
                return
            yield tuple(chain.from_iterable(chunk))

    conn.executemany(batch, batches())
    conn.executemany(one, tail)


def _insert(conn: sqlite3.Connection, table: str, obj: ElfObject) -> None:
    """Insert the rows of `table` for one file in order, into `conn`, whose
    `_KEYS_TABLE` the caller created when `table` is keyed.  Nothing refers
    to the file once this returns, so its map is gone before the next file
    opens."""
    if table in KEY_COLUMNS:
        _, one, batch = _KEYS_SQL[table]
        conn.execute(f"DELETE FROM {_KEYS_TABLE}")
        # Emptied, the table numbers its rows from 1 again, as the producer does.
        _insert_rows(conn, one, batch, TABLE_KEYS[table](obj))
    _insert_rows(conn, _INSERT_SQL[table], _BATCH_INSERT_SQL[table], TABLE_PRODUCERS[table](obj))


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
        modes = _normalize_strategies(strategies)
        # A private temporary database: past its page cache, pages go to an unlinked file.
        self._conn = sqlite3.connect("", isolation_level=None)
        # Closed once the session is dropped: the cache's cycle would wait for the collector.
        self._close = weakref.finalize(self, self._conn.close)
        self._pending = set(TABLE_NAMES)
        self._write_denied = False
        # Weak, so the connection keeps no session alive: one dropped unclosed is freed at once.
        self._allowlist = partial(Session._authorize, weakref.proxy(self))
        try:
            try:
                self._conn.execute(f"PRAGMA page_size = {_PAGE_SIZE}")
                for name in TABLE_NAMES:
                    self._conn.execute(_CREATE_SQL[name])
                # Each table's root page, mapped once: elf_symbols_path exists only once
                # elf_symbols is filled, so a statement that opens it reads no pending table.
                self._root_tables = dict(self._conn.execute("SELECT rootpage, name FROM sqlite_master"))
                self._conn.set_authorizer(self._allowlist)
                for name in TABLE_NAMES:
                    if modes[name] == StrategyMode.MEMOIZED:
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
        return TABLE_NAMES

    def _materialize(self, table: str) -> None:
        keyed = table in KEY_COLUMNS
        self._conn.set_authorizer(_allow_all)
        try:
            self._conn.execute("BEGIN")
            if keyed:
                self._conn.execute(_KEYS_SQL[table][0])
            for entry in self._catalog.entries:
                _insert(self._conn, table, corpus.reopen(entry))
            if keyed:
                self._conn.execute(f"DROP TABLE {_KEYS_TABLE}")
            if table == "elf_symbols" and len(self._catalog.entries) >= 2:
                self._conn.execute(_SYMBOL_INDEX_SQL)
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        finally:
            self._conn.set_authorizer(self._allowlist)
        self._pending.discard(table)

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
        per_table = {
            name: self._conn.execute(f'SELECT COUNT(*) FROM main."{name}"').fetchone()[0]
            for name in TABLE_NAMES
        }
        return ExportSummary(len(TABLE_NAMES), sum(per_table.values()), per_table)

    def close(self) -> None:
        self._close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def register(catalog: corpus.CorpusCatalog, strategies: Strategies = None) -> Session:
    """Create a Session whose SQL namespace holds all seven schema tables.

    Raises RegistrationFailure when the strategies are invalid or SQLite
    fails to create the schema or fill a MEMOIZED table, and
    reader.FileChanged when a MEMOIZED table's fill finds a file changed
    since its catalog."""
    return Session(catalog, strategies)
