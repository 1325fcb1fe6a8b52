"""Build corpora of ELF files and expand them along DT_NEEDED edges.

A catalog keeps what it needs of each file, not the file: every input is
parsed in full, and refused as a fill would refuse it, but an entry keeps
only the file's path, its identity and the .dynamic entries that resolution
reads.  A fill parses the file again with `reopen`, which refuses a file
that changed in between.

Dependency resolution emulates the common dynamic-loader search order
(RPATH-without-RUNPATH up the loader chain, then the configured library
path, then the dependent's RUNPATH, then the default directories) against
an explicit SearchConfig rather than ambient process state.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from . import reader
from .reader import (
    DT_RPATH,
    DT_RUNPATH,
    DT_SONAME,
    STRING_TAGS,
    DynamicEntry,
    ElfObject,
    FileIdentity,
    Frozen,
)

DEFAULT_SEARCH_DIRS = (
    "/lib",
    "/usr/lib",
    "/lib/x86_64-linux-gnu",
    "/usr/lib/x86_64-linux-gnu",
)


class CorpusError(Exception):
    """Every input path failed to produce an entry."""


class UnresolvedDependency(NamedTuple):
    soname: str
    dependent: str
    reason: str = "not found"


class CatalogEntry(NamedTuple):
    """One catalogued file: its canonical absolute path, the identity of the
    file that was parsed, and the DT_NEEDED, DT_SONAME, DT_RPATH and
    DT_RUNPATH entries of its .dynamic, in order."""

    path: str
    identity: FileIdentity
    dynamic: tuple[DynamicEntry, ...]


def _parse_entry(path: str) -> CatalogEntry:
    """Read and parse the file at `path` in full, and keep its entry; the
    parsed object and the file's contents are dropped on return."""
    data, identity = reader.read_file(path)
    obj = reader.open_elf(data, path)
    return CatalogEntry(path, identity, tuple(e for e in obj.dynamic if e.tag_code in STRING_TAGS))


def reopen(entry: CatalogEntry) -> ElfObject:
    """Read and parse the file of `entry` again.  Raises FileChanged, naming
    its path, when the file is gone or its identity is not the one that
    `entry` recorded, before reading it."""
    return reader.open_elf(reader.read_file(entry.path, entry.identity)[0], entry.path)


class CorpusCatalog(Frozen):
    """Catalogued files, each a CatalogEntry once under its canonical
    absolute path, in order: the inputs of `add_paths` first, then the files
    `resolve_recursive` discovered, breadth first.  So
    `resolved.entries[len(catalog):]` are the files that resolving
    `catalog` added.  A catalog holds no file open or mapped.
    """

    _fields = __slots__ = ("entries", "skipped", "read_errors", "unresolved")

    def __init__(
        self,
        entries: tuple[CatalogEntry, ...] = (),
        skipped: tuple[str, ...] = (),  # non-ELF files seen while walking
        read_errors: tuple[tuple[str, str], ...] = (),  # (path, why)
        unresolved: tuple[UnresolvedDependency, ...] = (),
    ):
        self._assign(entries, skipped, read_errors, unresolved)

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(e.path for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class SearchConfig(NamedTuple):
    ld_library_path: tuple[str, ...] = ()
    default_dirs: tuple[str, ...] = DEFAULT_SEARCH_DIRS

    @classmethod
    def from_environment(cls) -> "SearchConfig":
        """Copy LD_LIBRARY_PATH from the process environment."""
        raw = os.environ.get("LD_LIBRARY_PATH", "")
        dirs = tuple(d for d in raw.split(":") if d)
        return cls(ld_library_path=dirs)


def _iter_directory(path: str, recurse: bool) -> Iterable[str]:
    if recurse:
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                yield os.path.join(root, name)
    else:
        with os.scandir(path) as it:
            for entry in sorted(it, key=lambda e: e.name):
                if not entry.is_dir():
                    yield entry.path


def add_paths(paths: Sequence[str], recurse_dirs: bool = False) -> CorpusCatalog:
    """Parse files (and directory members) into a catalog, in input order.

    Directories are walked one level deep unless `recurse_dirs`.  Non-ELF
    files inside directories are skipped and counted; unreadable or
    malformed inputs are collected as read errors.  Raises CorpusError only
    when paths were given and every one of them failed outright.
    """
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    skipped: list[str] = []
    errors: list[tuple[str, str]] = []
    any_ok = False

    def add_file(file_path: str, from_directory: bool) -> bool:
        real = os.path.realpath(file_path)
        if real in seen:
            return True
        try:
            entry = _parse_entry(real)
        except reader.NotElf:
            if from_directory:
                skipped.append(file_path)
                return True
            errors.append((file_path, "not an ELF file"))
            return False
        except (OSError, reader.ElfError) as exc:
            errors.append((file_path, str(exc)))
            return False
        seen.add(real)
        entries.append(entry)
        return True

    for path in paths:
        if os.path.isdir(path):
            ok = True
            try:
                for file_path in _iter_directory(path, recurse_dirs):
                    add_file(file_path, from_directory=True)
            except OSError as exc:
                errors.append((path, str(exc)))
                ok = False
            any_ok = any_ok or ok
        else:
            any_ok = add_file(path, from_directory=False) or any_ok

    if errors:
        # Imported only to report: `logging` costs `elfdb query` 5-8 ms of start-up.
        import logging

        log = logging.getLogger(__name__)
        for path, why in errors:
            log.warning("skipping %s: %s", path, why)
    if paths and not any_ok:
        detail = "; ".join(f"{p}: {why}" for p, why in errors)
        raise CorpusError(f"no usable inputs: {detail}")
    return CorpusCatalog(
        entries=tuple(entries), skipped=tuple(skipped), read_errors=tuple(errors)
    )


def _search_path_entries(entry: CatalogEntry, tag: int) -> list[str]:
    """RPATH/RUNPATH directories, `$ORIGIN` expanded to the directory of `entry`."""
    raw = reader.dynamic_string(entry, tag)
    if not raw:
        return []
    origin = os.path.dirname(entry.path)
    return [p.replace("${ORIGIN}", origin).replace("$ORIGIN", origin) for p in raw.split(":") if p]


def _search_order(dependent_chain: Sequence[CatalogEntry], cfg: SearchConfig) -> list[str]:
    """Candidate directories for one NEEDED lookup, highest priority first."""
    dependent = dependent_chain[0]
    dirs: list[str] = []
    has_runpath = reader.dynamic_string(dependent, DT_RUNPATH) is not None
    if not has_runpath:
        for holder in dependent_chain:
            dirs += _search_path_entries(holder, DT_RPATH)
    dirs += list(cfg.ld_library_path)
    dirs += _search_path_entries(dependent, DT_RUNPATH)
    dirs += list(cfg.default_dirs)
    return dirs


def resolve_recursive(catalog: CorpusCatalog, cfg: Optional[SearchConfig] = None) -> CorpusCatalog:
    """Expand the catalog with the transitive closure of DT_NEEDED.

    Breadth-first and cycle-safe: a soname is resolved at most once, first
    existing regular file on the search path wins, and discovered objects
    follow the input's entries in the order they were found.  Missing or
    unparseable dependencies are reported in `unresolved` and resolution
    continues.  Idempotent: a second pass adds nothing.
    """
    if not catalog.entries:
        raise ValueError("resolve_recursive requires a non-empty catalog")
    if cfg is None:
        cfg = SearchConfig()

    entries = list(catalog.entries)
    known_paths = {entry.path for entry in entries}
    # A soname already provided by a catalog member is never re-resolved.
    settled: set[str] = set()
    for entry in entries:
        soname = reader.dynamic_string(entry, DT_SONAME)
        if soname:
            settled.add(soname)
        settled.add(os.path.basename(entry.path))

    unresolved: list[UnresolvedDependency] = []
    queue: deque[tuple[CatalogEntry, ...]] = deque((entry,) for entry in entries)
    while queue:
        chain = queue.popleft()
        dependent = chain[0]
        search_dirs = None
        for soname in reader.needed_libraries(dependent):
            if soname in settled:
                continue
            settled.add(soname)
            if search_dirs is None:
                search_dirs = _search_order(chain, cfg)
            found = None
            for directory in search_dirs:
                candidate = os.path.join(directory, soname)
                if os.path.isfile(candidate):
                    found = os.path.realpath(candidate)
                    break
            if found is None:
                unresolved.append(UnresolvedDependency(soname=soname, dependent=dependent.path))
                continue
            if found in known_paths:
                continue
            try:
                entry = _parse_entry(found)
            except (reader.ElfError, OSError) as exc:
                unresolved.append(
                    UnresolvedDependency(soname=soname, dependent=dependent.path, reason=str(exc))
                )
                continue
            known_paths.add(found)
            entries.append(entry)
            queue.append((entry, *chain))

    return CorpusCatalog(tuple(entries), catalog.skipped, catalog.read_errors, tuple(unresolved))
