"""Shared fixtures and independent oracles.

The oracles shell out to binutils (readelf, c++filt) and parse its text
output; they never touch the package's own parsing path, so count, version,
and dynamic-entry comparisons are genuinely independent cross-checks.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import sqlite3
import struct
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

import elfdb
from elfdb import bench, engine, model, reader
from elfdb.bench import SymbolSpec, write_elf
from elfdb.reader import DataEncoding, ElfClass, SymbolTableKind

READELF = shutil.which("readelf")
CXXFILT = shutil.which("c++filt")

SYSTEM_DIRS = ("/bin", "/usr/bin", "/lib/x86_64-linux-gnu", "/usr/lib/x86_64-linux-gnu")

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
RUBY_LIKE = os.path.join(FIXTURE_DIR, "ruby_like.so")


def require_readelf():
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")


def run_readelf(*args: str) -> str:
    """readelf's output.  Under a UTF-8 locale readelf 2.40 mangles a
    multi-byte name (`grüße` comes out as the bytes 67 72 c3 c3 65), so it
    runs in the C locale, which passes a name's bytes through; they are
    decoded as UTF-8 with stray bytes escaped, as the reader decodes names."""
    require_readelf()
    env = {**os.environ, "LC_ALL": "C"}
    out = subprocess.run([READELF, *args], capture_output=True, check=True, env=env).stdout
    return out.decode("utf-8", "backslashreplace")


_TABLE_HEADER = re.compile(r"Symbol table '(\S+)' contains (\d+) entries:")
# The Ndx field is one word but for an OS-specific index, such as `OS [0xff20]`.
_SYMBOL_LINE = re.compile(
    r"^\s*(\d+):\s+([0-9a-fA-F]+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+"
    r"(OS \[0x[0-9a-f]+\]|\S+)\s*(.*)$"
)
# readelf's text for a type or binding code reserved to the OS ABI, such as
# binding 10 (GNU_UNIQUE) in a file whose OS/ABI is not GNU; rewritten to
# one word, OS_SPECIFIC_10, so that the line splits into its fields.
_OS_SPECIFIC = re.compile(r"<OS specific>: (\d+)")


@dataclass(frozen=True)
class OracleSymbol:
    index: int
    value: int
    size: str
    sym_type: str
    bind: str
    vis: str
    ndx: str
    name: str
    version: Optional[str]
    version_default: bool


def _split_versioned_name(raw: str) -> tuple[str, Optional[str], bool]:
    raw = re.sub(r"\s+\(\d+\)$", "", raw.strip())  # drop the " (N)" index suffix
    if "@@" in raw:
        name, version = raw.split("@@", 1)
        return name, version, True
    if "@" in raw:
        name, version = raw.rsplit("@", 1)
        return name, version, False
    return raw, None, False


def readelf_symbol_tables(path: str) -> list[tuple[str, list[OracleSymbol]]]:
    """All symbol tables as readelf reports them, each with its section's
    name, in the order readelf lists them: section order.  Two tables may
    have one name, as both have `<no-strings>` when `e_shstrndx` is
    SHN_UNDEF."""
    out = run_readelf("-sW", path)
    tables: list[tuple[str, list[OracleSymbol]]] = []
    current: Optional[list[OracleSymbol]] = None
    for line in out.splitlines():
        header = _TABLE_HEADER.search(line)
        if header:
            current = []
            tables.append((header.group(1), current))
            continue
        if current is None:
            continue
        m = _SYMBOL_LINE.match(_OS_SPECIFIC.sub(r"OS_SPECIFIC_\1", line))
        if not m or m.group(3) == "Size":
            continue
        name, version, default = _split_versioned_name(m.group(8))
        current.append(
            OracleSymbol(
                index=int(m.group(1)),
                value=int(m.group(2), 16),
                size=m.group(3),
                sym_type=m.group(4),
                bind=m.group(5),
                vis=m.group(6),
                ndx=m.group(7),
                name=name,
                version=version,
                version_default=default,
            )
        )
    return tables


def readelf_table_counts(path: str) -> dict[str, int]:
    out = run_readelf("-sW", path)
    return {m.group(1): int(m.group(2)) for m in _TABLE_HEADER.finditer(out)}


# One program header of `readelf -lW`: type, offset, virtual address,
# physical address, file size and memory size, then the flags (the three
# characters R, W and E or a space each) and the alignment.
_SEGMENT_LINE = re.compile(
    r"^\s+(\S+)\s+(0x[0-9a-f]+)\s+(0x[0-9a-f]+)\s+0x[0-9a-f]+\s+(0x[0-9a-f]+)"
    r"\s+(0x[0-9a-f]+) (.{3}) (0x[0-9a-f]+|0)$"
)


def readelf_segments(path: str) -> list[tuple]:
    """Each program header in order as the `elf_segments` columns from
    `type` on: (type, flags, offset, vaddr, filesz, memsz, align).  Flags are
    written as elfdb writes them: `R E` becomes `RX`."""
    rows = []
    for m in map(_SEGMENT_LINE.match, run_readelf("-lW", path).splitlines()):
        if m:
            seg_type, offset, vaddr, filesz, memsz, flags, align = m.groups()
            numbers = (int(v, 16) for v in (offset, vaddr, filesz, memsz, align))
            rows.append((seg_type, flags.replace(" ", "").replace("E", "X"), *numbers))
    return rows


_DYNAMIC_LINE = re.compile(r"^ 0x[0-9a-fA-F]+ \((\w+)\)\s+(.*)$")
_BRACKETED = re.compile(r"\[(.*)\]$")


def readelf_dynamic(path: str) -> list[tuple[str, str]]:
    """(tag, text) rows from readelf -d; bracket values are unwrapped."""
    out = run_readelf("-dW", path)
    rows = []
    for line in out.splitlines():
        m = _DYNAMIC_LINE.match(line)
        if not m:
            continue
        value = m.group(2).strip()
        bracket = _BRACKETED.search(value)
        rows.append((m.group(1), bracket.group(1) if bracket else value))
    return rows


def cxxfilt(name: str) -> str:
    if CXXFILT is None:
        pytest.skip("c++filt not available for oracle comparison")
    return subprocess.run(
        [CXXFILT, name], capture_output=True, text=True, check=True
    ).stdout.strip()


_SEED_ELVES = (
    "/bin/ls",
    "/bin/cat",
    "/lib/x86_64-linux-gnu/libc.so.6",
    "/lib/x86_64-linux-gnu/libz.so.1",
)


def system_elves(limit: int = 24) -> list[str]:
    """Real ELF files from the system, deterministic order, deduplicated."""
    found: list[str] = []
    seen: set[str] = set()
    for path in _SEED_ELVES:
        if os.path.isfile(path):
            real = os.path.realpath(path)
            if real not in seen:
                seen.add(real)
                found.append(real)
                if len(found) >= limit:
                    return found
    for root in SYSTEM_DIRS:
        if not os.path.isdir(root):
            continue
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            if not os.path.isfile(path):
                continue
            try:
                with open(path, "rb") as fh:
                    magic = fh.read(4)
            except OSError:
                continue
            if magic != b"\x7fELF":
                continue
            real = os.path.realpath(path)
            if real in seen:
                continue
            seen.add(real)
            found.append(real)
            if len(found) >= limit:
                return found
    return found


@pytest.fixture(scope="session")
def mapped_elf(tmp_path_factory) -> str:
    """A generated file of 30,000 symbols, just over the size at which
    `reader.read_file` maps a file instead of reading it."""
    path = str(tmp_path_factory.mktemp("mapped") / "mapped.so")
    bench.generate_elf(bench.GeneratedElfSpec(symbol_count=30_000), path)
    assert os.path.getsize(path) >= reader.MAP_THRESHOLD
    return os.path.realpath(path)


# Pages a limited session database may hold: the 8 schema pages (the
# schema table's and one root per table) plus 8 pages of rows, 128 KiB at
# the session's 16 KiB pages.  The limit is set before the session sets its
# page size, and holds as a count of pages.
SESSION_PAGE_LIMIT = 16


@pytest.fixture
def full_session_database(monkeypatch) -> list:
    """Limits each session database opened during the test to
    `SESSION_PAGE_LIMIT` pages, so filling a large table fails with
    SQLITE_FULL as on a full temp disk.  Returns the limited connections."""
    connect = sqlite3.connect
    limited = []

    def limited_connect(database, *args, **kwargs):
        conn = connect(database, *args, **kwargs)
        if database == "":
            conn.execute(f"PRAGMA max_page_count = {SESSION_PAGE_LIMIT}")
            limited.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", limited_connect)
    return limited


def lift_page_limit(session: engine.Session) -> None:
    """Lifts a `full_session_database` limit, as freeing the disk would."""
    session._conn.set_authorizer(engine._allow_all)
    try:
        session._conn.execute("PRAGMA max_page_count = 1000000")
    finally:
        session._conn.set_authorizer(session._allowlist)


def child_env(**extra: str) -> dict:
    """The environment of a child interpreter that imports this `elfdb`."""
    src = os.path.dirname(os.path.dirname(elfdb.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def run_child(script: str, *argv: str, **env: str):
    """The last stdout line of a child running `script`, read as a literal;
    `env` adds variables to the child's environment."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *argv],
        env=child_env(**env), capture_output=True, text=True, check=True,
    ).stdout
    return ast.literal_eval(out.splitlines()[-1])


@pytest.fixture(scope="session")
def symbols_1e5(tmp_path_factory) -> str:
    """A generated file of 100,000 exported functions."""
    path = str(tmp_path_factory.mktemp("gen") / "gen100000.so")
    bench.generate_elf(bench.GeneratedElfSpec(symbol_count=100_000), path)
    return path


@pytest.fixture
def make_elf(tmp_path):
    """Factory writing one synthetic ELF into the test's tmp dir."""

    def build(name: str = "lib.so", **kwargs) -> bench.WrittenElf:
        return bench.write_elf(str(tmp_path / name), **kwargs)

    return build


@pytest.fixture
def versioned_lib(tmp_path) -> tuple[str, list[Optional[str]]]:
    """A file whose .dynsym holds the null symbol and 40 functions, so that a
    fill inserts one 32-row batch and then single rows, and whose .symtab
    holds 2 more; and the version of each .dynsym entry.

    Entries 1, 31 and 33, on both sides of the batch's end, and 40, the last
    one, have a version literally named "0"; entry 2 has "LIB_1" and entry
    3 one with an empty name; the rest have none."""
    path = str(tmp_path / "libversioned.so")
    write_elf(
        path,
        symbols=exported_funcs(*(f"fn_{i:02}" for i in range(1, 41))),
        symtab_symbols=exported_funcs("helper", "other"),
    )
    words = [0] + [1] * 40
    words[1] = words[33] = words[40] = 2
    words[31] = 0x8002  # hidden: not the default version, still named "0"
    words[2], words[3] = 3, 4
    add_symbol_versions(path, ["0", "LIB_1", ""], words)
    names = {2: "0", 3: "LIB_1", 4: ""}
    return os.path.realpath(path), [names.get(w & 0x7FFF) for w in words]


@pytest.fixture
def non_utf8_lib(tmp_path) -> str:
    """A generated file, alone in its directory, whose name holds byte 0xff,
    which is not valid UTF-8; skipped where the filesystem refuses it."""
    path = os.path.join(str(tmp_path), os.fsdecode(b"lib\xffz.so"))
    try:
        write_elf(path, symbols=exported_funcs("f", "g"))
    except (OSError, UnicodeEncodeError) as exc:
        pytest.skip(f"the filesystem refuses a non-UTF-8 name: {exc}")
    return path


def named_rows(table: str, obj: reader.ElfObject) -> list[dict]:
    """The rows `model.rows(table, obj)` gives, each a dict from column name
    to the value SQLite stores."""
    columns = [c for c, _ in model.SCHEMA[table]]
    return [dict(zip(columns, row)) for row in model.rows(table, obj)]


def symbol_table(obj: reader.ElfObject, kind: SymbolTableKind) -> reader.SymbolTable:
    """The one symbol table of `kind` in `obj`."""
    (table,) = [t for t in obj.symbol_tables if t.kind == kind]
    return table


def exported_funcs(*names: str) -> list[SymbolSpec]:
    return [SymbolSpec(name=n) for n in names]


def add_symbol_versions(path: str, versions: list[str], words: list[int]) -> None:
    """Version the .dynsym of the file at `path` in place.

    Appends a `.gnu.version` holding `words`, one per .dynsym entry, a
    `.gnu.version_d` that defines index 1 as the base and `versions` as
    indices 2, 3, ..., and a `.verstr` string table for their names; then a
    `.shstrtab` naming all sections, and the section headers.  Only the
    section headers locate the new sections, so readelf, which looks for
    versions through the dynamic section, does not show them.
    """
    obj = reader.load_elf(path)
    hdr = obj.header
    lay = reader._layouts(hdr.ident.elf_class, hdr.ident.data_encoding)
    data = bytearray(Path(path).read_bytes())
    headers = [
        list(lay.shdr.unpack_from(data, hdr.shoff + i * hdr.shentsize)) for i in range(hdr.shnum)
    ]
    dynsym = obj.section_named(".dynsym").index
    shstrtab = bytearray(obj.sections[hdr.shstrndx].content)
    verstr = bytearray(b"\x00")
    verdef = bytearray()
    names = ["base", *versions]
    for ndx, name in enumerate(names, start=1):
        name_offset = len(verstr)
        verstr += name.encode() + b"\x00"
        last = ndx == len(names)
        # Elf_Verdef (20 bytes) then its one Elf_Verdaux (8 bytes).
        verdef += lay.verdef.pack(1, int(ndx == 1), ndx, 1, 0, 20, 0 if last else 28)
        verdef += lay.verdaux.pack(name_offset, 0)
    bo = "<" if hdr.ident.data_encoding == DataEncoding.LSB else ">"
    versym = struct.pack(f"{bo}{len(words)}H", *words)
    bodies = [
        (".gnu.version", reader.SHT_GNU_VERSYM, versym, dynsym, 0, 2),
        (".gnu.version_d", reader.SHT_GNU_VERDEF, bytes(verdef), hdr.shnum + 2, len(names), 0),
        (".verstr", reader.SHT_STRTAB, bytes(verstr), 0, 0, 0),
    ]
    for name, type_code, body, link, info, entsize in bodies:
        data += bytes(-len(data) % 8)
        headers.append([len(shstrtab), type_code, 0, 0, len(data), len(body), link, info, 8, entsize])
        shstrtab += name.encode() + b"\x00"
        data += body
    headers[hdr.shstrndx][4:6] = [len(data), len(shstrtab)]
    data += shstrtab + bytes(-(len(data) + len(shstrtab)) % 8)
    shoff = len(data)
    data += b"".join(lay.shdr.pack(*h) for h in headers)
    lay.ehdr.pack_into(data, 16, *hdr._replace(shoff=shoff, shnum=len(headers))[1:])
    with open(path, "wb") as fh:
        fh.write(data)


def varied_elf_kwargs(elf_class: ElfClass, encoding: DataEncoding) -> dict:
    """`write_elf` arguments for a file with both symbol tables and one symbol
    of each kind the writer can plant, a full-width size included."""
    widest = 2**64 - 1 if elf_class == ElfClass.ELF64 else 2**32 - 1
    dynsym = [
        SymbolSpec("plain"),
        SymbolSpec("_ZN3app4mainEv"),
        SymbolSpec("weak_data", binding="WEAK", sym_type="OBJECT", section=".data"),
        SymbolSpec("hidden_fn", visibility="HIDDEN"),
        SymbolSpec("protected_fn", visibility="PROTECTED"),
        SymbolSpec("local_fn", binding="LOCAL"),
        SymbolSpec("zeroed", sym_type="OBJECT", section=".bss", size=8),
        SymbolSpec("tls_var", sym_type="TLS", section=".data"),
        SymbolSpec("resolver", sym_type="GNU_IFUNC"),
        SymbolSpec("imported_fn", section="SHN_UNDEF"),
        SymbolSpec("weak_ref", binding="WEAK", sym_type="NOTYPE", section="SHN_UNDEF"),
        SymbolSpec("wide", sym_type="OBJECT", section="SHN_ABS", size=widest),
    ]
    symtab = [
        SymbolSpec("unit.c", binding="LOCAL", sym_type="FILE", section="SHN_ABS"),
        SymbolSpec("helper", binding="LOCAL"),
        SymbolSpec("_ZN3app6helperEi", binding="WEAK"),
        SymbolSpec("undefined_here", section="SHN_UNDEF"),
    ]
    return dict(
        symbols=dynsym,
        symtab_symbols=symtab,
        needed=["libc.so.6"],
        runpath="/opt/lib",
        elf_class=elf_class,
        encoding=encoding,
        machine=62 if elf_class == ElfClass.ELF64 else 20,
    )


def write_varied_elf(path: str, elf_class: ElfClass, encoding: DataEncoding) -> str:
    """The file of `varied_elf_kwargs` at `path`."""
    write_elf(path, **varied_elf_kwargs(elf_class, encoding))
    return path
