"""Relational row schema over parsed ELF objects.

`SCHEMA` is the one description of each table: its columns in order, each
with a Python type (`str`, `int`, `bool` or `bytes`).  The engine derives
its DDL from it, and `row_type` derives one frozen row dataclass per table
on first use.

Each `*_tuples` producer (`TABLE_PRODUCERS`) maps one ElfObject straight
to the rows of one table: tuples in SCHEMA column order, integers in
SQLite's signed 64-bit range.  `rows` (and `header_row`, `symbol_rows` and
friends) views them as row dataclasses, each value of its declared type:
integers unsigned again, flags bool, section contents bytes.  Row order is
deterministic, derived columns (exported/imported, demangled names, flag
letters, reserved-index names) are computed here, and everything is pure:
the same object always yields the same rows.
"""

from __future__ import annotations

from dataclasses import make_dataclass
from functools import cache, partial
from itertools import accumulate, count, repeat
from keyword import iskeyword
from operator import add, itemgetter
from typing import Iterator, Optional

from . import reader
from .demangle import demangle
from .disasm import DEFAULT_DECODER, InstructionDecoder
from .reader import (
    SHF_EXECINSTR,
    SHN_ABS,
    SHN_COMMON,
    SHN_LORESERVE,
    SHN_UNDEF,
    SHT_NOBITS,
    SHT_STRTAB,
    ElfObject,
    RawSymbol,
    SymbolTable,
    SymbolTableKind,
    decode_bytes,
)

# Symbol type/binding sets for the exported/imported predicate: bindable
# definitions only, per conventional dynamic-linker rules.
_EXPORTABLE_TYPES = frozenset(("FUNC", "OBJECT", "TLS", "GNU_IFUNC"))
_BINDABLE = frozenset(("GLOBAL", "WEAK"))

# The columns of each table in declaration order, each with the Python type
# of its values: `str` (TEXT; only `elf_symbols.version` and
# `elf_dynamic_entries.string` may be None), `int` and `bool` (INTEGER) or
# `bytes` (BLOB).  Everything else about a table's shape is derived from this.
SCHEMA: dict[str, tuple[tuple[str, type], ...]] = {
    "elf_headers": (
        ("path", str), ("file_type", str), ("machine", str), ("version", int),
        ("entry_point", int), ("class", str), ("data_encoding", str), ("os_abi", str),
        ("phnum", int), ("shnum", int),
    ),
    "elf_sections": (
        ("path", str), ("index", int), ("name", str), ("sh_type", str), ("flags", str),
        ("address", int), ("offset", int), ("size", int), ("link", int), ("info", int),
        ("content", bytes),
    ),
    "elf_segments": (
        ("path", str), ("index", int), ("p_type", str), ("flags", str), ("offset", int),
        ("vaddr", int), ("filesz", int), ("memsz", int), ("align", int),
    ),
    "elf_symbols": (
        ("path", str), ("table", str), ("index", int), ("name", str), ("demangle_name", str),
        ("section", str), ("type", str), ("binding", str), ("visibility", str),
        ("value", int), ("size", int), ("version", str), ("exported", bool), ("imported", bool),
    ),
    "elf_strings": (("path", str), ("section", str), ("offset", int), ("value", str)),
    "elf_dynamic_entries": (
        ("path", str), ("ordinal", int), ("tag", str), ("value", int), ("string", str),
    ),
    "elf_instructions": (
        ("path", str), ("section", str), ("address", int), ("size", int),
        ("mnemonic", str), ("operands", str),
    ),
}

TABLE_NAMES = tuple(SCHEMA)


@cache
def row_type(table: str) -> type:
    """A frozen dataclass named after `table` (`elf_symbols` gives
    `ElfSymbols`) with one field per column, a keyword column gaining a
    trailing `_`.  Built on first use."""
    fields = [(c + "_" if iskeyword(c) else c, kind) for c, kind in SCHEMA[table]]
    namespace = {"__module__": __name__}
    name = table.title().replace("_", "")
    return make_dataclass(name, fields, frozen=True, slots=True, namespace=namespace)


def section_name_for_symbol(obj: ElfObject, shndx: int) -> str:
    """The `section` column: a section name or a reserved-index name."""
    if shndx == SHN_UNDEF:
        return "SHN_UNDEF"
    if shndx == SHN_ABS:
        return "SHN_ABS"
    if shndx == SHN_COMMON:
        return "SHN_COMMON"
    if shndx >= SHN_LORESERVE:
        return str(shndx)
    return obj.sections[shndx].name


def derive_export_import(sym: RawSymbol) -> tuple[bool, bool]:
    """(exported, imported) for one symbol; never both true.

    Exported: defined somewhere, GLOBAL/WEAK, of a bindable type, with
    DEFAULT visibility.  Imported: undefined GLOBAL/WEAK in .dynsym.
    """
    bindable = sym.binding_name in _BINDABLE
    exported = (
        sym.shndx != SHN_UNDEF
        and bindable
        and sym.type_name in _EXPORTABLE_TYPES
        and sym.visibility_name == "DEFAULT"
    )
    imported = (
        sym.shndx == SHN_UNDEF and bindable and sym.table == SymbolTableKind.DYNSYM
    )
    return exported, imported


def _string_columns(content: bytes) -> tuple[Iterator[int], Iterator[str]]:
    """The offsets and the values of the NUL-terminated entries of one
    string table; an unterminated tail is not an entry."""
    pieces = content.split(b"\x00")
    pieces.pop()  # the bytes after the last NUL
    # Entry i starts after the i entries and i NULs before it.
    offsets = map(add, accumulate(map(len, pieces), initial=0), count())
    return offsets, map(decode_bytes, pieces)


def iter_table_strings(content: bytes) -> Iterator[tuple[int, str]]:
    """(offset, value) for each NUL-terminated entry of one string table."""
    return zip(*_string_columns(content))


_I64_MAX = 2**63


def _db_int(value: int) -> int:
    # SQLite integers are signed 64-bit; preserve the bit pattern of
    # full-range unsigned addresses rather than refusing to store them.
    return value - 2**64 if value >= _I64_MAX else value


def header_tuples(obj: ElfObject) -> Iterator[tuple]:
    header = obj.header
    ident = header.ident
    yield (
        obj.path, header.file_type, header.machine, header.version, _db_int(header.entry_point),
        ident.elf_class.name, ident.data_encoding.name,
        reader.render_code(ident.os_abi, reader.OSABI_NAMES), len(obj.segments), len(obj.sections),
    )


def section_tuples(obj: ElfObject) -> Iterator[tuple]:
    path = obj.path
    for s in obj.sections:
        yield (
            path, s.index, s.name, s.type_name, s.flag_letters, _db_int(s.address),
            _db_int(s.offset), _db_int(s.size), s.link, s.info, s.view,
        )


def segment_tuples(obj: ElfObject) -> Iterator[tuple]:
    path = obj.path
    for s in obj.segments:
        yield (
            path, s.index, s.type_name, s.flag_letters, s.offset, _db_int(s.vaddr),
            s.filesz, _db_int(s.memsz), _db_int(s.align),
        )


def _symbol_columns(obj: ElfObject, table: SymbolTable) -> dict[tuple[int, int, int], tuple]:
    """(section, type, binding, visibility, exported, imported) for each
    distinct (st_info, st_other, st_shndx) of one table.

    Those columns depend on nothing else, so each combination is derived
    once, from one symbol that has it.
    """
    keys = zip(table.infos, table.others, table.shndxs)
    columns = {}
    for key, index in dict(zip(keys, count())).items():
        sym = table.symbol(index)
        exported, imported = derive_export_import(sym)
        columns[key] = (
            section_name_for_symbol(obj, sym.shndx),
            sym.type_name,
            sym.binding_name,
            sym.visibility_name,
            int(exported),
            int(imported),
        )
    return columns


def _symbol_tuples_in_table_order(obj: ElfObject) -> Iterator[tuple]:
    path = obj.path
    for table in obj.symbol_tables:
        kind = table.kind.value
        columns = _symbol_columns(obj, table)
        keys = zip(table.infos, table.others, table.shndxs)
        versions = map(itemgetter(0), table.versions) if table.versions else repeat(None)
        for index, name, key, value, size, version in zip(
            count(), table.names, keys, table.values, table.sizes, versions
        ):
            section, type_, binding, visibility, exported, imported = columns[key]
            yield (
                path, kind, index, name, demangle(name), section, type_, binding,
                visibility, _db_int(value), _db_int(size), version, exported, imported,
            )


def symbol_tuples(obj: ElfObject) -> Iterator[tuple]:
    """One row per .symtab/.dynsym entry, null symbol included.

    Ordered by (table, index) with '.dynsym' first; versions only appear on
    .dynsym rows.  Rows come straight from the parsed tables, which are
    already in that order unless one file holds two tables of one kind.
    """
    rows = _symbol_tuples_in_table_order(obj)
    kinds = [t.kind for t in obj.symbol_tables]
    if len(set(kinds)) < len(kinds):
        rows = sorted(rows, key=itemgetter(1, 2))
    yield from rows


def string_tuples(obj: ElfObject) -> Iterator[tuple]:
    """One row per entry of every SHT_STRTAB section, in (section, offset) order."""
    path = obj.path
    for sec in obj.sections:
        if sec.type_code == SHT_STRTAB:
            # The parse already holds bytes copies of the tables it looked
            # up; any other table is copied only while it is split.
            content = obj.string_tables.get(sec.index) or sec.content
            yield from zip(repeat(path), repeat(sec.name), *_string_columns(content))


def dynamic_entry_tuples(obj: ElfObject) -> Iterator[tuple]:
    path = obj.path
    for e in obj.dynamic:
        yield (path, e.ordinal, e.tag_name, _db_int(e.value), e.string)


def instruction_tuples(
    obj: ElfObject, decoder: Optional[InstructionDecoder] = DEFAULT_DECODER
) -> Iterator[tuple]:
    """Linear-sweep decode of every EXECINSTR section.

    Bytes the decoder rejects become one-byte "(bad)" rows, so addresses
    always advance by exactly the emitted size.  No decoder (or a machine
    the decoder does not support) yields no rows.
    """
    if decoder is None or not decoder.supports(obj.header.machine_code):
        return
    path = obj.path
    decode = decoder.decode
    for sec in obj.sections:
        if not sec.flags & SHF_EXECINSTR or sec.type_code == SHT_NOBITS:
            continue
        # A bytes copy: the decoder indexes and slices bytes faster than a view.
        buf, name, base = sec.content, sec.name, sec.address
        size = len(buf)
        offset = 0
        while offset < size:
            address = base + offset
            decoded = decode(buf, offset, address)
            if address >= _I64_MAX:
                address = _db_int(address)
            if decoded is None:
                yield (path, name, address, 1, "(bad)", "")
                offset += 1
            else:
                yield (path, name, address, decoded.size, decoded.mnemonic, decoded.operands)
                offset += decoded.size


TABLE_PRODUCERS = {
    "elf_headers": header_tuples,
    "elf_sections": section_tuples,
    "elf_segments": segment_tuples,
    "elf_symbols": symbol_tuples,
    "elf_strings": string_tuples,
    "elf_dynamic_entries": dynamic_entry_tuples,
    "elf_instructions": instruction_tuples,
}


# How a view gives back a stored value as its column's declared type: only
# `_db_int` ever makes an integer negative, flags are stored as 0/1, and a
# section's content is stored as a view of the file.
_AS_DECLARED = {
    str: lambda value: value,
    int: lambda value: value + 2**64 if value < 0 else value,
    bool: bool,
    bytes: bytes,
}


def rows(table: str, obj: ElfObject, *args) -> tuple:
    """The rows `TABLE_PRODUCERS[table]` gives for `obj` (and `args`), as
    instances of the table's row dataclass with values of declared types."""
    make_row = row_type(table)
    converters = [_AS_DECLARED[kind] for _, kind in SCHEMA[table]]
    return tuple(
        make_row(*[convert(value) for convert, value in zip(converters, row)])
        for row in TABLE_PRODUCERS[table](obj, *args)
    )


def header_row(obj: ElfObject):
    return rows("elf_headers", obj)[0]


section_rows = partial(rows, "elf_sections")
segment_rows = partial(rows, "elf_segments")
symbol_rows = partial(rows, "elf_symbols")
string_rows = partial(rows, "elf_strings")
dynamic_entry_rows = partial(rows, "elf_dynamic_entries")
instruction_rows = partial(rows, "elf_instructions")  # optional decoder argument
