"""Relational row schema over parsed ELF objects.

`SCHEMA` is the one description of each table: its columns in order, each
with a Python type (`str`, `int`, `bool` or `bytes`).  The engine derives
its DDL from it.

Each `*_tuples` producer (`TABLE_PRODUCERS`) maps one ElfObject straight
to the rows of one table: tuples in SCHEMA column order, exactly as SQLite
stores them, with one exception: a missing `elf_symbols.version` is the
integer 0 in the tuple and NULL in SQL (see `ZERO_IS_NULL`).  Integers are
in SQLite's signed 64-bit range, flags are 0/1 and section contents are
views of the file.  Rows follow the file's order (symbols table by table,
as `readelf -sW` lists them), derived columns (exported/imported,
demangled names, flag letters, reserved-index names) are computed here,
and everything is pure: the same object always yields the same rows.
Every string comes from `reader`, which finds each NUL of a string table.
"""

from __future__ import annotations

import os
from itertools import chain, count, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from . import reader
from .cxxabi import demangle
from .reader import (
    SHF_EXECINSTR,
    SHN_ABS,
    SHN_COMMON,
    SHN_LORESERVE,
    SHN_UNDEF,
    SHN_XINDEX,
    SHT_NOBITS,
    SHT_STRTAB,
    SYMBOL_BINDING_NAMES,
    SYMBOL_TYPE_NAMES,
    SYMBOL_VISIBILITY_NAMES,
    ElfObject,
    SymbolTableKind,
    decode_bytes,
    render_code,
)

if TYPE_CHECKING:
    from .disasm import InstructionDecoder

# Symbol type/binding sets for the exported/imported predicate: bindable
# definitions only, per conventional dynamic-linker rules.
_EXPORTABLE_TYPES = frozenset(("FUNC", "OBJECT", "TLS", "GNU_IFUNC"))
_BINDABLE = frozenset(("GLOBAL", "WEAK", "GNU_UNIQUE"))

# The columns of each table in declaration order, each with the Python type
# of its values: `str` (TEXT; only `elf_symbols.version`, see ZERO_IS_NULL,
# and `elf_dynamic_entries.string` may be NULL), `int` and `bool` (INTEGER)
# or `bytes` (BLOB).  Everything else about a table's shape is derived from
# this.
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

# The one (table, column) whose producer writes NULL as the integer 0, which
# the engine's INSERT turns back into NULL with `NULLIF(?, 0)`: sqlite3 binds
# None through an adapter lookup that costs about ten times an int's bind.
# A version is TEXT, and SQLite never finds a text equal to 0, so `'0'` stays.
ZERO_IS_NULL = ("elf_symbols", "version")


def path_text(path: str) -> str:
    """The `path` column for an OS path: its bytes as UTF-8, a stray byte
    escaped as in symbol names, so that every path binds as valid text."""
    return decode_bytes(os.fsencode(path))


_SHN_NAMES = {SHN_UNDEF: "SHN_UNDEF", SHN_ABS: "SHN_ABS", SHN_COMMON: "SHN_COMMON"}


def section_name_for_symbol(obj: ElfObject, shndx: int) -> str:
    """The `section` column: a section name or a reserved-index name.  Any
    other reserved index is written as readelf writes it: `LARGE_COM` on
    x86-64, else `PRC[0xff00]`, `OS [0xff20]` or `RSV[0xfff0]` by range."""
    if shndx in _SHN_NAMES:
        return _SHN_NAMES[shndx]
    if shndx < SHN_LORESERVE:
        return obj.sections[shndx].name
    name = reader.PROCESSOR_SECTION_INDEX_NAMES.get(obj.header.machine_code, {}).get(shndx)
    kind = "PRC" if shndx < reader.SHN_LOOS else "OS " if shndx <= reader.SHN_HIOS else "RSV"
    return name or f"{kind}[0x{shndx:04x}]"


def derive_export_import(
    info: int, other: int, shndx: int, kind: SymbolTableKind
) -> tuple[bool, bool]:
    """(exported, imported) for a symbol with this st_info, st_other and
    st_shndx in a table of `kind`; never both true.

    Bindable means GLOBAL, WEAK or GNU_UNIQUE.  Exported: defined
    somewhere, bindable, of a bindable type, with DEFAULT visibility.
    Imported: undefined and bindable in .dynsym.
    """
    bindable = render_code(info >> 4, SYMBOL_BINDING_NAMES) in _BINDABLE
    exported = (
        shndx != SHN_UNDEF
        and bindable
        and render_code(info & 0xF, SYMBOL_TYPE_NAMES) in _EXPORTABLE_TYPES
        and render_code(other & 0x3, SYMBOL_VISIBILITY_NAMES) == "DEFAULT"
    )
    imported = shndx == SHN_UNDEF and bindable and kind == SymbolTableKind.DYNSYM
    return exported, imported


_I64_MAX = 2**63


def _db_int(value: int) -> int:
    # SQLite integers are signed 64-bit; preserve the bit pattern of
    # full-range unsigned addresses rather than refusing to store them.
    return value - 2**64 if value >= _I64_MAX else value


def header_tuples(obj: ElfObject) -> Iterator[tuple]:
    header = obj.header
    ident = header.ident
    yield (
        path_text(obj.path), header.file_type, header.machine, header.version,
        _db_int(header.entry_point), ident.elf_class.name, ident.data_encoding.name,
        render_code(ident.os_abi, reader.OSABI_NAMES), len(obj.segments), len(obj.sections),
    )


def section_tuples(obj: ElfObject) -> Iterator[tuple]:
    path = path_text(obj.path)
    machine = obj.header.machine_code
    for s in obj.sections:
        yield (
            path, s.index, s.name, reader.section_type_name(s.type_code, machine),
            s.flag_letters, _db_int(s.address), _db_int(s.offset), _db_int(s.size), s.link,
            s.info, s.view,
        )


def segment_tuples(obj: ElfObject) -> Iterator[tuple]:
    path = path_text(obj.path)
    for s in obj.segments:
        yield (
            path, s.index, s.type_name, s.flag_letters, s.offset, _db_int(s.vaddr),
            s.filesz, _db_int(s.memsz), _db_int(s.align),
        )


# Records per chunk of a symbol table's fill: `symbol_tuples` holds one
# chunk's columns at a time, beside one copy of the table's string table.
_SYMBOL_CHUNK = 4096


def _symbol_columns(
    obj: ElfObject, kind: SymbolTableKind, keys: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], tuple]:
    """(section, type, binding, visibility, exported, imported) for each
    distinct (st_info, st_other, st_shndx) of `keys`, from a table of `kind`.
    In a table with extended section indices each key ends with the
    record's index word too, and an SHN_XINDEX record's section is the
    section that word gives: any index, even one in the reserved range.

    Those columns depend on nothing else, so each combination is derived
    once.
    """
    columns = {}
    for key in dict.fromkeys(keys):
        info, other, shndx, *extended = key
        if extended and shndx == SHN_XINDEX:
            shndx = extended[0]
            section = obj.sections[shndx].name if shndx else _SHN_NAMES[SHN_UNDEF]
        else:
            section = section_name_for_symbol(obj, shndx)
        exported, imported = derive_export_import(info, other, shndx, kind)
        columns[key] = (
            section,
            render_code(info & 0xF, SYMBOL_TYPE_NAMES),
            render_code(info >> 4, SYMBOL_BINDING_NAMES),
            render_code(other & 0x3, SYMBOL_VISIBILITY_NAMES),
            int(exported),
            int(imported),
        )
    return columns


def _db_ints(column: list[int]) -> Iterable[int]:
    """`column` as stored: converted by `_db_int` only when a value needs it."""
    return map(_db_int, column) if column and max(column) >= _I64_MAX else column


def symbol_tuples(obj: ElfObject) -> Iterator[tuple]:
    """One row per .symtab/.dynsym entry, null symbol included, table by
    table in `obj.symbol_tables` order and each table in index order;
    versions only appear on .dynsym rows.

    Each table is read from the file in chunks of `_SYMBOL_CHUNK` records.
    """
    path = path_text(obj.path)
    for table in obj.symbol_tables:
        kind = table.kind.value
        names_at = table.name_reader()
        # A missing version is 0, which the engine stores as NULL.
        stored = {
            word: 0 if version is None else version
            for word, (version, _default) in table.version_of.items()
        }
        for start in range(0, len(table), _SYMBOL_CHUNK):
            name_offsets, infos, others, shndxs, values, sizes, words, extended = table.fields(
                start, start + _SYMBOL_CHUNK
            )
            keys = (infos, others, shndxs, extended) if extended else (infos, others, shndxs)
            columns = _symbol_columns(obj, table.kind, zip(*keys))
            rows = zip(
                count(start), names_at(name_offsets), map(columns.__getitem__, zip(*keys)),
                _db_ints(values), _db_ints(sizes), chain(map(stored.__getitem__, words), repeat(0)),
            )
            for (
                index, name, (section, type_, binding, visibility, exported, imported), value,
                size, version,
            ) in rows:
                yield (
                    path, kind, index, name, demangle(name), section, type_, binding,
                    visibility, value, size, version, exported, imported,
                )


def string_tuples(obj: ElfObject) -> Iterator[tuple]:
    """One row per entry of every SHT_STRTAB section, in (section, offset)
    order, split by `reader.string_entries` a bounded piece at a time."""
    path = path_text(obj.path)
    for sec in obj.sections:
        if sec.type_code == SHT_STRTAB:
            for offsets, values in reader.string_entries(sec.view):
                yield from zip(repeat(path), repeat(sec.name), offsets, values)


def dynamic_entry_tuples(obj: ElfObject) -> Iterator[tuple]:
    path = path_text(obj.path)
    for e in obj.dynamic:
        yield (path, e.ordinal, e.tag_name, _db_int(e.value), e.string)


# The default of `instruction_tuples`: `disasm.DEFAULT_DECODER`, imported on first use.
_DEFAULT_DECODER = object()


def instruction_tuples(
    obj: ElfObject, decoder: Optional[InstructionDecoder] = _DEFAULT_DECODER
) -> Iterator[tuple]:
    """Linear-sweep decode of every EXECINSTR section.

    Bytes the decoder rejects become one-byte "(bad)" rows, so addresses
    always advance by exactly the emitted size.  No decoder (or a machine
    the decoder does not support) yields no rows.  Without a `decoder`
    argument, `disasm.DEFAULT_DECODER` decodes, with the `decode` it has
    when the rows are produced.
    """
    if decoder is _DEFAULT_DECODER:
        from .disasm import DEFAULT_DECODER as decoder
    if decoder is None or not decoder.supports(obj.header.machine_code):
        return
    path = path_text(obj.path)
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
