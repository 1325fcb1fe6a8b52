"""Relational row schema over parsed ELF objects.

`SCHEMA` is the one description of each table: its columns in order, each
with a Python type (`str`, `int`, `bool` or `bytes`).  The engine derives
its DDL from it.

`rows(table, obj)` gives the rows of one table for one ElfObject: tuples in
SCHEMA column order, exactly as SQLite stores them.  A fill binds fewer
values.  Of a table with `KEY_COLUMNS`, the columns that take only a few
distinct values per file, `TABLE_KEYS[table](obj)` gives each combination
of them that the file's rows use once, as a key row, and
`TABLE_PRODUCERS[table](obj)` gives a narrow row per table row: the other
columns in SCHEMA order, then the number of its key row (from 1, in the
order the key rows come).  Of every other table, the producer's rows are
the table's rows.  `symbol_tuples`, `string_tuples` and
`instruction_tuples` give the full rows of their tables.

Integers are in SQLite's signed 64-bit range, flags are 0/1 and section
contents are views of the file.  Rows follow the file's order (symbols
table by table, as `readelf -sW` lists them), derived columns
(exported/imported, demangled names, flag letters, reserved-index names)
are computed here, and everything is pure: the same object always yields
the same rows.  A key function reads no name and decodes no instruction.
Every string comes from `reader`, which finds each NUL of a string table.
"""

from __future__ import annotations

import os
from itertools import chain, count, repeat
from operator import itemgetter
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
# of its values: `str` (TEXT; only `elf_symbols.version` and
# `elf_dynamic_entries.string` may be NULL), `int` and `bool` (INTEGER)
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

# The columns of each table that a fill binds once per file and combination
# (see the module docstring): each takes a handful of values per file, so a
# row of elf_symbols binds 6 values, not 14.  Binding, not storing, is most of
# an insert's cost; a text is copied at every bind.
KEY_COLUMNS: dict[str, tuple[str, ...]] = {
    "elf_symbols": (
        "path", "table", "section", "type", "binding", "visibility", "version", "exported",
        "imported",
    ),
    "elf_strings": ("path", "section"),
    "elf_instructions": ("path", "section"),
}


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


# Records per chunk of a symbol table's fill: `symbol_rows` holds one
# chunk's columns at a time, beside one copy of the table's string table.
_SYMBOL_CHUNK = 4096


def _db_ints(column: list[int]) -> Iterable[int]:
    """`column` as stored: converted by `_db_int` only when a value needs it."""
    return map(_db_int, column) if column and max(column) >= _I64_MAX else column


# The versym word of a record past the end of its table's versym section,
# and of every record of a table without versions.
_NO_WORD = -1


def _symbol_chunks(
    obj: ElfObject,
) -> Iterator[tuple[reader.SymbolTable, int, list[list[int]], Iterator[tuple]]]:
    """Each chunk of `_SYMBOL_CHUNK` records of each symbol table, in
    `obj.symbol_tables` order, as (table, index of its first record, its
    `fields`, the key of each record).

    A record's key is (the table's position in `obj.symbol_tables`,
    st_info, st_other, st_shndx, versym word), and its extended index word
    too in a table with extended section indices: all that its key row
    depends on.
    """
    for position, table in enumerate(obj.symbol_tables):
        for start in range(0, len(table), _SYMBOL_CHUNK):
            fields = table.fields(start, start + _SYMBOL_CHUNK)
            _, infos, others, shndxs, _, _, words, extended = fields
            columns = [repeat(position), infos, others, shndxs, chain(words, repeat(_NO_WORD))]
            if extended:
                columns.append(extended)
            yield table, start, fields, zip(*columns)


class _KeyNumbers(dict):
    """Key numbers from 1, each given to a key when it is first looked up."""

    def __missing__(self, key: tuple) -> int:
        number = self[key] = len(self) + 1
        return number


def symbol_keys(obj: ElfObject) -> Iterator[tuple]:
    """The key rows of elf_symbols (see `KEY_COLUMNS`), one per distinct
    record key in the order the keys first appear, which is the order
    `symbol_rows` numbers them in.  In a table with extended section
    indices, an SHN_XINDEX record's section is the section its index word
    gives: any index, even one in the reserved range."""
    path = path_text(obj.path)
    seen = set()
    for table, _start, _fields, keys in _symbol_chunks(obj):
        for key in dict.fromkeys(keys):
            if key in seen:
                continue
            seen.add(key)
            _, info, other, shndx, word, *extended = key
            if extended and shndx == SHN_XINDEX:
                shndx = extended[0]
                section = obj.sections[shndx].name if shndx else _SHN_NAMES[SHN_UNDEF]
            else:
                section = section_name_for_symbol(obj, shndx)
            exported, imported = derive_export_import(info, other, shndx, table.kind)
            yield (
                path,
                table.kind.value,
                section,
                render_code(info & 0xF, SYMBOL_TYPE_NAMES),
                render_code(info >> 4, SYMBOL_BINDING_NAMES),
                render_code(other & 0x3, SYMBOL_VISIBILITY_NAMES),
                None if word == _NO_WORD else table.version_of[word][0],
                int(exported),
                int(imported),
            )


def symbol_rows(obj: ElfObject) -> Iterator[tuple]:
    """One narrow row, (index, name, demangle_name, value, size, key number),
    per .symtab/.dynsym entry, null symbol included, table by table in
    `obj.symbol_tables` order and each table in index order; versions only
    appear on .dynsym rows.

    Each table is read from the file in chunks of `_SYMBOL_CHUNK` records.
    """
    numbers = _KeyNumbers()
    for table, start, fields, keys in _symbol_chunks(obj):
        if not start:
            names_at = table.name_reader()
        names = names_at(fields[0])
        yield from zip(
            count(start), names, map(demangle, names), _db_ints(fields[4]), _db_ints(fields[5]),
            map(numbers.__getitem__, keys),
        )


def _string_tables(obj: ElfObject) -> list[reader.Section]:
    return [sec for sec in obj.sections if sec.type_code == SHT_STRTAB]


def string_keys(obj: ElfObject) -> Iterator[tuple]:
    """The key rows of elf_strings: one per SHT_STRTAB section."""
    path = path_text(obj.path)
    return ((path, sec.name) for sec in _string_tables(obj))


def string_rows(obj: ElfObject) -> Iterator[tuple]:
    """One narrow row, (offset, value, key number), per entry of every
    SHT_STRTAB section, in (section, offset) order, split by
    `reader.string_entries` a bounded piece at a time."""
    for number, sec in enumerate(_string_tables(obj), 1):
        for offsets, values in reader.string_entries(sec.view):
            yield from zip(offsets, values, repeat(number))


def dynamic_entry_tuples(obj: ElfObject) -> Iterator[tuple]:
    path = path_text(obj.path)
    for e in obj.dynamic:
        yield (path, e.ordinal, e.tag_name, _db_int(e.value), e.string)


# The default of `instruction_rows`: `disasm.DEFAULT_DECODER`, imported on first use.
_DEFAULT_DECODER = object()


def _code_sections(obj: ElfObject) -> list[reader.Section]:
    return [
        sec for sec in obj.sections if sec.flags & SHF_EXECINSTR and sec.type_code != SHT_NOBITS
    ]


def instruction_keys(obj: ElfObject) -> Iterator[tuple]:
    """The key rows of elf_instructions: one per EXECINSTR section that has
    bytes in the file, whether or not a decoder gives it rows."""
    path = path_text(obj.path)
    return ((path, sec.name) for sec in _code_sections(obj))


def instruction_rows(
    obj: ElfObject, decoder: Optional[InstructionDecoder] = _DEFAULT_DECODER
) -> Iterator[tuple]:
    """Linear-sweep decode of every EXECINSTR section, one narrow row,
    (address, size, mnemonic, operands, key number), per instruction.

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
    decode = decoder.decode
    for number, sec in enumerate(_code_sections(obj), 1):
        # A bytes copy: the decoder indexes and slices bytes faster than a view.
        buf, base = sec.content, sec.address
        size = len(buf)
        offset = 0
        while offset < size:
            address = base + offset
            decoded = decode(buf, offset, address)
            if address >= _I64_MAX:
                address = _db_int(address)
            if decoded is None:
                yield (address, 1, "(bad)", "", number)
                offset += 1
            else:
                yield (address, decoded.size, decoded.mnemonic, decoded.operands, number)
                offset += decoded.size


TABLE_PRODUCERS = {
    "elf_headers": header_tuples,
    "elf_sections": section_tuples,
    "elf_segments": segment_tuples,
    "elf_symbols": symbol_rows,
    "elf_strings": string_rows,
    "elf_dynamic_entries": dynamic_entry_tuples,
    "elf_instructions": instruction_rows,
}

TABLE_KEYS = {
    "elf_symbols": symbol_keys,
    "elf_strings": string_keys,
    "elf_instructions": instruction_keys,
}


def _widened(table: str, keys: Iterable[tuple], narrow: Iterable[tuple]) -> Iterator[tuple]:
    """The full rows of `table` from its key rows and its narrow rows."""
    key_columns = KEY_COLUMNS[table]
    own = [column for column, _ in SCHEMA[table] if column not in key_columns]
    # A narrow row, then its key row: its own columns, the key number, the key columns.
    order = itemgetter(*(
        own.index(column) if column in own else len(own) + 1 + key_columns.index(column)
        for column, _ in SCHEMA[table]
    ))
    by_number = (None, *keys)
    return (order(row + by_number[row[-1]]) for row in narrow)


def rows(table: str, obj: ElfObject) -> Iterator[tuple]:
    """The rows of `table` for `obj` in SCHEMA column order, as SQLite
    stores them, from `TABLE_PRODUCERS` and `TABLE_KEYS`."""
    narrow = TABLE_PRODUCERS[table](obj)
    return _widened(table, TABLE_KEYS[table](obj), narrow) if table in TABLE_KEYS else narrow


def symbol_tuples(obj: ElfObject) -> Iterator[tuple]:
    """The rows of elf_symbols, table by table, each in index order."""
    return _widened("elf_symbols", symbol_keys(obj), symbol_rows(obj))


def string_tuples(obj: ElfObject) -> Iterator[tuple]:
    """The rows of elf_strings, in (section, offset) order."""
    return _widened("elf_strings", string_keys(obj), string_rows(obj))


def instruction_tuples(
    obj: ElfObject, decoder: Optional[InstructionDecoder] = _DEFAULT_DECODER
) -> Iterator[tuple]:
    """The rows of elf_instructions, decoded by `decoder` as
    `instruction_rows` decodes them."""
    return _widened("elf_instructions", instruction_keys(obj), instruction_rows(obj, decoder))
