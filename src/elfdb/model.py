"""Relational row schema over parsed ELF objects.

`TABLES` declares each table once, in a `Table` record: its columns in
order, each with a Python type (`str`, `int`, `bool` or `bytes`), its key
columns, its producer and the index it wants in a corpus of two or more
files.  The engine derives its DDL, its statements and its index from the
records alone; `SCHEMA`, `TABLE_NAMES` and `TABLE_PRODUCERS` are views of
them.

`rows(table, obj)` gives the rows of one table for one ElfObject: tuples in
column order, exactly as SQLite stores them.  A fill binds fewer values
and builds no tuple per row.  A table's key columns take only a few
distinct values per file, and each combination of them that the file's rows
use is a key row.  Its producer gives the file's rows in blocks of columns,
each `(new key rows, columns)`: `columns` holds the table's other columns in
column order, then the number of each row's key row, as sequences of one
length, and the new key rows are those the block's rows use first, each
`(number, *key columns)`.  The producer numbers a file's key rows from 1, so
a section that gives no rows shifts no number after it.

Integers are in SQLite's signed 64-bit range, flags are 0/1 and section
contents are views of the file.  Rows follow the file's order (symbols
table by table, as `readelf -sW` lists them), derived columns
(exported/imported, demangled names, flag letters, reserved-index names)
are computed here, and everything is pure: the same object always yields
the same rows.  Every string comes from `reader`, which finds each NUL of
a string table.
"""

from __future__ import annotations

import os
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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


def _file_block(obj: ElfObject, rows: list[tuple]) -> Iterator[tuple]:
    """The one block of a table keyed on its path alone: key row 1, the
    file's path, and `rows` as columns."""
    if rows:
        yield [(1, path_text(obj.path))], [*zip(*rows), [1] * len(rows)]


def header_rows(obj: ElfObject) -> Iterator[tuple]:
    header = obj.header
    ident = header.ident
    yield from _file_block(obj, [(
        header.file_type, header.machine, header.version, _db_int(header.entry_point),
        ident.elf_class.name, ident.data_encoding.name,
        render_code(ident.os_abi, reader.OSABI_NAMES), len(obj.segments), len(obj.sections),
    )])


def section_rows(obj: ElfObject) -> Iterator[tuple]:
    machine = obj.header.machine_code
    yield from _file_block(obj, [(
        s.index, s.name, reader.section_type_name(s.type_code, machine), s.flag_letters,
        _db_int(s.address), _db_int(s.offset), _db_int(s.size), s.link, s.info, s.view,
    ) for s in obj.sections])


def segment_rows(obj: ElfObject) -> Iterator[tuple]:
    yield from _file_block(obj, [(
        s.index, s.type_name, s.flag_letters, s.offset, _db_int(s.vaddr), s.filesz,
        _db_int(s.memsz), _db_int(s.align),
    ) for s in obj.segments])


# Records per block of the symbol and instruction producers: a fill holds one
# block's columns at a time, beside one copy of a symbol table's string table.
_BLOCK = 1024


def _db_ints(column: list[int]) -> list[int]:
    """`column` as stored: converted by `_db_int` only when a value needs it."""
    return [*map(_db_int, column)] if column and max(column) >= _I64_MAX else column


# The versym word of a record past the end of its table's versym section,
# and of every record of a table without versions.
_NO_WORD = -1


class _KeyNumbers(dict):
    """Key numbers from 1, each given to a key when it is first looked up."""

    def __missing__(self, key: tuple) -> int:
        number = self[key] = len(self) + 1
        return number


def _symbol_key_row(obj: ElfObject, table: reader.SymbolTable, path: str, key: tuple) -> tuple:
    """The key columns of elf_symbols (see its `Table`) of a record key: the
    table's position in `obj.symbol_tables`, st_info, st_other, st_shndx and
    versym word, and the extended index word too in a table with extended
    section indices.  There an SHN_XINDEX record's section is the section
    its index word gives: any index, even one in the reserved range."""
    _, info, other, shndx, word, *extended = key
    if extended and shndx == SHN_XINDEX:
        shndx = extended[0]
        section = obj.sections[shndx].name if shndx else _SHN_NAMES[SHN_UNDEF]
    else:
        section = section_name_for_symbol(obj, shndx)
    exported, imported = derive_export_import(info, other, shndx, table.kind)
    return (
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
    """One row, (index, name, demangle_name, value, size, key number), per
    .symtab/.dynsym entry, null symbol included, table by table in
    `obj.symbol_tables` order and each table in index order, in blocks of
    `_BLOCK` records read from the file; versions only appear on .dynsym
    rows.  A record's key is all that its key row depends on."""
    path = path_text(obj.path)
    numbers = _KeyNumbers()
    for position, table in enumerate(obj.symbol_tables):
        names_at = table.name_reader()
        for start in range(0, len(table), _BLOCK):
            fields = table.fields(start, start + _BLOCK)
            offsets, infos, others, shndxs, values, sizes, words, extended = fields
            keys = [repeat(position), infos, others, shndxs, chain(words, repeat(_NO_WORD))]
            if extended:
                keys.append(extended)
            known = len(numbers)
            key_numbers = [*map(numbers.__getitem__, zip(*keys))]
            names = names_at(offsets)
            yield [
                (number, *_symbol_key_row(obj, table, path, key))
                for number, key in enumerate(islice(numbers, known, None), known + 1)
            ], [
                range(start, start + len(names)), names, [*map(demangle, names)],
                _db_ints(values), _db_ints(sizes), key_numbers,
            ]


def _string_tables(obj: ElfObject) -> list[reader.Section]:
    return [sec for sec in obj.sections if sec.type_code == SHT_STRTAB]


def string_rows(obj: ElfObject) -> Iterator[tuple]:
    """One row, (offset, value, key number), per entry of every SHT_STRTAB
    section, in (section, offset) order, in one block per piece of
    `reader.string_entries`.  Key row n is the nth string table's."""
    path = path_text(obj.path)
    for number, sec in enumerate(_string_tables(obj), 1):
        new_keys = [(number, path, sec.name)]
        for offsets, values in reader.string_entries(sec.view):
            yield new_keys, [offsets, values, [number] * len(offsets)]
            new_keys = []


def dynamic_entry_rows(obj: ElfObject) -> Iterator[tuple]:
    yield from _file_block(
        obj, [(e.ordinal, e.tag_name, _db_int(e.value), e.string) for e in obj.dynamic]
    )


# The default of `instruction_rows`: `disasm.DEFAULT_DECODER`, imported on first use.
_DEFAULT_DECODER = object()


def _code_sections(obj: ElfObject) -> list[reader.Section]:
    return [
        sec for sec in obj.sections if sec.flags & SHF_EXECINSTR and sec.type_code != SHT_NOBITS
    ]


def instruction_rows(
    obj: ElfObject, decoder: Optional[InstructionDecoder] = _DEFAULT_DECODER
) -> Iterator[tuple]:
    """Linear-sweep decode of every EXECINSTR section that has bytes in the
    file, one row, (address, size, mnemonic, operands, key number), per
    instruction, in blocks of at most `_BLOCK`.  Key row n is the nth such
    section's.

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
    path = path_text(obj.path)
    for number, sec in enumerate(_code_sections(obj), 1):
        new_keys = [(number, path, sec.name)]
        # A bytes copy: the decoder indexes and slices bytes faster than a view.
        buf, base = sec.content, sec.address
        size = len(buf)
        offset = 0
        while offset < size:
            addresses, sizes, mnemonics, operands = block = [], [], [], []
            for _ in range(_BLOCK):
                address = base + offset
                decoded = decode(buf, offset, address)
                addresses.append(_db_int(address) if address >= _I64_MAX else address)
                if decoded is None:
                    sizes.append(1)
                    mnemonics.append("(bad)")
                    operands.append("")
                    offset += 1
                else:
                    sizes.append(decoded.size)
                    mnemonics.append(decoded.mnemonic)
                    operands.append(decoded.operands)
                    offset += decoded.size
                if offset >= size:
                    break
            yield new_keys, [*block, [number] * len(addresses)]
            new_keys = []


class Table(NamedTuple):
    """One table, declared once: `engine` builds its DDL, its statements and
    its index from this record alone, and `rows` its column order."""

    name: str
    # In declaration order, each with the Python type of its values: `str`
    # (TEXT; only `elf_symbols.version` and `elf_dynamic_entries.string` may be
    # NULL), `int` and `bool` (INTEGER) or `bytes` (BLOB).
    columns: tuple[tuple[str, type], ...]
    # The columns a fill binds once per file and combination: each takes a
    # handful of values per file.  Binding, not storing, is most of an
    # insert's cost; a text is copied at every bind.
    key_columns: tuple[str, ...]
    # (obj) -> blocks of the file's rows, each (new key rows, columns): see
    # the module docstring.  A fill reads it from `TABLE_PRODUCERS`.
    producer: Callable[[ElfObject], Iterable[tuple[list[tuple], list[Sequence]]]]
    # The columns, as SQL, of the index `<name>_path`, built when the catalog
    # holds two or more files; with one, every row has the same path.
    index: Optional[str] = None

    @property
    def own_columns(self) -> list[str]:
        """The columns a block gives, before the key number, in declaration order."""
        return [column for column, _ in self.columns if column not in self.key_columns]


TABLES: dict[str, Table] = {table.name: table for table in (
    Table("elf_headers", (
        ("path", str), ("file_type", str), ("machine", str), ("version", int),
        ("entry_point", int), ("class", str), ("data_encoding", str), ("os_abi", str),
        ("phnum", int), ("shnum", int),
    ), ("path",), header_rows),
    Table("elf_sections", (
        ("path", str), ("index", int), ("name", str), ("sh_type", str), ("flags", str),
        ("address", int), ("offset", int), ("size", int), ("link", int), ("info", int),
        ("content", bytes),
    ), ("path",), section_rows),
    Table("elf_segments", (
        ("path", str), ("index", int), ("p_type", str), ("flags", str), ("offset", int),
        ("vaddr", int), ("filesz", int), ("memsz", int), ("align", int),
    ), ("path",), segment_rows),
    # A row binds 6 values, not 14.  Per-file counts search the index, and the
    # histogram groups along it without a sort.
    Table("elf_symbols", (
        ("path", str), ("table", str), ("index", int), ("name", str), ("demangle_name", str),
        ("section", str), ("type", str), ("binding", str), ("visibility", str),
        ("value", int), ("size", int), ("version", str), ("exported", bool), ("imported", bool),
    ), (
        "path", "table", "section", "type", "binding", "visibility", "version", "exported",
        "imported",
    ), symbol_rows, index='path, "table"'),
    Table(
        "elf_strings", (("path", str), ("section", str), ("offset", int), ("value", str)),
        ("path", "section"), string_rows,
    ),
    Table("elf_dynamic_entries", (
        ("path", str), ("ordinal", int), ("tag", str), ("value", int), ("string", str),
    ), ("path",), dynamic_entry_rows),
    Table("elf_instructions", (
        ("path", str), ("section", str), ("address", int), ("size", int), ("mnemonic", str),
        ("operands", str),
    ), ("path", "section"), instruction_rows),
)}

# Views of TABLES.  A fill reads each producer from TABLE_PRODUCERS when it
# runs, so replacing an entry reroutes every later fill and `rows`.
SCHEMA = {name: table.columns for name, table in TABLES.items()}
TABLE_NAMES = tuple(TABLES)
TABLE_PRODUCERS = {name: table.producer for name, table in TABLES.items()}


def rows(table: str, obj: ElfObject) -> Iterator[tuple]:
    """The rows of `table` for `obj` in column order, as SQLite stores
    them: each row of the blocks of its `TABLE_PRODUCERS` entry with its
    key row."""
    record = TABLES[table]
    own, keys = record.own_columns, record.key_columns
    # A row, then its key row: its own columns, the key number, the key columns.
    order = itemgetter(*(
        own.index(column) if column in own else len(own) + 1 + keys.index(column)
        for column, _ in record.columns
    ))
    key_rows = {}
    for new_keys, columns in TABLE_PRODUCERS[table](obj):
        key_rows.update((key[0], key[1:]) for key in new_keys)
        for row in zip(*columns):
            yield order(row + key_rows[row[-1]])
