"""Relational row schema over parsed ELF objects.

Each function maps one ElfObject into the rows of one table.  Row order is
deterministic, derived columns (exported/imported, demangled names, flag
letters, reserved-index names) are computed here, and everything is pure:
the same object always yields the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter
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


@dataclass(frozen=True, slots=True)
class HeaderRow:
    path: str
    file_type: str
    machine: str
    version: int
    entry_point: int
    elf_class: str
    data_encoding: str
    os_abi: str
    phnum: int
    shnum: int


@dataclass(frozen=True, slots=True)
class SectionRow:
    path: str
    index: int
    name: str
    sh_type: str
    flags: str
    address: int
    offset: int
    size: int
    link: int
    info: int
    content: bytes


@dataclass(frozen=True, slots=True)
class SegmentRow:
    path: str
    index: int
    p_type: str
    flags: str
    offset: int
    vaddr: int
    filesz: int
    memsz: int
    align: int


@dataclass(frozen=True, slots=True)
class SymbolRow:
    path: str
    table: str
    index: int
    name: str
    demangle_name: str
    section: str
    type: str
    binding: str
    visibility: str
    value: int
    size: int
    version: Optional[str]
    exported: bool
    imported: bool


@dataclass(frozen=True, slots=True)
class StringRow:
    path: str
    section: str
    offset: int
    value: str


@dataclass(frozen=True, slots=True)
class DynamicEntryRow:
    path: str
    ordinal: int
    tag: str
    value: int


@dataclass(frozen=True, slots=True)
class InstructionRow:
    path: str
    section: str
    address: int
    size: int
    mnemonic: str
    operands: str


def header_row(obj: ElfObject) -> HeaderRow:
    ident = obj.header.ident
    return HeaderRow(
        path=obj.path,
        file_type=obj.header.file_type,
        machine=obj.header.machine,
        version=obj.header.version,
        entry_point=obj.header.entry_point,
        elf_class=ident.elf_class.name,
        data_encoding=ident.data_encoding.name,
        os_abi=reader.render_code(ident.os_abi, reader.OSABI_NAMES),
        phnum=len(obj.segments),
        shnum=len(obj.sections),
    )


def section_rows(obj: ElfObject) -> tuple[SectionRow, ...]:
    return tuple(
        SectionRow(
            path=obj.path,
            index=s.index,
            name=s.name,
            sh_type=s.type_name,
            flags=s.flag_letters,
            address=s.address,
            offset=s.offset,
            size=s.size,
            link=s.link,
            info=s.info,
            content=s.content,
        )
        for s in obj.sections
    )


def segment_rows(obj: ElfObject) -> tuple[SegmentRow, ...]:
    return tuple(
        SegmentRow(
            path=obj.path,
            index=s.index,
            p_type=s.type_name,
            flags=s.flag_letters,
            offset=s.offset,
            vaddr=s.vaddr,
            filesz=s.filesz,
            memsz=s.memsz,
            align=s.align,
        )
        for s in obj.segments
    )


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


def symbol_rows(obj: ElfObject) -> tuple[SymbolRow, ...]:
    """The `symbol_tuples` rows as SymbolRows, with unsigned value/size and
    bool flags."""
    return tuple(
        SymbolRow(*t[:9], _unsigned(t[9]), _unsigned(t[10]), t[11], bool(t[12]), bool(t[13]))
        for t in symbol_tuples(obj)
    )


def iter_table_strings(content: bytes) -> Iterator[tuple[int, str]]:
    """(offset, value) for each NUL-terminated entry of one string table."""
    pos = 0
    size = len(content)
    while pos < size:
        end = content.find(b"\x00", pos)
        if end < 0:
            break  # unterminated tail is not an entry
        yield pos, decode_bytes(content[pos:end])
        pos = end + 1


def string_rows(obj: ElfObject) -> tuple[StringRow, ...]:
    """Rows for every entry of every SHT_STRTAB section, in (section, offset) order."""
    rows = []
    for sec in obj.sections:
        if sec.type_code != SHT_STRTAB:
            continue
        for offset, value in iter_table_strings(sec.content):
            rows.append(StringRow(path=obj.path, section=sec.name, offset=offset, value=value))
    return tuple(rows)


def dynamic_entry_rows(obj: ElfObject) -> tuple[DynamicEntryRow, ...]:
    return tuple(
        DynamicEntryRow(path=obj.path, ordinal=e.ordinal, tag=e.tag_name, value=e.value)
        for e in obj.dynamic
    )


def instruction_rows(
    obj: ElfObject, decoder: Optional[InstructionDecoder] = DEFAULT_DECODER
) -> tuple[InstructionRow, ...]:
    """Linear-sweep decode of every EXECINSTR section.

    Bytes the decoder rejects become one-byte "(bad)" rows, so addresses
    always advance by exactly the emitted size.  No decoder (or a machine
    the decoder does not support) yields no rows.
    """
    if decoder is None or not decoder.supports(obj.header.machine_code):
        return ()
    rows = []
    for sec in obj.sections:
        if not sec.flags & SHF_EXECINSTR or sec.type_code == SHT_NOBITS:
            continue
        buf = sec.content
        offset = 0
        while offset < len(buf):
            address = sec.address + offset
            decoded = decoder.decode(buf, offset, address)
            if decoded is None:
                rows.append(
                    InstructionRow(obj.path, sec.name, address, 1, "(bad)", "")
                )
                offset += 1
            else:
                rows.append(
                    InstructionRow(
                        obj.path, sec.name, address, decoded.size, decoded.mnemonic, decoded.operands
                    )
                )
                offset += decoded.size
    return tuple(rows)


# ---------------------------------------------------------------------------
# Table schema shared with the query engine.

# column name -> SQLite affinity, in declaration order, per table.
SCHEMA: dict[str, tuple[tuple[str, str], ...]] = {
    "elf_headers": (
        ("path", "TEXT"),
        ("file_type", "TEXT"),
        ("machine", "TEXT"),
        ("version", "INTEGER"),
        ("entry_point", "INTEGER"),
        ("class", "TEXT"),
        ("data_encoding", "TEXT"),
        ("os_abi", "TEXT"),
        ("phnum", "INTEGER"),
        ("shnum", "INTEGER"),
    ),
    "elf_sections": (
        ("path", "TEXT"),
        ("index", "INTEGER"),
        ("name", "TEXT"),
        ("sh_type", "TEXT"),
        ("flags", "TEXT"),
        ("address", "INTEGER"),
        ("offset", "INTEGER"),
        ("size", "INTEGER"),
        ("link", "INTEGER"),
        ("info", "INTEGER"),
        ("content", "BLOB"),
    ),
    "elf_segments": (
        ("path", "TEXT"),
        ("index", "INTEGER"),
        ("p_type", "TEXT"),
        ("flags", "TEXT"),
        ("offset", "INTEGER"),
        ("vaddr", "INTEGER"),
        ("filesz", "INTEGER"),
        ("memsz", "INTEGER"),
        ("align", "INTEGER"),
    ),
    "elf_symbols": (
        ("path", "TEXT"),
        ("table", "TEXT"),
        ("index", "INTEGER"),
        ("name", "TEXT"),
        ("demangle_name", "TEXT"),
        ("section", "TEXT"),
        ("type", "TEXT"),
        ("binding", "TEXT"),
        ("visibility", "TEXT"),
        ("value", "INTEGER"),
        ("size", "INTEGER"),
        ("version", "TEXT"),
        ("exported", "INTEGER"),
        ("imported", "INTEGER"),
    ),
    "elf_strings": (
        ("path", "TEXT"),
        ("section", "TEXT"),
        ("offset", "INTEGER"),
        ("value", "TEXT"),
    ),
    "elf_dynamic_entries": (
        ("path", "TEXT"),
        ("ordinal", "INTEGER"),
        ("tag", "TEXT"),
        ("value", "INTEGER"),
    ),
    "elf_instructions": (
        ("path", "TEXT"),
        ("section", "TEXT"),
        ("address", "INTEGER"),
        ("size", "INTEGER"),
        ("mnemonic", "TEXT"),
        ("operands", "TEXT"),
    ),
}

TABLE_NAMES = tuple(SCHEMA)

_I64_MAX = 2**63


def _db_int(value: int) -> int:
    # SQLite integers are signed 64-bit; preserve the bit pattern of
    # full-range unsigned addresses rather than refusing to store them.
    return value - 2**64 if value >= _I64_MAX else value


def _unsigned(value: int) -> int:
    return value + 2**64 if value < 0 else value


def header_tuples(obj: ElfObject) -> Iterator[tuple]:
    r = header_row(obj)
    yield (
        r.path, r.file_type, r.machine, r.version, _db_int(r.entry_point),
        r.elf_class, r.data_encoding, r.os_abi, r.phnum, r.shnum,
    )


def section_tuples(obj: ElfObject) -> Iterator[tuple]:
    for r in section_rows(obj):
        yield (
            r.path, r.index, r.name, r.sh_type, r.flags, _db_int(r.address),
            r.offset, _db_int(r.size), r.link, r.info, r.content,
        )


def segment_tuples(obj: ElfObject) -> Iterator[tuple]:
    for r in segment_rows(obj):
        yield (
            r.path, r.index, r.p_type, r.flags, r.offset, _db_int(r.vaddr),
            r.filesz, _db_int(r.memsz), _db_int(r.align),
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
    for r in string_rows(obj):
        yield (r.path, r.section, r.offset, r.value)


def dynamic_entry_tuples(obj: ElfObject) -> Iterator[tuple]:
    for r in dynamic_entry_rows(obj):
        yield (r.path, r.ordinal, r.tag, _db_int(r.value))


def instruction_tuples(obj: ElfObject) -> Iterator[tuple]:
    for r in instruction_rows(obj):
        yield (r.path, r.section, _db_int(r.address), r.size, r.mnemonic, r.operands)


TABLE_PRODUCERS = {
    "elf_headers": header_tuples,
    "elf_sections": section_tuples,
    "elf_segments": segment_tuples,
    "elf_symbols": symbol_tuples,
    "elf_strings": string_tuples,
    "elf_dynamic_entries": dynamic_entry_tuples,
    "elf_instructions": instruction_tuples,
}
