"""Parser turning raw ELF bytes into an immutable in-memory object model.

Supports ELF32 and ELF64 in either byte order.  Parsing is strict: a
truncated table, an out-of-range offset, or a string offset past its
table's end fails the whole file rather than producing partial results.
The model is purely structural; relational concerns live in `model`.

Every NUL of a string table is found here, in place, by `_NUL`: `string_at`
reads one name, so a parse copies no string table, and `string_entries`
splits a table for `elf_strings`, a bounded piece at a time.

Records are read by two walks: `_table` reads a header table of fixed-size
entries (section and program headers) after checking its entry size and
bounds, and `_chain` follows a version section's records, each of which
gives the offset of the next in its last field.  .dynamic's loop stops at
DT_NULL, where `_table` would unpack a PT_DYNAMIC that spans the file.
"""

from __future__ import annotations

import array
import errno
import functools
import mmap
import os
import re
import stat
import struct
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from itertools import accumulate, chain
from operator import add
from typing import NamedTuple, Optional


class ElfError(Exception):
    """Base class for parse failures."""


class NotElf(ElfError):
    """The input does not start with the ELF magic bytes."""


class Malformed(ElfError):
    """The input claims to be ELF but violates the format; carries a reason."""


class FileChanged(ElfError):
    """A file read again is gone, or is no longer the file first read: its
    `FileIdentity` differs."""


ELF_MAGIC = b"\x7fELF"

# e_ident indices
EI_CLASS, EI_DATA, EI_VERSION, EI_OSABI, EI_ABIVERSION = 4, 5, 6, 7, 8

# Section header types
SHT_NULL = 0
SHT_PROGBITS = 1
SHT_SYMTAB = 2
SHT_STRTAB = 3
SHT_DYNAMIC = 6
SHT_NOBITS = 8
SHT_DYNSYM = 11
SHT_SYMTAB_SHNDX = 18
SHT_GNU_VERDEF = 0x6FFFFFFD
SHT_GNU_VERNEED = 0x6FFFFFFE
SHT_GNU_VERSYM = 0x6FFFFFFF

# Reserved section indices
SHN_UNDEF = 0
SHN_LORESERVE = 0xFF00  # also SHN_LOPROC
SHN_LOOS = 0xFF20
SHN_HIOS = 0xFF3F
SHN_ABS = 0xFFF1
SHN_COMMON = 0xFFF2
SHN_XINDEX = 0xFFFF

# Section flag bits, rendered readelf-style as single letters.
SECTION_FLAG_LETTERS = (
    (0x1, "W"),          # WRITE
    (0x2, "A"),          # ALLOC
    (0x4, "X"),          # EXECINSTR
    (0x10, "M"),         # MERGE
    (0x20, "S"),         # STRINGS
    (0x40, "I"),         # INFO_LINK
    (0x80, "L"),         # LINK_ORDER
    (0x100, "O"),        # OS_NONCONFORMING
    (0x200, "G"),        # GROUP
    (0x400, "T"),        # TLS
    (0x800, "C"),        # COMPRESSED
    (0x80000000, "E"),   # EXCLUDE
)

SHF_WRITE = 0x1
SHF_ALLOC = 0x2
SHF_EXECINSTR = 0x4

# Program header types
PT_LOAD = 1
PT_DYNAMIC = 2

# Program header flag bits, rendered as letters in R, W, X order.
PF_X, PF_W, PF_R = 0x1, 0x2, 0x4
SEGMENT_FLAG_LETTERS = ((PF_R, "R"), (PF_W, "W"), (PF_X, "X"))

# Dynamic tags
DT_NULL = 0
DT_NEEDED = 1
DT_STRTAB = 5
DT_STRSZ = 10
DT_SONAME = 14
DT_RPATH = 15
DT_RUNPATH = 29
# The tags whose value is an offset into .dynamic's string table.
STRING_TAGS = frozenset((DT_NEEDED, DT_SONAME, DT_RPATH, DT_RUNPATH))

FILE_TYPE_NAMES = {1: "REL", 2: "EXEC", 3: "DYN", 4: "CORE"}

MACHINE_NAMES = {
    0: "NONE",
    2: "SPARC",
    3: "386",
    8: "MIPS",
    20: "PPC",
    21: "PPC64",
    22: "S390",
    40: "ARM",
    50: "IA_64",
    62: "X86_64",
    183: "AARCH64",
    243: "RISCV",
    247: "BPF",
    258: "LOONGARCH",
}

EM_X86_64 = 62

OSABI_NAMES = {
    0: "SYSV",
    1: "HPUX",
    2: "NETBSD",
    3: "GNU",
    6: "SOLARIS",
    8: "IRIX",
    9: "FREEBSD",
    10: "TRU64",
    12: "OPENBSD",
    97: "ARM",
    255: "STANDALONE",
}

SECTION_TYPE_NAMES = {
    0: "NULL",
    1: "PROGBITS",
    2: "SYMTAB",
    3: "STRTAB",
    4: "RELA",
    5: "HASH",
    6: "DYNAMIC",
    7: "NOTE",
    8: "NOBITS",
    9: "REL",
    10: "SHLIB",
    11: "DYNSYM",
    14: "INIT_ARRAY",
    15: "FINI_ARRAY",
    16: "PREINIT_ARRAY",
    17: "GROUP",
    18: "SYMTAB_SHNDX",
    19: "RELR",
    0x6FFFFFF5: "GNU_ATTRIBUTES",
    0x6FFFFFF6: "GNU_HASH",
    0x6FFFFFF7: "GNU_LIBLIST",
    0x6FFFFFFD: "GNU_VERDEF",
    0x6FFFFFFE: "GNU_VERNEED",
    0x6FFFFFFF: "GNU_VERSYM",
}

# Processor-specific section types (0x70000000-0x7FFFFFFF) that readelf
# names, by e_machine.  Such a code of any other machine renders in decimal.
PROCESSOR_SECTION_TYPE_NAMES = {EM_X86_64: {0x70000001: "X86_64_UNWIND"}}
# Likewise the processor-specific section indices (0xFF00-0xFF1F) that readelf names.
PROCESSOR_SECTION_INDEX_NAMES = {EM_X86_64: {0xFF02: "LARGE_COM"}}

SEGMENT_TYPE_NAMES = {
    0: "NULL",
    1: "LOAD",
    2: "DYNAMIC",
    3: "INTERP",
    4: "NOTE",
    5: "SHLIB",
    6: "PHDR",
    7: "TLS",
    0x6474E550: "GNU_EH_FRAME",
    0x6474E551: "GNU_STACK",
    0x6474E552: "GNU_RELRO",
    0x6474E553: "GNU_PROPERTY",
    0x6474E554: "GNU_SFRAME",
}

SYMBOL_TYPE_NAMES = {
    0: "NOTYPE",
    1: "OBJECT",
    2: "FUNC",
    3: "SECTION",
    4: "FILE",
    6: "TLS",
    10: "GNU_IFUNC",
}

SYMBOL_BINDING_NAMES = {0: "LOCAL", 1: "GLOBAL", 2: "WEAK", 10: "GNU_UNIQUE"}

SYMBOL_VISIBILITY_NAMES = {0: "DEFAULT", 1: "INTERNAL", 2: "HIDDEN", 3: "PROTECTED"}

DYNAMIC_TAG_NAMES = {
    0: "NULL",
    1: "NEEDED",
    2: "PLTRELSZ",
    3: "PLTGOT",
    4: "HASH",
    5: "STRTAB",
    6: "SYMTAB",
    7: "RELA",
    8: "RELASZ",
    9: "RELAENT",
    10: "STRSZ",
    11: "SYMENT",
    12: "INIT",
    13: "FINI",
    14: "SONAME",
    15: "RPATH",
    16: "SYMBOLIC",
    17: "REL",
    18: "RELSZ",
    19: "RELENT",
    20: "PLTREL",
    21: "DEBUG",
    22: "TEXTREL",
    23: "JMPREL",
    24: "BIND_NOW",
    25: "INIT_ARRAY",
    26: "FINI_ARRAY",
    27: "INIT_ARRAYSZ",
    28: "FINI_ARRAYSZ",
    29: "RUNPATH",
    30: "FLAGS",
    32: "PREINIT_ARRAY",
    33: "PREINIT_ARRAYSZ",
    34: "SYMTAB_SHNDX",
    35: "RELRSZ",
    36: "RELR",
    37: "RELRENT",
    0x6FFFFDF5: "GNU_PRELINKED",
    0x6FFFFDF6: "GNU_CONFLICTSZ",
    0x6FFFFDF7: "GNU_LIBLISTSZ",
    0x6FFFFEF5: "GNU_HASH",
    0x6FFFFEF6: "TLSDESC_PLT",
    0x6FFFFEF7: "TLSDESC_GOT",
    0x6FFFFFF0: "VERSYM",
    0x6FFFFFF9: "RELACOUNT",
    0x6FFFFFFA: "RELCOUNT",
    0x6FFFFFFB: "FLAGS_1",
    0x6FFFFFFC: "VERDEF",
    0x6FFFFFFD: "VERDEFNUM",
    0x6FFFFFFE: "VERNEED",
    0x6FFFFFFF: "VERNEEDNUM",
}


def render_code(code: int, names: dict[int, str]) -> str:
    """Canonical text for an enum code: the known name, else decimal."""
    return names.get(code, str(code))


def section_type_name(type_code: int, machine_code: int) -> str:
    """The name of a section type in a file for `machine_code`, else decimal."""
    name = PROCESSOR_SECTION_TYPE_NAMES.get(machine_code, {}).get(type_code)
    return name or render_code(type_code, SECTION_TYPE_NAMES)


def render_flags(flags: int, letters: tuple[tuple[int, str], ...]) -> str:
    """The letter of each bit of `letters` set in `flags`, in table order."""
    return "".join(letter for bit, letter in letters if flags & bit)


def decode_bytes(raw: bytes | memoryview) -> str:
    # Lossless-enough rendering: UTF-8 with escapes for stray bytes, so the
    # result is always a bindable str containing no NUL surprises.
    return str(raw, "utf-8", "backslashreplace")


class ElfClass(Enum):
    ELF32 = 1
    ELF64 = 2


class DataEncoding(Enum):
    LSB = 1
    MSB = 2


class SymbolTableKind(Enum):
    """Which symbol table a symbol came from."""

    SYMTAB = ".symtab"
    DYNSYM = ".dynsym"


class Frozen:
    """Base of the read-only records that are not tuples: those whose `len`
    or iteration means something else.  The other records are NamedTuples.

    A subclass names its value fields in `_fields` and stores them once, in
    `__init__`, with `_assign`; assigning or deleting an attribute later
    raises AttributeError.  Records of one type are equal, and hash alike,
    when their `_fields` are equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *_value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class ElfIdent(NamedTuple):
    elf_class: ElfClass
    data_encoding: DataEncoding
    ei_version: int
    os_abi: int
    abi_version: int


class ElfHeader(NamedTuple):
    ident: ElfIdent
    file_type_code: int
    machine_code: int
    version: int
    entry_point: int
    phoff: int
    shoff: int
    flags: int
    ehsize: int
    phentsize: int
    phnum: int
    shentsize: int
    shnum: int
    shstrndx: int

    @property
    def file_type(self) -> str:
        return render_code(self.file_type_code, FILE_TYPE_NAMES)

    @property
    def machine(self) -> str:
        return render_code(self.machine_code, MACHINE_NAMES)


class Section(NamedTuple):
    index: int
    name: str
    type_code: int
    flags: int
    address: int
    offset: int
    size: int
    link: int
    info: int
    addralign: int
    entsize: int
    # A zero-copy slice of the file's bytes; empty for NULL and NOBITS.
    view: memoryview

    @property
    def content(self) -> bytes:
        """A bytes copy of the section's file contents."""
        return bytes(self.view)

    @property
    def flag_letters(self) -> str:
        return render_flags(self.flags, SECTION_FLAG_LETTERS)


class Segment(NamedTuple):
    index: int
    type_code: int
    flags: int
    offset: int
    vaddr: int
    paddr: int
    filesz: int
    memsz: int
    align: int

    @property
    def type_name(self) -> str:
        return render_code(self.type_code, SEGMENT_TYPE_NAMES)

    @property
    def flag_letters(self) -> str:
        return render_flags(self.flags, SEGMENT_FLAG_LETTERS)


class SymbolTable(Frozen):
    """One .dynsym or .symtab section, checked at parse and read from the
    file's bytes whenever its columns are read.

    `view` holds the symbol records and `strtab` the linked string table,
    both views of the file, and `layout` is the file's `_Layouts`.  For a
    versioned .dynsym, `versym` holds the versym words of its leading
    records (one per record, fewer if the versym section is shorter) and
    `version_of` maps each of those words to its (version, default) pair;
    otherwise both are empty.  For a table with an SHN_XINDEX record and an
    SHT_SYMTAB_SHNDX section linked to it, `extended` holds that section's
    word for each record; otherwise it is empty.

    `len` is the symbol count.  `fields` and `name_reader` derive a range of
    records; `names` derives every record's name.
    """

    _fields = __slots__ = ("kind", "view", "strtab", "layout", "versym", "version_of", "extended")

    def __init__(
        self,
        kind: SymbolTableKind,
        view: memoryview,
        strtab: memoryview,
        layout: _Layouts,
        versym: memoryview,
        version_of: dict[int, tuple[Optional[str], bool]],
        extended: memoryview,
    ):
        self._assign(kind, view, strtab, layout, versym, version_of, extended)

    def __len__(self) -> int:
        return len(self.view) // self.layout.sym_size

    def fields(self, start: int, stop: int) -> list[list[int]]:
        """The st_name, st_info, st_other, st_shndx, st_value and st_size of
        records [start, stop), one list per field, then the versym word of
        each of those records that has one, then their `extended` words."""
        lay = self.layout
        size = lay.sym_size
        records = self.view[start * size : stop * size]
        columns = _field_columns(records, lay, size, lay.sym_columns)
        columns += _field_columns(self.versym[start * 2 : stop * 2], lay, 2, ((0, 2),))
        columns += _field_columns(self.extended[start * 4 : stop * 4], lay, 4, ((0, 4),))
        return [column.tolist() for column in columns]

    def name_reader(self) -> Callable[[Iterable[int]], list[str]]:
        """A function from st_name offsets, as the parse checked them, to
        the names at them.  An ASCII string table is decoded once, when the
        function is made; any other is read in place, name by name."""
        try:
            text = str(self.strtab, "ascii")
        except UnicodeDecodeError:
            return lambda offsets: [string_at(self.strtab, o, "symbol name") for o in offsets]
        # One decode for the whole table; its byte offsets are then text
        # offsets, and every name is a slice of the text.
        find = text.index
        return lambda offsets: [text[o : find("\0", o)] for o in offsets]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.name_reader()(self.fields(0, len(self))[0]))


class DynamicEntry(NamedTuple):
    ordinal: int
    tag_code: int
    value: int
    # The string at `value` in .dynamic's string table (DT_STRTAB) for the
    # tags in STRING_TAGS; None for every other tag.
    string: Optional[str] = None

    @property
    def tag_name(self) -> str:
        return render_code(self.tag_code, DYNAMIC_TAG_NAMES)


class ElfObject(NamedTuple):
    """One parsed ELF file.  Immutable; safe to share across threads.

    The header, sections, segments and .dynamic are decoded at parse.  The
    symbol tables are checked then, and their columns are read from the
    file's bytes on each access, so the object keeps the file alive (its
    bytes, or its map) but no per-symbol values.
    """

    path: str
    header: ElfHeader
    sections: tuple[Section, ...]
    segments: tuple[Segment, ...]
    # .dynsym tables first, then .symtab tables, each in section order.
    symbol_tables: tuple[SymbolTable, ...]
    dynamic: tuple[DynamicEntry, ...]

    @property
    def symbols(self) -> tuple[str, ...]:
        """Every symbol name, table by table in `symbol_tables` order."""
        return tuple(chain.from_iterable(t.names for t in self.symbol_tables))

    def section_named(self, name: str) -> Optional[Section]:
        for s in self.sections:
            if s.name == name:
                return s
        return None


_NUL = re.compile(b"\0")


def _string_end(table: bytes | memoryview, offset: int, what: str) -> int:
    """The end of the string at `offset` of `table`; Malformed if out of bounds."""
    if offset >= len(table):
        raise Malformed(f"{what} string offset {offset} past table end ({len(table)})")
    end = _NUL.search(table, offset)
    if end is None:
        raise Malformed(f"{what} string at offset {offset} is not NUL-terminated")
    return end.start()


def string_at(table: bytes | memoryview, offset: int, what: str) -> str:
    """The NUL-terminated string at `offset` of `table`, bytes or a view of
    the file, found in place; Malformed if out of bounds."""
    return decode_bytes(table[offset : _string_end(table, offset, what)])


_STRING_PIECE = 1 << 15


def _string_columns(content: bytes, start: int = 0) -> tuple[list[int], list[str]]:
    """The offsets and the values of the NUL-terminated entries of a string
    table piece at offset `start`; the bytes after its last NUL are not an
    entry."""
    text = content.isascii()
    # An ASCII table is decoded once; its entries' lengths are byte lengths.
    pieces = content.decode("ascii").split("\0") if text else content.split(b"\x00")
    pieces.pop()  # the bytes after the last NUL
    # Entry i starts after the i entries and i NULs before it.
    offsets = [*map(add, accumulate(map(len, pieces), initial=start), range(len(pieces)))]
    return offsets, pieces if text else [*map(decode_bytes, pieces)]


def string_entries(table: memoryview) -> Iterator[tuple[list[int], list[str]]]:
    """The `_string_columns` of a string table, one piece copied at a time:
    each piece ends at the first NUL at least `_STRING_PIECE` bytes in, or at
    the table's end, so an entry is never split."""
    start = 0
    while start < len(table):
        nul = _NUL.search(table, start + _STRING_PIECE - 1)
        end = nul.end() if nul else len(table)
        yield _string_columns(bytes(table[start:end]), start)
        start = end


class _Layouts:
    """struct.Struct instances for one class/endianness combination."""

    def __init__(self, elf_class: ElfClass, encoding: DataEncoding):
        # `ehdr`, `shdr` and `phdr` unpack into the field order of ElfHeader,
        # Section and Segment (after their leading ident or index), except
        # that ELF32 keeps p_flags at `phdr_flags_at` rather than second.
        bo = "<" if encoding == DataEncoding.LSB else ">"
        if elf_class == ElfClass.ELF64:
            self.ehdr = struct.Struct(bo + "HHIQQQIHHHHHH")
            self.shdr = struct.Struct(bo + "IIQQQQIIQQ")
            self.phdr = struct.Struct(bo + "IIQQQQQQ")
            self.sym_size = 24
            self.dyn = struct.Struct(bo + "QQ")
            self.phdr_flags_at = 1
            # (offset, width) of st_name, st_info, st_other, st_shndx,
            # st_value and st_size within a symbol record.
            self.sym_columns = ((0, 4), (4, 1), (5, 1), (6, 2), (8, 8), (16, 8))
        else:
            self.ehdr = struct.Struct(bo + "HHIIIIIHHHHHH")
            self.shdr = struct.Struct(bo + "IIIIIIIIII")
            self.phdr = struct.Struct(bo + "IIIIIIII")
            self.sym_size = 16
            self.dyn = struct.Struct(bo + "II")
            self.phdr_flags_at = 6
            self.sym_columns = ((0, 4), (12, 1), (13, 1), (14, 2), (4, 4), (8, 4))
        # The file's byte order is not this machine's.
        self.swap = (encoding == DataEncoding.LSB) != (sys.byteorder == "little")
        self.verneed = struct.Struct(bo + "HHIII")
        self.vernaux = struct.Struct(bo + "IHHII")
        self.verdef = struct.Struct(bo + "HHHHIII")
        self.verdaux = struct.Struct(bo + "II")


_layouts = functools.cache(_Layouts)


def _parse_ident(data: memoryview) -> ElfIdent:
    if len(data) < 4 or data[:4] != ELF_MAGIC:
        raise NotElf("missing ELF magic")
    if len(data) < 16:
        raise Malformed("truncated header")
    try:
        elf_class = ElfClass(data[EI_CLASS])
        encoding = DataEncoding(data[EI_DATA])
    except ValueError:
        raise Malformed(
            f"unsupported class/encoding bytes {data[EI_CLASS]}/{data[EI_DATA]}"
        ) from None
    return ElfIdent(elf_class, encoding, data[EI_VERSION], data[EI_OSABI], data[EI_ABIVERSION])


def _parse_header(data: memoryview, ident: ElfIdent, lay: _Layouts) -> ElfHeader:
    if len(data) < 16 + lay.ehdr.size:
        raise Malformed("truncated header")
    return ElfHeader(ident, *lay.ehdr.unpack_from(data, 16))


def _table(
    data: memoryview, offset: int, count: int, entsize: int, record: struct.Struct, what: str
) -> list[tuple]:
    """The `count` records of `record` at `offset`, `entsize` bytes apart."""
    if entsize < record.size:
        raise Malformed(f"{what} entry size {entsize} too small")
    if offset + count * entsize > len(data):
        raise Malformed(f"{what} table out of bounds")
    return [record.unpack_from(data, offset + i * entsize) for i in range(count)]


def _chain(
    buf: memoryview, offset: int, count: int, record: struct.Struct, what: str
) -> Iterator[tuple[int, tuple]]:
    """(offset, fields) of at most `count` records of `record` in `buf`: the
    first at `offset`, each next one its last field's bytes after it, and
    none after a record whose last field is 0."""
    for _ in range(count):
        if offset + record.size > len(buf):
            raise Malformed(f"{what} entry out of bounds")
        fields = record.unpack_from(buf, offset)
        yield offset, fields
        if fields[-1] == 0:
            return
        offset += fields[-1]


def _parse_sections(data: memoryview, hdr: ElfHeader, lay: _Layouts) -> tuple[list, int, int]:
    """Raw section records plus the effective shnum/shstrndx.

    Handles extended numbering: e_shnum == 0 stores the real count in
    section 0's sh_size, and e_shstrndx == SHN_XINDEX stores the real string
    table index in section 0's sh_link.
    """
    if hdr.shoff == 0:
        return [], 0, 0
    (first,) = _table(data, hdr.shoff, 1, hdr.shentsize, lay.shdr, "section header")
    shnum = hdr.shnum if hdr.shnum != 0 else first[5]  # sh_size of section 0
    shstrndx = hdr.shstrndx if hdr.shstrndx != SHN_XINDEX else first[6]  # sh_link
    raw = _table(data, hdr.shoff, shnum, hdr.shentsize, lay.shdr, "section header")
    return raw, shnum, shstrndx


def _section_view(data: memoryview, type_code: int, offset: int, size: int, index: int) -> memoryview:
    if type_code in (SHT_NULL, SHT_NOBITS):
        return data[:0]
    if offset + size > len(data):
        raise Malformed(f"section {index} content [{offset}, {offset + size}) out of bounds")
    return data[offset : offset + size]


def _parse_segments(data: memoryview, hdr: ElfHeader, lay: _Layouts) -> list[Segment]:
    if hdr.phoff == 0 or hdr.phnum == 0:
        return []
    records = _table(data, hdr.phoff, hdr.phnum, hdr.phentsize, lay.phdr, "program header")
    segments = []
    for i, rec in enumerate(map(list, records)):
        rec.insert(1, rec.pop(lay.phdr_flags_at))  # p_flags second, as in ELF64
        seg = Segment(i, *rec)
        if seg.filesz > seg.memsz:
            raise Malformed(f"segment {i} filesz {seg.filesz} exceeds memsz {seg.memsz}")
        if seg.offset + seg.filesz > len(data):
            raise Malformed(f"segment {i} file range out of bounds")
        segments.append(seg)
    return segments


# The native memoryview/array format of an unsigned field of each width.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _field_columns(
    view: memoryview, lay: _Layouts, entsize: int, fields: Sequence[tuple[int, int]]
) -> list[Sequence[int]]:
    """For each (offset, width) of `fields`, that unsigned field of every
    `entsize`-byte record in `view`, in record order, as a memoryview or an
    array (each has `tolist`).

    `len(view)` is a multiple of `entsize`, and each field is aligned to its
    width within the record, so a column is one strided slice of `view`
    read as words of that width: a cast in the machine's byte order, else
    one byteswapped copy per width.
    """
    words_of: dict[int, Sequence[int]] = {}
    columns = []
    for offset, width in fields:
        words = words_of.get(width)
        if words is None:
            if lay.swap and width > 1:
                words = array.array(_FORMATS[width])
                words.frombytes(view)
                words.byteswap()
            else:
                words = view.cast(_FORMATS[width])
            words_of[width] = words
        columns.append(words[offset // width :: entsize // width])
    return columns


def _parse_verneed(section: Section, strtab: memoryview, count: int, lay: _Layouts) -> dict[int, str]:
    """Map version index -> version name from a GNU verneed section; a later
    record of an index replaces an earlier one.  The walk reads at most as
    many vernaux records as the section holds, so verneed records that all
    point at one vernaux chain cannot make it quadratic in the section."""
    buf = section.view
    auxes = chain.from_iterable(
        _chain(buf, at + vn_aux, vn_cnt, lay.vernaux, "vernaux")
        for at, (_, vn_cnt, _, vn_aux, _) in _chain(buf, 0, count, lay.verneed, "verneed")
    )
    cap = len(buf) // lay.vernaux.size
    names = {}
    for read, (_, (_, _, vna_other, vna_name, _)) in enumerate(auxes):
        if read == cap:
            raise Malformed(f"verneed reads more than the {cap} vernaux records its section holds")
        names[vna_other & 0x7FFF] = string_at(strtab, vna_name, "version")
    return names


def _parse_verdef(section: Section, strtab: memoryview, count: int, lay: _Layouts) -> dict[int, str]:
    """Map version index -> version name from a GNU verdef section: the name
    of each definition's first verdaux (the others name its parents)."""
    buf = section.view
    return {
        vd_ndx & 0x7FFF: string_at(strtab, vda_name, "version")
        for at, (_, _, vd_ndx, vd_cnt, _, vd_aux, _) in _chain(buf, 0, count, lay.verdef, "verdef")
        for _, (vda_name, _) in _chain(buf, at + vd_aux, min(vd_cnt, 1), lay.verdaux, "verdaux")
    }


def _version_of_word(
    word: int, verneed: dict[int, str], verdef: dict[int, str]
) -> tuple[Optional[str], bool]:
    """(version, default) for one versym word, per the GNU versioning rules.

    Index 0/1 (LOCAL/GLOBAL) carry no version.  Defined versions honor the
    hidden bit: clear means the default definition.  Needed versions are
    never the default.
    """
    idx = word & 0x7FFF
    if idx <= 1:
        return None, False
    if idx in verdef:
        return verdef[idx], not word & 0x8000
    if idx in verneed:
        return verneed[idx], False
    raise Malformed(f"version index {idx} not defined by verneed/verdef")


def _linked_view(sections: Sequence[Section], link: int, what: str) -> memoryview:
    """The contents of section `link`, the string table of `what`."""
    if link >= len(sections):
        raise Malformed(f"{what} string table link {link} out of range")
    return sections[link].view


def _extended_indices(sec: Section, sections: Sequence[Section], count: int) -> memoryview:
    """The words of the first SHT_SYMTAB_SHNDX section linked to symbol table
    `sec`, one for each of its `count` records, as readelf reads them; an
    empty view when no such section exists."""
    linked = next(
        (s for s in sections if s.type_code == SHT_SYMTAB_SHNDX and s.link == sec.index), None
    )
    if linked is None:
        return sec.view[:0]
    if len(linked.view) < 4 * count:
        raise Malformed(
            f"{linked.name!r} holds {len(linked.view) // 4} section indices"
            f" for the {count} symbols of {sec.name!r}"
        )
    return linked.view[: 4 * count]


def _parse_symbol_table(
    sec: Section,
    kind: SymbolTableKind,
    sections: list[Section],
    lay: _Layouts,
    shnum: int,
    versym: memoryview,
    verneed: dict[int, str],
    verdef: dict[int, str],
) -> SymbolTable:
    """The SymbolTable of `sec`, after the checks that deriving its columns
    would make, in the same order and with the same messages; no column is
    built unless a check fails and its message needs one."""
    entsize = lay.sym_size
    if sec.entsize != 0 and sec.entsize != entsize:
        raise Malformed(f"symbol table {sec.name!r} entsize {sec.entsize} != {entsize}")
    if sec.size % entsize != 0:
        raise Malformed(f"symbol table {sec.name!r} size not a multiple of {entsize}")
    strtab = _linked_view(sections, sec.link, f"symbol table {sec.name!r}")
    name_offsets, shndxs = _field_columns(
        sec.view, lay, entsize, (lay.sym_columns[0], lay.sym_columns[3])
    )

    # Every name ends at a NUL exactly when the name at the largest offset
    # does.  Else the first offset past the table's last NUL is the first
    # bad name; the file is refused, so the table is copied to find it.
    if name_offsets and _NUL.search(strtab, max(name_offsets)) is None:
        last = bytes(strtab).rfind(b"\0")
        string_at(strtab, next(o for o in name_offsets if o > last), "symbol name")  # raises
    distinct = set(shndxs)
    dangling = {x for x in distinct if shnum <= x < SHN_LORESERVE}
    if dangling:
        i = next(i for i, x in enumerate(shndxs) if x in dangling)
        raise Malformed(
            f"symbol {i} in {sec.name!r} references section {shndxs[i]} of {shnum}"
        )
    extended = sec.view[:0]
    if SHN_XINDEX in distinct:
        # An SHN_XINDEX record's section index is its word in `extended`.
        extended = _extended_indices(sec, sections, len(shndxs))
        indices = _field_columns(extended, lay, 4, ((0, 4),))[0]
        i = next((i for i, x in enumerate(indices) if x >= shnum and shndxs[i] == SHN_XINDEX), None)
        if i is not None:
            raise Malformed(f"symbol {i} in {sec.name!r} references section {indices[i]} of {shnum}")
    # The whole halfwords of `.gnu.version`, one per record, version a .dynsym.
    count = len(sec.view) // entsize if kind == SymbolTableKind.DYNSYM else 0
    versym = versym[: min(len(versym) // 2, count) * 2]
    words = _field_columns(versym, lay, 2, ((0, 2),))[0]
    version_of = {w: _version_of_word(w, verneed, verdef) for w in set(words)}
    return SymbolTable(kind, sec.view, strtab, lay, versym, version_of, extended)


def _segment_strtab(data: memoryview, segments: list[Segment], records: list[tuple]) -> memoryview:
    """The string table of .dynamic `records` read through PT_DYNAMIC: a
    view of the DT_STRSZ bytes at the address DT_STRTAB gives, in the file
    at the offset of the first PT_LOAD segment whose file bytes hold them,
    as readelf finds it."""
    values = dict(reversed(records))  # the first entry of each tag
    address, size = values.get(DT_STRTAB), values.get(DT_STRSZ)
    if address is None or size is None:
        raise Malformed(".dynamic has strings but no DT_STRTAB and DT_STRSZ")
    end = address + size
    for seg in segments:
        if seg.type_code == PT_LOAD and seg.vaddr <= address and end <= seg.vaddr + seg.filesz:
            start = seg.offset + address - seg.vaddr
            return data[start : start + size]
    raise Malformed(f".dynamic string table [{address:#x}, {end:#x}) in no PT_LOAD segment")


def _parse_dynamic(data: memoryview, segments: list[Segment], lay: _Layouts) -> list[DynamicEntry]:
    """The entries of .dynamic up to DT_NULL, each string-valued one
    resolved in the string table that `_segment_strtab` finds.  .dynamic is
    the first PT_DYNAMIC segment, read as the loader reads it: no section
    header is consulted.  Entries at one offset share one string, and the
    distinct strings together hold at most the file's size in bytes."""
    seg = next((s for s in segments if s.type_code == PT_DYNAMIC), None)
    if seg is None:
        return []
    view = data[seg.offset : seg.offset + seg.filesz]
    entsize = lay.dyn.size
    records = []
    for i in range(len(view) // entsize):
        records.append(lay.dyn.unpack_from(view, i * entsize))
        if records[-1][0] == DT_NULL:
            break
    if any(d_tag in STRING_TAGS for d_tag, _ in records):
        table = _segment_strtab(data, segments, records)
    entries, strings, held = [], {}, 0
    for i, (d_tag, d_val) in enumerate(records):
        if d_tag in STRING_TAGS and d_val not in strings:
            end = _string_end(table, d_val, DYNAMIC_TAG_NAMES[d_tag])
            held += end - d_val
            if held > len(data):
                raise Malformed(f".dynamic strings hold more than the file's {len(data)} bytes")
            strings[d_val] = decode_bytes(table[d_val:end])
        entries.append(DynamicEntry(i, d_tag, d_val, strings[d_val] if d_tag in STRING_TAGS else None))
    return entries


def open_elf(data, origin_path: str) -> ElfObject:
    """Parse `data` (a whole ELF file) into an ElfObject keyed by `origin_path`.

    `data` is any read-only bytes-like object, such as bytes or a read-only
    mmap; sections keep zero-copy views of it.  Section, version and
    .dynamic names, and the checks of symbol names, read their strings in
    place there: the parse copies no string table.  .dynamic is read as the
    loader reads it, through PT_DYNAMIC, with its strings at DT_STRTAB and
    DT_STRSZ inside a PT_LOAD segment; no section header is consulted for
    it.  Raises NotElf when the magic is absent and Malformed for any
    structural violation; a single bad record fails the whole file.
    """
    data = memoryview(data)
    ident = _parse_ident(data)
    lay = _layouts(ident.elf_class, ident.data_encoding)
    hdr = _parse_header(data, ident, lay)

    raw_sections, shnum, shstrndx = _parse_sections(data, hdr, lay)
    if shnum and not shstrndx < shnum:
        raise Malformed(f"shstrndx {shstrndx} out of range ({shnum} sections)")

    # Contents first, then names via the section header string table.  With
    # e_shstrndx SHN_UNDEF the file has none, and readelf's name for every
    # section is "<no-strings>".
    views = [
        _section_view(data, rec[1], rec[4], rec[5], i) for i, rec in enumerate(raw_sections)
    ]
    shstrtab = views[shstrndx] if views and shstrndx != SHN_UNDEF else None
    sections = [
        Section(i, string_at(shstrtab, rec[0], f"section {i} name"), *rec[1:], view)
        if shstrtab is not None
        else Section(i, "<no-strings>", *rec[1:], view)
        for i, (rec, view) in enumerate(zip(raw_sections, views))
    ]

    segments = _parse_segments(data, hdr, lay)
    dynamic = _parse_dynamic(data, segments, lay)

    versym = data[:0]
    verneed: dict[int, str] = {}
    verdef: dict[int, str] = {}
    for sec in sections:
        if sec.type_code == SHT_GNU_VERSYM:
            versym = sec.view
        elif sec.type_code == SHT_GNU_VERNEED:
            verneed = _parse_verneed(sec, _linked_view(sections, sec.link, "verneed"), sec.info, lay)
        elif sec.type_code == SHT_GNU_VERDEF:
            verdef = _parse_verdef(sec, _linked_view(sections, sec.link, "verdef"), sec.info, lay)

    symbol_tables = tuple(
        _parse_symbol_table(sec, kind, sections, lay, shnum, versym, verneed, verdef)
        for kind, type_code in ((SymbolTableKind.DYNSYM, SHT_DYNSYM), (SymbolTableKind.SYMTAB, SHT_SYMTAB))
        for sec in sections
        if sec.type_code == type_code
    )

    return ElfObject(
        origin_path, hdr, tuple(sections), tuple(segments), symbol_tables, tuple(dynamic)
    )


# Regular files at least this large are mapped rather than read.  A map
# loads only the pages that a parse or a fill reads, a small part of a large
# file.  A smaller file is read whole: its bytes live only as long as its
# parse or fill, and a file that was read cannot end the process with
# SIGBUS when it is truncated, as a mapped one can.  Most files are small
# (369 of the 415 in /usr/lib/x86_64-linux-gnu), and parsing those took
# about as long read as mapped.
MAP_THRESHOLD = 1 << 20


class FileIdentity(NamedTuple):
    """The `fstat` fields of an open file that change when the file is
    replaced (a rename over it), rewritten or touched."""

    dev: int
    ino: int
    size: int
    mtime_ns: int


def read_file(
    path: str, expect: Optional[FileIdentity] = None
) -> tuple[bytes | mmap.mmap, FileIdentity]:
    """The contents of the regular file at `path` as a read-only bytes-like
    object, and the identity `fstat` gives of the descriptor read; anything
    else raises OSError(EINVAL).

    With `expect`, the file must still be the one of that identity: when it
    cannot be opened or its identity differs, FileChanged naming `path` is
    raised and nothing is read.  The file is opened non-blocking, so a FIFO
    is refused rather than waited on.  A file of at least MAP_THRESHOLD
    bytes is mapped read-only, so its pages load only when something reads
    them; a smaller file, and any file mmap refuses, is read into bytes.
    The map is unmapped, and its descriptor closed, when the last object
    that refers to it (the parsed object, its sections' views) is dropped.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError as exc:
        if expect is None:
            raise
        raise FileChanged(f"{path} changed after it was first read: {exc.strerror}") from exc
    with open(fd, "rb") as fh:
        st = os.fstat(fh.fileno())
        identity = FileIdentity(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        if expect is not None and identity != expect:
            changed = [f for f, a, b in zip(FileIdentity._fields, identity, expect) if a != b]
            raise FileChanged(f"{path} changed after it was first read: new {', '.join(changed)}")
        if not stat.S_ISREG(st.st_mode):
            raise OSError(errno.EINVAL, "not a regular file", path)
        if st.st_size >= MAP_THRESHOLD:
            try:
                return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ), identity
            except (ValueError, OSError):
                pass
        return fh.read(), identity


def load_elf(path: str) -> ElfObject:
    """Read and parse the file at `path` (symlinks resolved)."""
    real = os.path.realpath(path)
    return open_elf(read_file(real)[0], real)


def needed_libraries(obj: ElfObject) -> list[str]:
    """DT_NEEDED strings in .dynamic order; empty for static objects.  `obj`
    may also be a `corpus.CatalogEntry`, which keeps these entries."""
    return [e.string for e in obj.dynamic if e.tag_code == DT_NEEDED]


def dynamic_string(obj: ElfObject, tag_code: int) -> Optional[str]:
    """The string of the first dynamic entry with `tag_code`, one of
    STRING_TAGS, if any."""
    return next((e.string for e in obj.dynamic if e.tag_code == tag_code), None)
