"""Synthesize minimal ELF files for tests and the benchmark's workloads.

The writer emits well-formed ET_DYN objects by direct byte emission, no
toolchain involved, so fixtures are hermetic and bit-for-bit deterministic
for a fixed spec.  It is deliberately minimal: enough structure for parsers
(`readelf` included) to enumerate sections, segments, symbols and dynamic
entries, not enough to actually load and run.

One core, `_write`, lays out a file whose symbol tables come as columns
(`_Table`).  `write_elf` turns its `SymbolSpec`s into those columns, and
`generate_elf` hands over its names and constant columns, so a fixture of
1e5 symbols builds no object per symbol.
"""

from __future__ import annotations

import array
import os
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import accumulate, chain, compress, groupby, repeat, takewhile
from operator import add
from string import Formatter
from typing import NamedTuple, Optional

from . import reader
from .reader import DataEncoding, ElfClass, Frozen

_BASE_VADDR = 0x10000

_SYM_TYPE_CODES = {name: code for code, name in reader.SYMBOL_TYPE_NAMES.items()}
_SYM_BINDING_CODES = {name: code for code, name in reader.SYMBOL_BINDING_NAMES.items()}
_SYM_VISIBILITY_CODES = {name: code for code, name in reader.SYMBOL_VISIBILITY_NAMES.items()}
_SPECIAL_SECTIONS = {"SHN_UNDEF": reader.SHN_UNDEF, "SHN_ABS": reader.SHN_ABS}
# A symbol's size when its spec gives none: 1 byte of code, 4 data bytes,
# 0 for SHN_UNDEF and SHN_ABS.
_DEFAULT_SIZES = {".text": 1, ".data": 4, ".bss": 4}

_SHF_WA = reader.SHF_WRITE | reader.SHF_ALLOC
# The output sections in file order: name, type, flags, alignment and the
# string table that sh_link names.  A file holds .data and .bss when a
# symbol lies there, .dynamic when it has dynamic symbols or entries, and
# .symtab/.strtab when it is given `symtab_symbols`.
_SECTIONS = (
    (".text", reader.SHT_PROGBITS, reader.SHF_ALLOC | reader.SHF_EXECINSTR, 16, None),
    (".data", reader.SHT_PROGBITS, _SHF_WA, 8, None),
    (".bss", reader.SHT_NOBITS, _SHF_WA, 8, None),
    (".dynsym", reader.SHT_DYNSYM, reader.SHF_ALLOC, 8, ".dynstr"),
    (".dynstr", reader.SHT_STRTAB, reader.SHF_ALLOC, 1, None),
    (".dynamic", reader.SHT_DYNAMIC, _SHF_WA, 8, ".dynstr"),
    (".symtab", reader.SHT_SYMTAB, 0, 8, ".strtab"),
    (".strtab", reader.SHT_STRTAB, 0, 1, None),
    (".shstrtab", reader.SHT_STRTAB, 0, 1, None),
)
_DT_SYMTAB, _DT_SYMENT = 6, 11


class SymbolSpec(NamedTuple):
    """One symbol to plant in a generated file.

    `section` is '.text', '.data', '.bss', 'SHN_UNDEF' or 'SHN_ABS'.  A size
    of None picks a sensible default for the section (1 byte of code, 4 data
    bytes, 0 for undefined).
    """

    name: str
    binding: str = "GLOBAL"
    sym_type: str = "FUNC"
    visibility: str = "DEFAULT"
    section: str = ".text"
    size: Optional[int] = None


class WrittenElf(NamedTuple):
    """What the writer actually put in the file, for oracle-style checks."""

    path: str
    names: tuple[str, ...]
    dynsym_names: tuple[str, ...]
    symtab_names: tuple[str, ...]
    dynstr_offsets: dict[str, int]


# A symbol table as columns in file order, LOCALs first and the null symbol
# aside: each symbol's name, st_info, st_other, section and size.
_Table = namedtuple("_Table", "names info other sections sizes")


def _columns(specs: Sequence[SymbolSpec]) -> _Table:
    """`specs` as a table's columns, LOCALs first as the gABI orders them."""
    specs = sorted(specs, key=lambda s: s.binding != "LOCAL")
    return _Table(
        tuple(s.name for s in specs),
        [_SYM_BINDING_CODES[s.binding] << 4 | _SYM_TYPE_CODES[s.sym_type] for s in specs],
        [_SYM_VISIBILITY_CODES[s.visibility] for s in specs],
        [s.section for s in specs],
        [_DEFAULT_SIZES.get(s.section, 0) if s.size is None else s.size for s in specs],
    )


def _string_table(names: Sequence[str], extra: Iterable[str] = ()) -> tuple:
    """An ELF string table of "", `names` (distinct, or ValueError) and then
    `extra`, each string once: its bytes, its strings' offsets and then its
    size, and the offset of each of `names`."""
    if len(set(names)) != len(names):
        raise ValueError("symbol names must be unique within one table")
    strings = dict.fromkeys(chain(("",), names, extra))
    text = "\0".join(strings) + "\0"
    # A string's length in UTF-8 is its length when the whole table is ASCII.
    lengths = map(len, strings) if text.isascii() else (len(s.encode()) for s in strings)
    offsets = array.array("Q", accumulate(map(add, lengths, repeat(1)), initial=0))
    named = offsets[1 : len(names) + ("" not in names)]
    if "" in names:  # the table's first string, so it reads offset 0
        named.insert(names.index(""), 0)
    return text.encode(), offsets, named


def _place(table: _Table, ends: dict[str, int]) -> array.array:
    """The offset of each of `table`'s symbols in its section: a defined
    symbol takes the next `size` bytes of its section, of which `ends` holds
    the bytes taken so far, and SHN_UNDEF and SHN_ABS symbols read 0."""
    # One running sum of sizes per section, read in the symbols' order.
    runs = dict.fromkeys(_SPECIAL_SECTIONS, repeat(0))
    for section in ends.keys() & set(table.sections):
        sizes = list(compress(table.sizes, map(section.__eq__, table.sections)))
        runs[section] = accumulate(sizes, initial=ends[section])
        ends[section] += sum(sizes)
    return array.array("Q", map(next, map(runs.__getitem__, table.sections)))


def _pack_symbols(lay: reader._Layouts, columns: Iterable[Iterable[int]]) -> bytearray:
    """Symbol records holding `columns`, one per field of `lay.sym_columns`
    with one entry per record: `reader._field_columns` in reverse.

    Each column is one strided slice of the records, cast to words of its
    field's width; in the other byte order the words are swapped first.
    """
    entsize = lay.sym_size
    records = bytearray()
    for column, (offset, width) in zip(columns, lay.sym_columns):
        words = array.array(reader._FORMATS[width], column)
        if lay.swap and width > 1:
            words.byteswap()
        records = records or bytearray(len(words) * entsize)
        memoryview(records).cast(words.typecode)[offset // width :: entsize // width] = words
    return records


def write_elf(
    dest: str,
    symbols: Sequence[SymbolSpec] = (),
    symtab_symbols: Optional[Sequence[SymbolSpec]] = None,
    needed: Sequence[str] = (),
    soname: Optional[str] = None,
    runpath: Optional[str] = None,
    rpath: Optional[str] = None,
    machine: int = reader.EM_X86_64,
    elf_class: ElfClass = ElfClass.ELF64,
    encoding: DataEncoding = DataEncoding.LSB,
    dynamic_suffix: Sequence[tuple[int, int]] = (),
) -> WrittenElf:
    """Emit a minimal ELF file and report what went into it.

    `symbols` land in .dynsym; `symtab_symbols`, when given (possibly empty),
    adds a .symtab/.strtab pair.  A .dynamic section appears whenever there
    are dynsym symbols or any dynamic-entry inputs.  `dynamic_suffix` entries
    are written after the DT_NULL terminator (for parser edge-case tests).
    """
    dynsym = _columns(symbols)
    symtab = None if symtab_symbols is None else _columns(symtab_symbols)
    optional = ((reader.DT_SONAME, soname), (reader.DT_RPATH, rpath), (reader.DT_RUNPATH, runpath))
    tagged = [(reader.DT_NEEDED, name) for name in needed] + [(t, s) for t, s in optional if s]
    dynstr, offsets, _ = _write(
        dest, dynsym, symtab, tagged, dynamic_suffix, machine, elf_class, encoding)
    symtab_names = symtab.names if symtab else ()
    return WrittenElf(os.path.realpath(dest), dynsym.names + symtab_names, dynsym.names,
                      symtab_names, dict(zip(dynstr[:-1].decode().split("\0"), offsets)))


def _write(dest: str, dynsym: _Table, symtab: Optional[_Table] = None,
           tagged: Sequence[tuple[int, str]] = (), dynamic_suffix: Sequence[tuple[int, int]] = (),
           machine: int = reader.EM_X86_64, elf_class: ElfClass = ElfClass.ELF64,
           encoding: DataEncoding = DataEncoding.LSB) -> tuple:
    """Write `write_elf`'s file from its symbol tables' columns and its
    string-valued dynamic entries, `tagged`; return .dynstr's `_string_table`."""
    lay = reader._layouts(elf_class, encoding)
    tables = {".dynsym": dynsym, ".symtab": symtab} if symtab else {".dynsym": dynsym}
    strtabs = {".dynstr": _string_table(dynsym.names, [t for _, t in tagged]),
               ".strtab": _string_table(symtab.names if symtab else ())}

    # Defined symbols lie end to end in their section, .dynsym's first.
    ends = {".text": 0, ".data": 0, ".bss": 0}
    starts = {name: _place(t, ends) for name, t in tables.items()}
    # Code is a `ret` and then `nop`s; a run of functions of one size repeats one piece.
    sizes = chain(*(compress(t.sizes, map(".text".__eq__, t.sections)) for t in tables.values()))
    text = b"".join((b"\xc3" + b"\x90" * (size - 1) if size else b"") * len(list(run))
                    for size, run in groupby(sizes))

    want_dynamic = bool(dynsym.names or tagged or dynamic_suffix)
    used = set().union(*(t.sections for t in tables.values()))
    kept = {".data": ".data" in used, ".bss": ".bss" in used, ".dynamic": want_dynamic,
            ".symtab": bool(symtab), ".strtab": bool(symtab)}
    table = [row for row in _SECTIONS if kept.get(row[0], True)]
    shstrtab, _, sh_names = _string_table([row[0] for row in table])
    index = {row[0]: i for i, row in enumerate(table, 1)}
    shndx_of = {**_SPECIAL_SECTIONS, **index}
    bodies = {".text": text, ".data": bytes(ends[".data"]), ".bss": b"", ".shstrtab": shstrtab,
              **{name: t[0] for name, t in strtabs.items()}}

    # One pass in file order after the ELF and program headers: each
    # section's offset and address, then its body, which may hold the
    # addresses of the sections before it, and its header.
    ehsize = 16 + lay.ehdr.size
    phnum = 2 if want_dynamic else 1
    blob = bytearray(ehsize + phnum * lay.phdr.size)
    addr: dict[str, int] = {}
    headers = []
    for (name, sh_type, flags, align, link), sh_name in zip(table, sh_names):
        blob += bytes(-len(blob) % align)
        offset = len(blob)
        addr[name] = _BASE_VADDR + offset if flags & reader.SHF_ALLOC else 0
        info = entsize = 0
        if name in tables:
            symbols = tables[name]
            body = _pack_symbols(lay, [chain((0,), column) for column in (
                strtabs[link][2], symbols.info, symbols.other,
                map(shndx_of.__getitem__, symbols.sections),
                map(add, map(addr.get, symbols.sections, repeat(0)), starts[name]),
                symbols.sizes,
            )])
            # One past the last LOCAL symbol, as LOCALs come first.
            info = 1 + sum(1 for _ in takewhile(lambda st_info: st_info >> 4 == 0, symbols.info))
            entsize = lay.sym_size
        elif name == ".dynamic":
            # A string lies once between two NULs, and "" alone at offset 0.
            dynstr = bodies[".dynstr"]
            entries = [(tag, dynstr.find(b"\0%b\0" % t.encode()) + 1) for tag, t in tagged] + [
                (reader.DT_STRTAB, addr[".dynstr"]), (_DT_SYMTAB, addr[".dynsym"]),
                (reader.DT_STRSZ, len(dynstr)), (_DT_SYMENT, lay.sym_size), (reader.DT_NULL, 0),
                *dynamic_suffix,
            ]
            body = b"".join(lay.dyn.pack(tag, value) for tag, value in entries)
            entsize = lay.dyn.size
            pt_dynamic = (2, reader.PF_R | reader.PF_W, offset, addr[name], len(body), len(body), 8)
        else:
            body = bodies[name]
        blob += body
        size = ends[".bss"] if name == ".bss" else len(body)
        headers.append((sh_name, sh_type, flags, addr[name], offset, size,
                        index.get(link, 0), info, align, entsize))

    blob += bytes(-len(blob) % 8)
    shoff = len(blob)
    blob += bytes(lay.shdr.size)  # the null section
    for header in headers:
        blob += lay.shdr.pack(*header)
    file_size = len(blob)

    blob[:16] = b"\x7fELF" + bytes([elf_class.value, encoding.value, 1]) + bytes(9)
    lay.ehdr.pack_into(
        blob, 16,
        3, machine, 1, 0,  # e_type (ET_DYN), e_machine, e_version, e_entry
        ehsize, shoff, 0,  # e_phoff, e_shoff, e_flags
        ehsize, lay.phdr.size, phnum, lay.shdr.size, len(headers) + 1, index[".shstrtab"],
    )
    # PT_LOAD over the whole file, plus PT_DYNAMIC when present.
    memsz = file_size + ends[".bss"]
    segments = [(1, reader.PF_R | reader.PF_X, 0, _BASE_VADDR, file_size, memsz, 0x1000)]
    if want_dynamic:
        segments.append(pt_dynamic)
    for i, (p_type, p_flags, p_offset, vaddr, filesz, memsz, p_align) in enumerate(segments):
        fields = [p_type, p_flags, p_offset, vaddr, vaddr, filesz, memsz, p_align]
        fields.insert(lay.phdr_flags_at, fields.pop(1))
        lay.phdr.pack_into(blob, ehsize + i * lay.phdr.size, *fields)

    with open(dest, "wb") as fh:
        fh.write(blob)
    return strtabs[".dynstr"]


class GeneratedElfSpec(Frozen):
    """Recipe for a benchmark fixture: N defined GLOBAL FUNC exports."""

    _fields = __slots__ = ("symbol_count", "name_pattern")

    def __init__(self, symbol_count: int, name_pattern: str = "sym_{index:08}"):
        if symbol_count < 0:
            raise ValueError("symbol_count must be >= 0")
        self._assign(symbol_count, name_pattern)

    def names(self) -> list[str]:
        """`name_pattern.format(index=i)` for each i below `symbol_count`."""
        split = _index_field(self.name_pattern)
        if split is None:
            return [self.name_pattern.format(index=i) for i in range(self.symbol_count)]
        before, spec, after = split
        return [before + n + after for n in map(format, range(self.symbol_count), repeat(spec))]


def _index_field(pattern: str) -> Optional[tuple[str, str, str]]:
    """The literal text before and after `pattern`'s one field and the
    field's SPEC, when that field is `{index:SPEC}` with no conversion."""
    try:
        parts = list(Formatter().parse(pattern))
    except ValueError:  # str.format raises it at the first name
        return None
    fields = [i for i, (_, field, _, _) in enumerate(parts) if field is not None]
    if len(fields) != 1:
        return None
    at = fields[0]
    _, field, spec, conversion = parts[at]
    if field != "index" or conversion is not None or "{" in spec:
        return None
    return "".join(p[0] for p in parts[: at + 1]), spec, "".join(p[0] for p in parts[at + 1 :])


class Manifest(NamedTuple):
    path: str
    names: tuple[str, ...]


def generate_elf(spec: GeneratedElfSpec, dest: str) -> Manifest:
    """Write a DYN file with `spec.symbol_count` defined GLOBAL FUNC symbols.

    Deterministic bytes for a fixed spec; the returned manifest lists the
    planted names (the null symbol is implicit).
    """
    names = spec.names()
    # Every symbol has the columns of SymbolSpec(name), its name aside.
    _, *constant = _columns([SymbolSpec("")])
    _write(dest, _Table(names, *(column * len(names) for column in constant)))
    return Manifest(path=os.path.realpath(dest), names=tuple(names))
