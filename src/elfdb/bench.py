"""Synthesize minimal ELF files for tests and the benchmark's workloads.

The writer emits well-formed ET_DYN objects by direct byte emission, no
toolchain involved, so fixtures are hermetic and bit-for-bit deterministic
for a fixed spec.  It is deliberately minimal: enough structure for parsers
(`readelf` included) to enumerate sections, segments, symbols and dynamic
entries, not enough to actually load and run.
"""

from __future__ import annotations

import array
import os
from itertools import accumulate, chain
from typing import NamedTuple, Optional, Sequence

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


def _string_table(strings: Sequence[str]) -> tuple[bytes, dict[str, int]]:
    """An ELF string table of "" and then each distinct string of `strings`,
    and the offset of each string in it."""
    encoded = {text: text.encode("utf-8") for text in chain(("",), strings)}
    ends = accumulate((len(raw) + 1 for raw in encoded.values()), initial=0)
    return b"\0".join(encoded.values()) + b"\0", dict(zip(encoded, ends))


def _place(
    specs: Sequence[SymbolSpec], ends: dict[str, int], text: bytearray
) -> tuple[list[int], list[int]]:
    """The offset of each symbol in its section, and its size.

    A defined symbol takes the next `size` bytes of its section: `ends`
    holds the bytes taken so far, and code is a `ret` and then `nop`s.
    """
    starts, sizes = [], []
    for spec in specs:
        section = spec.section
        size = spec.size if spec.size is not None else _DEFAULT_SIZES.get(section, 0)
        start = ends.get(section, 0)
        if section in ends:
            ends[section] = start + size
        if section == ".text" and size:
            text += b"\xc3" + b"\x90" * (size - 1)
        starts.append(start)
        sizes.append(size)
    return starts, sizes


def _pack_symbols(lay: reader._Layouts, columns: Sequence[Sequence[int]]) -> bytearray:
    """Symbol records holding `columns`, one per field of `lay.sym_columns`
    with one entry per record: `reader._field_columns` in reverse.

    Each column is one strided slice of the records, cast to words of its
    field's width; in the other byte order the words are swapped first.
    """
    entsize = lay.sym_size
    records = bytearray(len(columns[0]) * entsize)
    view = memoryview(records)
    for column, (offset, width) in zip(columns, lay.sym_columns):
        words = array.array(reader._FORMATS[width], column)
        if lay.swap and width > 1:
            words.byteswap()
        view.cast(reader._FORMATS[width])[offset // width :: entsize // width] = words
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
    lay = reader._layouts(elf_class, encoding)
    dyn_specs = _order_symbols(symbols)
    sym_specs = _order_symbols(symtab_symbols)
    for specs in (dyn_specs, sym_specs):
        if len({s.name for s in specs}) != len(specs):
            raise ValueError("symbol names must be unique within one table")

    # Defined symbols lie end to end in their section, .dynsym's first.
    text = bytearray()
    ends = {".text": 0, ".data": 0, ".bss": 0}
    dyn_placed = _place(dyn_specs, ends, text)
    sym_placed = _place(sym_specs, ends, text)

    tagged = [(reader.DT_NEEDED, name) for name in needed] + [
        (tag, string) for tag, string in
        ((reader.DT_SONAME, soname), (reader.DT_RPATH, rpath), (reader.DT_RUNPATH, runpath))
        if string
    ]
    dynstr, dynstr_offsets = _string_table([s.name for s in dyn_specs] + [t for _, t in tagged])
    strtab, strtab_offsets = _string_table([s.name for s in sym_specs])
    want_dynamic = bool(dyn_specs or tagged or dynamic_suffix)
    has_symtab = symtab_symbols is not None
    used = {s.section for s in chain(dyn_specs, sym_specs)}
    kept = {
        ".data": ".data" in used, ".bss": ".bss" in used, ".dynamic": want_dynamic,
        ".symtab": has_symtab, ".strtab": has_symtab,
    }
    table = [row for row in _SECTIONS if kept.get(row[0], True)]
    shstrtab, sh_names = _string_table([row[0] for row in table])
    index = {row[0]: i for i, row in enumerate(table, 1)}
    shndx_of = {**_SPECIAL_SECTIONS, **index}
    symbol_tables = {
        ".dynsym": (dyn_specs, dyn_placed, dynstr_offsets),
        ".symtab": (sym_specs, sym_placed, strtab_offsets),
    }
    bodies = {
        ".text": text, ".data": bytes(ends[".data"]), ".bss": b"",
        ".dynstr": dynstr, ".strtab": strtab, ".shstrtab": shstrtab,
    }

    # One pass in file order after the ELF and program headers: each
    # section's offset and address, then its body, which may hold the
    # addresses of the sections before it, and its header.
    ehsize = 16 + lay.ehdr.size
    phnum = 2 if want_dynamic else 1
    blob = bytearray(ehsize + phnum * lay.phdr.size)
    addr: dict[str, int] = {}
    headers = []
    for name, sh_type, flags, align, link in table:
        blob += bytes(-len(blob) % align)
        offset = len(blob)
        addr[name] = _BASE_VADDR + offset if flags & reader.SHF_ALLOC else 0
        info = entsize = 0
        if name in symbol_tables:
            specs, (starts, sizes), name_offsets = symbol_tables[name]
            body = _pack_symbols(lay, [
                [0, *(name_offsets[s.name] for s in specs)],
                [0, *(_SYM_BINDING_CODES[s.binding] << 4 | _SYM_TYPE_CODES[s.sym_type]
                      for s in specs)],
                [0, *(_SYM_VISIBILITY_CODES[s.visibility] for s in specs)],
                [0, *(shndx_of[s.section] for s in specs)],
                [0, *(addr.get(s.section, 0) + start for s, start in zip(specs, starts))],
                [0, *sizes],
            ])
            info = 1 + sum(1 for s in specs if s.binding == "LOCAL")
            entsize = lay.sym_size
        elif name == ".dynamic":
            entries = [(tag, dynstr_offsets[t]) for tag, t in tagged] + [
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
        headers.append(
            (sh_names[name], sh_type, flags, addr[name], offset, size,
             index.get(link, 0), info, align, entsize)
        )

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

    return WrittenElf(
        path=os.path.realpath(dest),
        names=tuple(s.name for s in chain(dyn_specs, sym_specs)),
        dynsym_names=tuple(s.name for s in dyn_specs),
        symtab_names=tuple(s.name for s in sym_specs),
        dynstr_offsets=dynstr_offsets,
    )


def _order_symbols(specs: Optional[Sequence[SymbolSpec]]) -> list[SymbolSpec]:
    # gABI: local symbols precede all others within a table.
    specs = specs or ()
    return [s for s in specs if s.binding == "LOCAL"] + [s for s in specs if s.binding != "LOCAL"]


class GeneratedElfSpec(Frozen):
    """Recipe for a benchmark fixture: N defined GLOBAL FUNC exports."""

    _fields = __slots__ = ("symbol_count", "name_pattern")

    def __init__(self, symbol_count: int, name_pattern: str = "sym_{index:08}"):
        if symbol_count < 0:
            raise ValueError("symbol_count must be >= 0")
        self._assign(symbol_count, name_pattern)

    def names(self) -> list[str]:
        return [self.name_pattern.format(index=i) for i in range(self.symbol_count)]


class Manifest(NamedTuple):
    path: str
    names: tuple[str, ...]


def generate_elf(spec: GeneratedElfSpec, dest: str) -> Manifest:
    """Write a DYN file with `spec.symbol_count` defined GLOBAL FUNC symbols.

    Deterministic bytes for a fixed spec; the returned manifest lists the
    planted names (the null symbol is implicit).
    """
    names = spec.names()
    written = write_elf(dest, symbols=[SymbolSpec(n) for n in names])
    return Manifest(path=written.path, names=tuple(names))
