"""Synthesize minimal ELF files for tests and the benchmark's workloads.

The writer emits well-formed ET_DYN objects by direct byte emission, no
toolchain involved, so fixtures are hermetic and bit-for-bit deterministic
for a fixed spec.  It is deliberately minimal: enough structure for parsers
(`readelf` included) to enumerate sections, segments, symbols and dynamic
entries, not enough to actually load and run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from . import reader
from .reader import DataEncoding, ElfClass

_BASE_VADDR = 0x10000

_SYM_TYPE_CODES = {name: code for code, name in reader.SYMBOL_TYPE_NAMES.items()}
_SYM_BINDING_CODES = {name: code for code, name in reader.SYMBOL_BINDING_NAMES.items()}
_SYM_VISIBILITY_CODES = {name: code for code, name in reader.SYMBOL_VISIBILITY_NAMES.items()}


@dataclass(frozen=True)
class SymbolSpec:
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


@dataclass(frozen=True)
class WrittenElf:
    """What the writer actually put in the file, for oracle-style checks."""

    path: str
    names: tuple[str, ...]
    dynsym_names: tuple[str, ...]
    symtab_names: tuple[str, ...]
    dynstr_offsets: dict[str, int]


def _default_size(spec: SymbolSpec) -> int:
    if spec.size is not None:
        return spec.size
    if spec.section == ".text":
        return 1
    if spec.section in (".data", ".bss"):
        return 4
    return 0


class _StringPool:
    """NUL-terminated string pool mirroring an ELF string table."""

    def __init__(self) -> None:
        self._buf = bytearray(b"\x00")
        self._offsets: dict[str, int] = {"": 0}

    def add(self, text: str) -> int:
        if text not in self._offsets:
            self._offsets[text] = len(self._buf)
            self._buf += text.encode("utf-8") + b"\x00"
        return self._offsets[text]

    def offset_of(self, text: str) -> int:
        return self._offsets[text]

    @property
    def data(self) -> bytes:
        return bytes(self._buf)

    @property
    def offsets(self) -> dict[str, int]:
        return dict(self._offsets)


def _align(value: int, alignment: int) -> int:
    if alignment <= 1:
        return value
    rem = value % alignment
    return value if rem == 0 else value + alignment - rem


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
    file_type: int = 3,  # ET_DYN
    dynamic_suffix: Sequence[tuple[int, int]] = (),
) -> WrittenElf:
    """Emit a minimal ELF file and report what went into it.

    `symbols` land in .dynsym; `symtab_symbols`, when given (possibly empty),
    adds a .symtab/.strtab pair.  A .dynamic section appears whenever there
    are dynsym symbols or any dynamic-entry inputs.  `dynamic_suffix` entries
    are written after the DT_NULL terminator (for parser edge-case tests).
    """
    lay = reader._layouts(elf_class, encoding)
    is64 = elf_class == ElfClass.ELF64
    ehsize = 16 + lay.ehdr.size

    dyn_specs = _order_symbols(symbols)
    sym_specs = _order_symbols(symtab_symbols) if symtab_symbols is not None else None
    for specs in (dyn_specs, sym_specs or []):
        seen = {s.name for s in specs}
        if len(seen) != len(specs):
            raise ValueError("symbol names must be unique within one table")

    # Section bodies that do not depend on addresses.
    text = bytearray()
    data_body = bytearray()
    bss_size = 0
    placements: dict[tuple[int, str], tuple[int, int]] = {}  # (tier, name) -> (section, rel_addr)
    dynstr = _StringPool()
    strtab = _StringPool()

    def place(spec: SymbolSpec, tier: int) -> tuple[int, int]:
        nonlocal bss_size
        size = _default_size(spec)
        if spec.section == ".text":
            rel = len(text)
            text.extend(b"\xc3" + b"\x90" * (size - 1) if size > 0 else b"")
            return 1, rel  # section ordinal assigned later by name
        if spec.section == ".data":
            rel = len(data_body)
            data_body.extend(b"\x00" * size)
            return 2, rel
        if spec.section == ".bss":
            rel = bss_size
            bss_size += size
            return 3, rel
        if spec.section == "SHN_ABS":
            return -reader.SHN_ABS, 0
        return 0, 0  # SHN_UNDEF

    for spec in dyn_specs:
        dynstr.add(spec.name)
        placements[(0, spec.name)] = place(spec, 0)
    if sym_specs:
        for spec in sym_specs:
            strtab.add(spec.name)
            placements[(1, spec.name)] = place(spec, 1)

    needed_offsets = [dynstr.add(n) for n in needed]
    soname_offset = dynstr.add(soname) if soname else None
    rpath_offset = dynstr.add(rpath) if rpath else None
    runpath_offset = dynstr.add(runpath) if runpath else None

    want_dynamic = bool(dyn_specs or needed or soname or runpath or rpath or dynamic_suffix)

    all_specs = list(dyn_specs) + list(sym_specs or [])
    # Section table layout (names assigned in emission order).
    names = [""]
    section_order = [".text"]
    if data_body or any(s.section == ".data" for s in all_specs):
        section_order.append(".data")
    if bss_size or any(s.section == ".bss" for s in all_specs):
        section_order.append(".bss")
    section_order += [".dynsym", ".dynstr"]
    if want_dynamic:
        section_order.append(".dynamic")
    if sym_specs is not None:
        section_order += [".symtab", ".strtab"]
    section_order.append(".shstrtab")
    names += section_order
    index_of = {name: i for i, name in enumerate(names)}

    shstrtab = _StringPool()
    for name in names[1:]:
        shstrtab.add(name)

    dyn_entry_count = (
        len(needed)
        + (1 if soname else 0)
        + (1 if rpath else 0)
        + (1 if runpath else 0)
        + 5  # STRTAB, SYMTAB, STRSZ, SYMENT, NULL
        + len(dynamic_suffix)
    )

    sym_entsize = lay.sym.size
    dyn_entsize = lay.dyn.size
    sizes = {
        ".text": len(text),
        ".data": len(data_body),
        ".bss": bss_size,
        ".dynsym": (len(dyn_specs) + 1) * sym_entsize,
        ".dynstr": len(dynstr.data),
        ".dynamic": dyn_entry_count * dyn_entsize if want_dynamic else 0,
        ".symtab": ((len(sym_specs) + 1) * sym_entsize) if sym_specs is not None else 0,
        ".strtab": len(strtab.data) if sym_specs is not None else 0,
        ".shstrtab": len(shstrtab.data),
    }
    aligns = {
        ".text": 16,
        ".data": 8,
        ".bss": 8,
        ".dynsym": 8,
        ".dynstr": 1,
        ".dynamic": 8,
        ".symtab": 8,
        ".strtab": 1,
        ".shstrtab": 1,
    }
    alloc = {".text", ".data", ".bss", ".dynsym", ".dynstr", ".dynamic"}

    phnum = 2 if want_dynamic else 1
    phentsize = lay.phdr.size
    cursor = ehsize + phnum * phentsize
    offsets: dict[str, int] = {}
    vaddrs: dict[str, int] = {}
    for name in section_order:
        cursor = _align(cursor, aligns[name])
        offsets[name] = cursor
        vaddrs[name] = _BASE_VADDR + cursor if name in alloc else 0
        if name != ".bss":
            cursor += sizes[name]
    shoff = _align(cursor, 8)
    shnum = len(names)
    shentsize = lay.shdr.size
    file_size = shoff + shnum * shentsize

    def section_addr(ordinal: int) -> int:
        return vaddrs[{1: ".text", 2: ".data", 3: ".bss"}[ordinal]]

    def pack_symbols(specs: Sequence[SymbolSpec], pool: _StringPool, tier: int) -> bytes:
        body = bytearray(sym_entsize)  # null symbol
        for spec in specs:
            ordinal, rel = placements[(tier, spec.name)]
            if ordinal > 0:
                shndx = index_of[{1: ".text", 2: ".data", 3: ".bss"}[ordinal]]
                value = section_addr(ordinal) + rel
            elif ordinal < 0:
                shndx = -ordinal
                value = rel
            else:
                shndx = reader.SHN_UNDEF
                value = 0
            info = (_SYM_BINDING_CODES[spec.binding] << 4) | _SYM_TYPE_CODES[spec.sym_type]
            other = _SYM_VISIBILITY_CODES[spec.visibility]
            name_off = pool.offset_of(spec.name)
            if is64:
                body += lay.sym.pack(name_off, info, other, shndx, value, _default_size(spec))
            else:
                body += lay.sym.pack(name_off, value, _default_size(spec), info, other, shndx)
        return bytes(body)

    dynsym_body = pack_symbols(dyn_specs, dynstr, 0)
    symtab_body = pack_symbols(sym_specs, strtab, 1) if sym_specs is not None else b""

    dynamic_body = b""
    if want_dynamic:
        entries: list[tuple[int, int]] = []
        for off in needed_offsets:
            entries.append((reader.DT_NEEDED, off))
        if soname_offset is not None:
            entries.append((reader.DT_SONAME, soname_offset))
        if rpath_offset is not None:
            entries.append((reader.DT_RPATH, rpath_offset))
        if runpath_offset is not None:
            entries.append((reader.DT_RUNPATH, runpath_offset))
        entries.append((5, vaddrs[".dynstr"]))   # DT_STRTAB
        entries.append((6, vaddrs[".dynsym"]))   # DT_SYMTAB
        entries.append((10, sizes[".dynstr"]))   # DT_STRSZ
        entries.append((11, sym_entsize))        # DT_SYMENT
        entries.append((reader.DT_NULL, 0))
        entries.extend(dynamic_suffix)
        dynamic_body = b"".join(lay.dyn.pack(tag, value) for tag, value in entries)

    bodies = {
        ".text": bytes(text),
        ".data": bytes(data_body),
        ".bss": b"",
        ".dynsym": dynsym_body,
        ".dynstr": dynstr.data,
        ".dynamic": dynamic_body,
        ".symtab": symtab_body,
        ".strtab": strtab.data if sym_specs is not None else b"",
        ".shstrtab": shstrtab.data,
    }

    blob = bytearray(file_size)
    ident = bytes(
        [0x7F, ord("E"), ord("L"), ord("F"), elf_class.value, encoding.value, 1, 0, 0]
    ) + bytes(7)
    blob[0:16] = ident
    lay.ehdr.pack_into(
        blob,
        16,
        file_type,
        machine,
        1,              # e_version
        0,              # e_entry
        ehsize,         # e_phoff
        shoff,
        0,              # e_flags
        ehsize,
        phentsize,
        phnum,
        shentsize,
        shnum,
        index_of[".shstrtab"],
    )

    # PT_LOAD over the whole file, plus PT_DYNAMIC when present.
    def pack_phdr(at: int, p_type: int, flags: int, off: int, vaddr: int, filesz: int, memsz: int, align: int) -> None:
        if lay.phdr_has_leading_flags:
            lay.phdr.pack_into(blob, at, p_type, flags, off, vaddr, vaddr, filesz, memsz, align)
        else:
            lay.phdr.pack_into(blob, at, p_type, off, vaddr, vaddr, filesz, memsz, flags, align)

    pack_phdr(ehsize, 1, reader.PF_R | reader.PF_X, 0, _BASE_VADDR, file_size, file_size + bss_size, 0x1000)
    if want_dynamic:
        pack_phdr(
            ehsize + phentsize,
            2,
            reader.PF_R | reader.PF_W,
            offsets[".dynamic"],
            vaddrs[".dynamic"],
            sizes[".dynamic"],
            sizes[".dynamic"],
            8,
        )

    for name in section_order:
        if name != ".bss":
            body = bodies[name]
            blob[offsets[name] : offsets[name] + len(body)] = body

    # Section headers: NULL first, then emission order.
    SHT = {
        ".text": reader.SHT_PROGBITS,
        ".data": reader.SHT_PROGBITS,
        ".bss": reader.SHT_NOBITS,
        ".dynsym": reader.SHT_DYNSYM,
        ".dynstr": reader.SHT_STRTAB,
        ".dynamic": reader.SHT_DYNAMIC,
        ".symtab": reader.SHT_SYMTAB,
        ".strtab": reader.SHT_STRTAB,
        ".shstrtab": reader.SHT_STRTAB,
    }
    FLAGS = {
        ".text": reader.SHF_ALLOC | reader.SHF_EXECINSTR,
        ".data": reader.SHF_ALLOC | 0x1,
        ".bss": reader.SHF_ALLOC | 0x1,
        ".dynsym": reader.SHF_ALLOC,
        ".dynstr": reader.SHF_ALLOC,
        ".dynamic": reader.SHF_ALLOC | 0x1,
        ".symtab": 0,
        ".strtab": 0,
        ".shstrtab": 0,
    }
    n_locals_dyn = 1 + sum(1 for s in dyn_specs if s.binding == "LOCAL")
    n_locals_sym = 1 + (sum(1 for s in sym_specs if s.binding == "LOCAL") if sym_specs else 0)
    LINK = {
        ".dynsym": index_of[".dynstr"],
        ".dynamic": index_of[".dynstr"],
        ".symtab": index_of.get(".strtab", 0),
    }
    INFO = {".dynsym": n_locals_dyn, ".symtab": n_locals_sym}
    ENTSIZE = {".dynsym": sym_entsize, ".symtab": sym_entsize, ".dynamic": dyn_entsize}

    at = shoff + shentsize  # leave header 0 zeroed
    for name in section_order:
        lay.shdr.pack_into(
            blob,
            at,
            shstrtab.offsets[name],
            SHT[name],
            FLAGS[name],
            vaddrs[name],
            offsets[name],
            sizes[name],
            LINK.get(name, 0),
            INFO.get(name, 0),
            aligns[name],
            ENTSIZE.get(name, 0),
        )
        at += shentsize

    with open(dest, "wb") as fh:
        fh.write(blob)

    return WrittenElf(
        path=os.path.realpath(dest),
        names=tuple(s.name for s in dyn_specs) + tuple(s.name for s in (sym_specs or ())),
        dynsym_names=tuple(s.name for s in dyn_specs),
        symtab_names=tuple(s.name for s in (sym_specs or ())),
        dynstr_offsets=dynstr.offsets,
    )


def _order_symbols(specs: Optional[Sequence[SymbolSpec]]) -> list[SymbolSpec]:
    # gABI: local symbols precede all others within a table.
    if not specs:
        return []
    locals_ = [s for s in specs if s.binding == "LOCAL"]
    others = [s for s in specs if s.binding != "LOCAL"]
    return locals_ + others


@dataclass(frozen=True)
class GeneratedElfSpec:
    """Recipe for a benchmark fixture: N defined GLOBAL FUNC exports."""

    symbol_count: int
    name_pattern: str = "sym_{index:08}"

    def __post_init__(self) -> None:
        if self.symbol_count < 0:
            raise ValueError("symbol_count must be >= 0")

    def names(self) -> list[str]:
        return [self.name_pattern.format(index=i) for i in range(self.symbol_count)]


@dataclass(frozen=True)
class Manifest:
    path: str
    names: tuple[str, ...]


def generate_elf(spec: GeneratedElfSpec, dest: str) -> Manifest:
    """Write a DYN file with `spec.symbol_count` defined GLOBAL FUNC symbols.

    Deterministic bytes for a fixed spec; the returned manifest lists the
    planted names (the null symbol is implicit).
    """
    names = spec.names()
    written = write_elf(dest, symbols=[SymbolSpec(name=n) for n in names])
    return Manifest(path=written.path, names=tuple(names))
