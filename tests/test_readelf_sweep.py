"""elfdb's rows for a library directory's ELF files against readelf.

For every file: each `elf_symbols` row against `readelf -sW`, each section
against `readelf -SW`, each `elf_segments` row against `readelf -lW`, each
dynamic tag (and the string of NEEDED, SONAME, RPATH and RUNPATH) against
`readelf -dW`, the `elf_headers` row against `readelf -hW`, and each
non-empty `elf_strings` entry against `readelf -W -p`.

Tier-1 sweeps an evenly spaced sample of SWEEP_FILES files from the sorted
directory.  Run as a script to sweep every file of a directory:

    PYTHONPATH=src python tests/test_readelf_sweep.py [DIRECTORY]

The comparison keeps to where the two tools name things differently:

* readelf names binding 10 `UNIQUE` (`<OS specific>: 10` when the file's
  OS/ABI is not GNU) and type 10 `IFUNC`; elfdb writes `GNU_UNIQUE` and
  `GNU_IFUNC`.
* A version-definition symbol, whose name is its version, is shown by
  readelf without `@@VERSION`; elfdb stores the version.
* A `.symtab` name that holds `@VERSION` literally is split by readelf;
  elfdb keeps the name whole, with no version, as `.symtab` has none.
* readelf names an unnamed `STT_SECTION` symbol after its section.
* readelf calls the GNU version sections `VERSYM`, `VERDEF` and `VERNEED`,
  and SHT_SYMTAB_SHNDX `SYMTAB SECTION INDICES`, where elfdb writes
  `GNU_VERSYM`, `GNU_VERDEF`, `GNU_VERNEED` and `SYMTAB_SHNDX`.  It shows
  section flags elfdb does not render (such as `R`, retain, and
  `l`, large); elfdb's `flags` holds the generic letters only.
* readelf names processor-specific section types by machine.  elfdb names
  them for the machines of `reader.PROCESSOR_SECTION_TYPE_NAMES`, x86-64's
  `X86_64_UNWIND` (0x70000001, an LLVM-linked `.eh_frame`); for any other
  machine it writes these codes in decimal, where readelf may name them
  (0x70000001 is `ARM_EXIDX` on ARM).
* readelf -p (binutils 2.40, C locale) starts an entry's line at its first
  printable ASCII byte, so an entry of no such byte has no line, and writes
  a control byte c as `^` and the byte c + 0x40.  Other bytes pass through;
  elfdb writes one that is not UTF-8 as the escape `\\xNN`, as readelf's
  output is read.  An entry that holds a newline, which readelf breaks
  over two lines, shows as a mismatch; no swept file has one.
"""

from __future__ import annotations

import os
import re
import struct
import sys
from functools import partial
from itertools import islice, zip_longest
from pathlib import Path

import pytest

from elfdb import model, reader
from elfdb.bench import SymbolSpec, write_elf
from elfdb.reader import DataEncoding, ElfClass, ElfError, SymbolTableKind

from conftest import (
    READELF,
    named_rows,
    readelf_dynamic,
    readelf_segments,
    readelf_symbol_tables,
    run_readelf,
    symbol_table,
    write_varied_elf,
)

LIBRARY_DIR = "/usr/lib/x86_64-linux-gnu"
SWEEP_FILES = 24

_SYMBOL_BINDINGS = {"UNIQUE": "GNU_UNIQUE", "OS_SPECIFIC_10": "GNU_UNIQUE"}
_SYMBOL_TYPES = {"IFUNC": "GNU_IFUNC", "OS_SPECIFIC_10": "GNU_IFUNC"}
_SECTION_TYPES = {
    "VERSYM": "GNU_VERSYM", "VERDEF": "GNU_VERDEF", "VERNEED": "GNU_VERNEED",
    "SYMTAB SECTION INDICES": "SYMTAB_SHNDX",
}
_SHT_LOPROC, _SHT_HIPROC = 0x70000000, 0x7FFFFFFF
_SHNDX = {"UND": "SHN_UNDEF", "ABS": "SHN_ABS", "COM": "SHN_COMMON"}
# The generic flag letters, the only ones elfdb renders.
_RENDERED_SECTION_FLAGS = frozenset("WAXMSILOGTCE")
_DATA = {"2's complement, little endian": "LSB", "2's complement, big endian": "MSB"}
_OSABI = {
    "UNIX - System V": "SYSV", "UNIX - GNU": "GNU", "UNIX - FreeBSD": "FREEBSD",
    "UNIX - NetBSD": "NETBSD", "UNIX - Solaris": "SOLARIS",
}
_MACHINES = {
    "Advanced Micro Devices X86-64": "X86_64", "Intel 80386": "386", "AArch64": "AARCH64",
    "ARM": "ARM", "RISC-V": "RISCV", "PowerPC": "PPC", "PowerPC64": "PPC64",
    "IBM S/390": "S390", "Linux BPF": "BPF",
}

# readelf writes every section type as one word but SHT_SYMTAB_SHNDX's.
_SECTION_LINE = re.compile(
    r"^\s*\[\s*(\d+)\] (\S*)\s+(SYMTAB SECTION INDICES|\S+)\s+"
    r"([0-9a-f]+) ([0-9a-f]+) ([0-9a-f]+) ([0-9a-f]+)\s+(\S*)\s+(\d+)\s+(\d+)\s+(\d+)$"
)
_HEADER_LINE = re.compile(r"^\s+([^:]+):\s+(.*)$")
_STRING_DUMP = re.compile(r"^String dump of section '(.*)':$")
_STRING_LINE = re.compile(r"^  \[\s*([0-9a-f]+)\]  (.*)$")
# The start of an `elf_strings` value that readelf -p does not print: bytes
# outside printable ASCII, a byte that is not UTF-8 written as `\xNN`.
_UNPRINTED = re.compile(r"(?:[^\x20-\x7e]|\\x[89a-f][0-9a-f])*")
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


def library_elves(directory: str, limit: int | None = None) -> list[str]:
    """The ELF files of `directory`, symlinks resolved and each counted once,
    in sorted order; an evenly spaced sample of `limit` of them if given."""
    found: dict[str, None] = {}
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            path = os.path.realpath(os.path.join(directory, name))
            if path in found or not os.path.isfile(path):
                continue
            try:
                with open(path, "rb") as fh:
                    if fh.read(4) == reader.ELF_MAGIC:
                        found[path] = None
            except OSError:
                continue
    paths = list(found)
    if limit is not None and len(paths) > limit:
        paths = [paths[i * len(paths) // limit] for i in range(limit)]
    return paths


def _unsigned(value: int) -> int:
    return value % 2**64


def _symbol_mismatches(obj: reader.ElfObject, path: str) -> list[str]:
    """elfdb's symbol tables against readelf's, paired in order: readelf
    lists them in section order, elfdb lists .dynsym tables first, and the
    two agree whenever a .dynsym comes before the .symtab, as in every file
    swept so far."""
    oracle = readelf_symbol_tables(path)
    columns = [c for c, _ in model.SCHEMA["elf_symbols"]]
    rows = map(dict, map(partial(zip, columns), model.symbol_tuples(obj)))
    ours = [(t.kind.value, list(islice(rows, len(t)))) for t in obj.symbol_tables]
    counts = [(table, len(r)) for table, r in ours]
    if [n for _, n in counts] != [len(r) for _, r in oracle]:
        listed = [(name, len(r)) for name, r in oracle]
        return [f"{path}: symbol tables {counts} differ from readelf's {listed}"]
    problems = []
    for (table, rows), (_name, wanted) in zip(ours, oracle):
        for row, want in zip(rows, wanted):
            name, version = want.name, want.version
            if table == ".symtab" and version is not None:
                name, version = f"{name}{'@@' if want.version_default else '@'}{version}", None
            if version is None and row["version"] == row["name"] and table == ".dynsym":
                version = row["version"]  # a version definition
            if want.sym_type == "SECTION" and row["name"] == "":
                name = ""  # readelf shows the section's name
            ndx = _SHNDX.get(want.ndx)
            if ndx is None:
                ndx = obj.sections[int(want.ndx)].name if want.ndx.isdigit() else want.ndx
            got = (
                row["index"], row["name"], _unsigned(row["value"]), _unsigned(row["size"]),
                row["type"], row["binding"], row["visibility"], row["section"],
                None if row["version"] == 0 else row["version"],
            )
            expected = (
                want.index, name, want.value, int(want.size, 0),
                _SYMBOL_TYPES.get(want.sym_type, want.sym_type),
                _SYMBOL_BINDINGS.get(want.bind, want.bind), want.vis, ndx, version,
            )
            if got != expected:
                problems.append(f"{path} {table}: elfdb {got} readelf {expected}")
    return problems


def _section_mismatches(obj: reader.ElfObject, path: str) -> list[str]:
    oracle = [m.groups() for m in map(_SECTION_LINE.match, run_readelf("-SW", path).splitlines()) if m]
    ours = list(model.section_tuples(obj))
    if len(ours) != len(oracle):
        return [f"{path}: {len(ours)} sections, readelf lists {len(oracle)}"]
    problems = []
    for row, (index, name, type_name, address, offset, size, _es, flags, link, info, _al) in zip(
        ours, oracle
    ):
        got = (row[1], row[2], row[3], row[4], _unsigned(row[5]), _unsigned(row[6]),
               _unsigned(row[7]), row[8], row[9])
        if (
            row[3].isdigit()
            and _SHT_LOPROC <= int(row[3]) <= _SHT_HIPROC
            and obj.header.machine_code not in reader.PROCESSOR_SECTION_TYPE_NAMES
        ):
            type_name = row[3]  # a processor-specific code of a machine elfdb names none for
        expected = (
            int(index), name, _SECTION_TYPES.get(type_name, type_name),
            "".join(f for f in flags if f in _RENDERED_SECTION_FLAGS),
            int(address, 16), int(offset, 16), int(size, 16), int(link), int(info),
        )
        if got != expected:
            problems.append(f"{path} section: elfdb {got} readelf {expected}")
    return problems


def _header_mismatches(obj: reader.ElfObject, path: str) -> list[str]:
    fields = dict(m.groups() for m in map(_HEADER_LINE.match, run_readelf("-hW", path).splitlines()) if m)
    (row,) = model.header_tuples(obj)
    got = (row[1], row[2], _unsigned(row[4]), row[5], row[6], row[7], row[8], row[9])
    shnum = fields["Number of section headers"]
    expected = (
        fields["Type"].split()[0],
        _MACHINES.get(fields["Machine"], fields["Machine"]),
        int(fields["Entry point address"], 16),
        fields["Class"],
        _DATA.get(fields["Data"], fields["Data"]),
        _OSABI.get(fields["OS/ABI"], fields["OS/ABI"]),
        int(fields["Number of program headers"]),
        # "0 (N)": extended numbering keeps the count in section 0.
        int(shnum.split("(")[1].rstrip(")") if "(" in shnum else shnum),
    )
    return [] if got == expected else [f"{path} header: elfdb {got} readelf {expected}"]


def _segment_mismatches(obj: reader.ElfObject, path: str) -> list[str]:
    segments = [
        (row[2], row[3], row[4], _unsigned(row[5]), row[6], _unsigned(row[7]), _unsigned(row[8]))
        for row in model.segment_tuples(obj)
    ]
    oracle = readelf_segments(path)
    return [] if segments == oracle else [f"{path}: segments {segments} readelf {oracle}"]


def _dynamic_mismatches(obj: reader.ElfObject, path: str) -> list[str]:
    dynamic = [(row[2], row[4]) for row in model.dynamic_entry_tuples(obj)]
    oracle = [
        (tag, text if tag in ("NEEDED", "SONAME", "RPATH", "RUNPATH") else None)
        for tag, text in readelf_dynamic(path)
    ]
    return [] if dynamic == oracle else [f"{path}: dynamic entries {dynamic} readelf {oracle}"]


def _control(match: re.Match) -> str:
    # readelf writes DEL as `^` and the byte 0xbf, which is not UTF-8.
    return "^\\xbf" if match[0] == "\x7f" else "^" + chr(ord(match[0]) + 0x40)


def _readelf_string(offset: int, value: str) -> tuple[int, str]:
    """The offset and text of readelf -p's line for the `elf_strings` entry
    (`offset`, `value`); the text is empty when readelf prints no line."""
    skipped = value[: _UNPRINTED.match(value).end()]
    # An escape is four characters for one byte.
    offset += len(skipped.encode()) - 3 * skipped.count("\\")
    return offset, _CONTROL.sub(_control, value[len(skipped) :])


def _string_mismatches(obj: reader.ElfObject, path: str) -> list[str]:
    """Each SHT_STRTAB section's entries, selected by index, against readelf
    -p's, in section order."""
    indices = [str(s.index) for s in obj.sections if s.type_code == reader.SHT_STRTAB and s.size]
    if not indices:
        return []
    oracle, section = [], None
    for line in run_readelf("-W", *(arg for i in indices for arg in ("-p", i)), path).splitlines():
        dump, entry = _STRING_DUMP.match(line), _STRING_LINE.match(line)
        if dump:
            section = dump.group(1)
        elif entry:
            oracle.append((section, int(entry.group(1), 16), entry.group(2)))
    ours = [
        (section, *printed)
        for _path, section, offset, value in model.string_tuples(obj)
        for printed in [_readelf_string(offset, value)]
        if printed[1]
    ]
    first = next(((a, b) for a, b in zip_longest(ours, oracle) if a != b), None)
    if first is None:
        return []
    return [f"{path}: {len(ours)} strings, readelf {len(oracle)}; first differing: elfdb {first[0]} readelf {first[1]}"]


def mismatches(path: str) -> list[str]:
    """Every difference between elfdb's rows for `path` and readelf's."""
    try:
        obj = reader.load_elf(path)
    except ElfError as exc:
        return [f"{path}: elfdb refuses the file: {exc}"]
    return [
        *_header_mismatches(obj, path),
        *_section_mismatches(obj, path),
        *_segment_mismatches(obj, path),
        *_dynamic_mismatches(obj, path),
        *_symbol_mismatches(obj, path),
        *_string_mismatches(obj, path),
    ]


def test_library_sample_matches_readelf():
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    paths = library_elves(LIBRARY_DIR, SWEEP_FILES)
    if not paths:
        pytest.skip(f"no ELF files in {LIBRARY_DIR}")
    problems = [problem for path in paths for problem in mismatches(path)]
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize("encoding", list(DataEncoding))
@pytest.mark.parametrize("elf_class", list(ElfClass))
def test_varied_file_matches_readelf(tmp_path, elf_class, encoding):
    """Every library the sweep reads is ELF64 LSB; these files give readelf
    ELF32 and MSB headers, sections, segments and symbols."""
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    path = write_varied_elf(str(tmp_path / "varied.so"), elf_class, encoding)
    assert mismatches(path) == []


@pytest.mark.parametrize("machine", [reader.EM_X86_64, 40])
def test_processor_section_type_named_by_machine(tmp_path, machine):
    """A section of type 0x70000001 is readelf's `X86_64_UNWIND` in an x86-64
    file; in an ARM (40) file, where readelf shows `ARM_EXIDX`, it is decimal."""
    path = str(tmp_path / "unwind.so")
    write_elf(path, symbols=[SymbolSpec("f")], machine=machine)
    obj = reader.load_elf(path)
    text = obj.section_named(".text")
    with open(path, "r+b") as fh:
        fh.seek(obj.header.shoff + text.index * obj.header.shentsize + 4)  # its sh_type
        fh.write(struct.pack("<I", 0x70000001))
    obj = reader.load_elf(path)
    (sh_type,) = [row[3] for row in model.section_tuples(obj) if row[2] == ".text"]
    assert sh_type == ("X86_64_UNWIND" if machine == reader.EM_X86_64 else "1879048193")
    assert _section_mismatches(obj, path) == []


# ELF64 file header offsets of e_shoff, e_phnum, e_shnum and e_shstrndx,
# and of sh_link in an ELF64 section header.
E_SHOFF, E_PHNUM, E_SHNUM, E_SHSTRNDX = 40, 56, 60, 62
SH_LINK = 40


def patch_fields(path: str, *fields: tuple[int, str, int]) -> None:
    """Sets each (offset, struct format, value) of `fields` in the file at `path`."""
    data = bytearray(Path(path).read_bytes())
    for offset, fmt, value in fields:
        struct.pack_into(fmt, data, offset, value)
    Path(path).write_bytes(data)


def test_sectionless_file_matches_readelf(tmp_path):
    """A file whose header gives no section header table has no sections
    and so no symbols; its header and segments are read as readelf reads
    them, and .dynamic through PT_DYNAMIC, its strings at DT_STRTAB."""
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    path = str(tmp_path / "sectionless.so")
    write_elf(path, symbols=[SymbolSpec("f")], needed=["libz.so.1"])
    patch_fields(path, (E_SHOFF, "<Q", 0), (E_SHNUM, "<H", 0), (E_SHSTRNDX, "<H", 0))
    obj = reader.load_elf(path)
    assert (obj.sections, obj.symbol_tables) == ((), ())
    assert reader.needed_libraries(obj) == ["libz.so.1"]
    assert "There are no sections in this file." in run_readelf("-SW", path)
    assert mismatches(path) == []


def test_file_without_section_names_matches_readelf(tmp_path):
    """e_shstrndx SHN_UNDEF: the file has no section name string table.
    Every section is named `<no-strings>`, as readelf names it, the
    symbol tables are still found by their types, and .dynamic through
    PT_DYNAMIC."""
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    path = str(tmp_path / "unnamed.so")
    write_elf(
        path,
        symbols=[SymbolSpec("f"), SymbolSpec("g", sym_type="OBJECT", section=".data")],
        symtab_symbols=[SymbolSpec("h", binding="LOCAL")],
        needed=["libz.so.1", "libm.so.6"],
    )
    patch_fields(path, (E_SHSTRNDX, "<H", 0))
    obj = reader.load_elf(path)
    assert {s.name for s in obj.sections} == {"<no-strings>"}
    assert reader.needed_libraries(obj) == ["libz.so.1", "libm.so.6"]
    # readelf names both symbol tables `<no-strings>`; they pair in order.
    assert [name for name, _ in readelf_symbol_tables(path)] == ["<no-strings>"] * 2
    assert [r["table"] for r in named_rows("elf_symbols", obj)] == [".dynsym"] * 3 + [".symtab"] * 2
    assert mismatches(path) == []


def dynamic_link_to_shstrtab(obj: reader.ElfObject) -> tuple[int, str, int]:
    """The field setting .dynamic's sh_link to e_shstrndx."""
    header = obj.header.shoff + obj.section_named(".dynamic").index * obj.header.shentsize
    return header + SH_LINK, "<I", obj.header.shstrndx


@pytest.mark.parametrize(
    "patch, strings",
    [
        (dynamic_link_to_shstrtab, ["libz.so.1", "liba.so", "$ORIGIN/x"]),
        (lambda obj: (E_PHNUM, "<H", 0), []),
    ],
    ids=["dynamic_sh_link_to_shstrtab", "e_phnum_0"],
)
def test_dynamic_read_through_segments_matches_readelf(tmp_path, patch, strings):
    """.dynamic is read through PT_DYNAMIC and its strings at DT_STRTAB, as
    readelf -d reads them: its section's sh_link, here pointed at .shstrtab,
    is not consulted, and a file without program headers (e_phnum 0) has
    no dynamic entries, though it keeps its .dynamic section."""
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    path = str(tmp_path / "dynamic.so")
    write_elf(
        path, symbols=[SymbolSpec("f")], needed=["libz.so.1"], soname="liba.so", runpath="$ORIGIN/x"
    )
    patch_fields(path, patch(reader.load_elf(path)))
    obj = reader.load_elf(path)
    assert [e.string for e in obj.dynamic if e.string is not None] == strings
    if not strings:
        assert "There is no dynamic section in this file." in run_readelf("-dW", path)
    assert mismatches(path) == []


def symtab_symbol_in(tmp_path, shndx: int, machine: int = reader.EM_X86_64) -> str:
    """A written file whose .symtab symbol `tentative` has st_shndx `shndx`."""
    path = str(tmp_path / "reserved.so")
    write_elf(
        path,
        symbols=[SymbolSpec("f")],
        symtab_symbols=[SymbolSpec("tentative", sym_type="OBJECT", section=".data")],
        machine=machine,
    )
    obj = reader.load_elf(path)
    lay = reader._layouts(ElfClass.ELF64, DataEncoding.LSB)
    index = symbol_table(obj, SymbolTableKind.SYMTAB).names.index("tentative")
    st_shndx = obj.section_named(".symtab").offset + index * lay.sym_size + lay.sym_columns[3][0]
    patch_fields(path, (st_shndx, "<H", shndx))
    return path


def test_common_symbol_matches_readelf(tmp_path):
    """A .symtab symbol whose st_shndx is SHN_COMMON: elfdb's section
    `SHN_COMMON`, readelf's `COM`."""
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    path = symtab_symbol_in(tmp_path, reader.SHN_COMMON)
    rows = named_rows("elf_symbols", reader.load_elf(path))
    assert [r["section"] for r in rows if r["name"] == "tentative"] == ["SHN_COMMON"]
    assert mismatches(path) == []


@pytest.mark.parametrize(
    "shndx, machine, section",
    [
        (0xFF00, reader.EM_X86_64, "PRC[0xff00]"),
        (0xFF02, reader.EM_X86_64, "LARGE_COM"),
        (0xFF02, 183, "PRC[0xff02]"),  # AArch64: x86-64's name only on x86-64
        (0xFF20, reader.EM_X86_64, "OS [0xff20]"),
        (0xFFF0, reader.EM_X86_64, "RSV[0xfff0]"),
        (0xFFFF, reader.EM_X86_64, "RSV[0xffff]"),  # SHN_XINDEX, with no SHT_SYMTAB_SHNDX
    ],
)
def test_reserved_symbol_index_matches_readelf(tmp_path, shndx, machine, section):
    """A reserved st_shndx without an elfdb name is written as readelf writes it."""
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    path = symtab_symbol_in(tmp_path, shndx, machine)
    rows = named_rows("elf_symbols", reader.load_elf(path))
    assert [r["section"] for r in rows if r["name"] == "tentative"] == [section]
    assert mismatches(path) == []


def extended_index_of_tentative(
    tmp_path, words: int | None = None, index: int | None = None
) -> str:
    """`symtab_symbol_in`'s file with st_shndx SHN_XINDEX, and with a
    `.symtab_shndx` section (SHT_SYMTAB_SHNDX, linked to .symtab) whose word
    for `tentative` is `index`, by default that of `.text`.  It holds `words`
    words, one per .symtab record by default.  The new section's name joins
    a copy of .shstrtab, and the section header table is copied with it,
    all three at the end of the file."""
    path = symtab_symbol_in(tmp_path, reader.SHN_XINDEX)
    obj = reader.load_elf(path)
    hdr, symtab = obj.header, obj.section_named(".symtab")
    shstrtab = obj.sections[hdr.shstrndx]
    indices = [0] * (len(symtab.view) // 24)
    tentative = symbol_table(obj, SymbolTableKind.SYMTAB).names.index("tentative")
    indices[tentative] = obj.section_named(".text").index if index is None else index
    indices = indices[:words]
    data = bytearray(Path(path).read_bytes())
    data += bytes(-len(data) % 8)
    indices_at = len(data)
    data += struct.pack(f"<{len(indices)}I", *indices)
    names_at = len(data)
    data += bytes(shstrtab.view) + b".symtab_shndx\0"
    data += bytes(-len(data) % 8)
    headers_at = len(data)
    data += data[hdr.shoff : hdr.shoff + len(obj.sections) * hdr.shentsize]
    struct.pack_into(
        "<QQ", data, headers_at + shstrtab.index * hdr.shentsize + 24, names_at, len(data) - names_at
    )
    data += struct.pack(
        "<IIQQQQIIQQ", len(shstrtab.view), 18, 0, 0, indices_at, 4 * len(indices), symtab.index, 0, 4, 4
    )
    struct.pack_into("<Q", data, E_SHOFF, headers_at)
    struct.pack_into("<H", data, E_SHNUM, len(obj.sections) + 1)
    Path(path).write_bytes(data)
    return path


def test_extended_symbol_index_matches_readelf(tmp_path):
    """A symbol whose st_shndx is SHN_XINDEX is in the section its word in
    the linked SHT_SYMTAB_SHNDX section gives, as readelf shows it."""
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    path = extended_index_of_tentative(tmp_path)
    rows = named_rows("elf_symbols", reader.load_elf(path))
    assert [r["section"] for r in rows if r["name"] == "tentative"] == [".text"]
    assert mismatches(path) == []


@pytest.mark.parametrize(
    "layout, message",
    [
        ({"words": 1}, "'.symtab_shndx' holds 1 section indices for the"),
        ({"index": 99}, "references section 99 of"),
    ],
    ids=["word_past_section_end", "index_past_last_section"],
)
def test_extended_symbol_index_out_of_range_is_malformed(tmp_path, layout, message):
    path = extended_index_of_tentative(tmp_path, **layout)
    with pytest.raises(reader.Malformed, match=message):
        reader.load_elf(path)


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_non_ascii_symbol_name_matches_readelf(tmp_path, monkeypatch, locale):
    """Under a UTF-8 locale readelf 2.40 prints `grüße` as bytes that are
    not UTF-8; the oracle reads the name intact whatever the caller's locale."""
    if READELF is None:
        pytest.skip("readelf not available for oracle comparison")
    monkeypatch.setenv("LC_ALL", locale)
    path = str(tmp_path / "names.so")
    write_elf(path, symbols=[SymbolSpec("grüße"), SymbolSpec("plain")])
    dynsym = dict(readelf_symbol_tables(path))[".dynsym"]
    assert [s.name for s in dynsym][-2:] == ["grüße", "plain"]
    assert mismatches(path) == []


def main(argv: list[str]) -> int:
    directory = argv[1] if len(argv) > 1 else LIBRARY_DIR
    paths = library_elves(directory)
    problems = []
    for path in paths:
        problems += mismatches(path)
    for problem in problems:
        print(problem)
    print(f"{len(paths)} ELF files in {directory}, {len(problems)} mismatches")
    return 1 if problems or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
