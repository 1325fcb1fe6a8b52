"""This tree's `reader.open_elf` against another tree's, on mutated files.

Makes N byte-mutated copies of ELF files of at most 4 MiB from the library
directory and /usr/bin, parses each copy with both trees' readers, each in
a child process of its own, and counts by mutation kind the outcomes that
are equal and those that differ:

    python tests/reader_differential.py PARENT_SRC N [--seed S]

PARENT_SRC is the `src` directory of the other tree, such as a checkout of
the parent commit.  Each copy has one mutation, of one of these kinds:

* ELF header: a byte, or e_phoff, e_shoff, e_phnum, e_shnum, e_shstrndx,
  the entry sizes or the class and data bytes set to a boundary value;
* section header and program header: likewise, of one header;
* .dynamic entry: a byte, d_tag or d_val of an entry of the first
  PT_DYNAMIC segment, up to DT_NULL;
* DT_STRTAB/DT_STRSZ: a byte of the value of one of those entries, or the
  value set to a boundary;
* version records: a byte, halfword or word of a `.gnu.version`,
  `.gnu.version_r` or `.gnu.version_d` section;
* st_name: the name offset of one symbol set to a boundary, its string
  table's size among them.

A boundary value is 0, 1, the old value plus or minus 1, twice and half the
old value, the file size plus or minus 1, or the field's largest unsigned
or signed value.

An outcome is the ElfError's type and message, or, for a parsed copy, a
digest of each part of the object: the header, the sections (each with a
digest of its bytes), the segments, .dynamic, each symbol table's
`fields`, names and version map, and the `elf_strings` rows that
`model.rows` splits from it.
Every differing case is listed.  The exit status is 1 when an exception
other than ElfError escapes either reader, or either takes more than
TIME_BOUND seconds on a case; differing outcomes alone exit 0, as a change
to the reader may mean to change them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

DIRECTORIES = ("/usr/lib/x86_64-linux-gnu", "/usr/bin")
MAX_FILE_SIZE = 4 << 20
# Seconds either reader may take on one case.
TIME_BOUND = 10.0
THIS_SRC = Path(__file__).resolve().parents[1] / "src"

# A child process that imports the reader of the tree in argv[1], then
# reads file paths, one a line, and writes each one's outcome as a JSON line.
WORKER = r"""
import hashlib, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from elfdb import model, reader

def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]

def parts(obj):
    sections = [tuple(s[:-1]) + (hashlib.sha256(s.view).hexdigest(),) for s in obj.sections]
    tables = [
        (t.kind, t.names, t.fields(0, len(t)), sorted(t.version_of.items()))
        for t in obj.symbol_tables
    ]
    return {
        "header": digest(obj.header), "sections": digest(sections),
        "segments": digest(obj.segments), "dynamic": digest(obj.dynamic),
        "symbols": digest(tables), "strings": digest(list(model.rows("elf_strings", obj))),
    }

for line in sys.stdin:
    path = line.rstrip("\n")
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        outcome = ["parsed", parts(reader.open_elf(data, path))]
    except reader.ElfError as exc:
        outcome = [type(exc).__name__, str(exc)]
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        outcome = ["escaped", f"{type(exc).__name__}: {exc} at {where.filename}:{where.lineno}"]
    print(json.dumps(outcome), flush=True)
"""

# (offset, width) of each field that a mutation sets whole, in an ELF32
# record and in an ELF64 record.
EHDR_FIELDS = {
    "EI_CLASS": ((4, 1), (4, 1)),
    "EI_DATA": ((5, 1), (5, 1)),
    "e_phoff": ((28, 4), (32, 8)),
    "e_shoff": ((32, 4), (40, 8)),
    "e_phentsize": ((42, 2), (54, 2)),
    "e_phnum": ((44, 2), (56, 2)),
    "e_shentsize": ((46, 2), (58, 2)),
    "e_shnum": ((48, 2), (60, 2)),
    "e_shstrndx": ((50, 2), (62, 2)),
}
SHDR_FIELDS = {
    "sh_name": ((0, 4), (0, 4)),
    "sh_type": ((4, 4), (4, 4)),
    "sh_offset": ((16, 4), (24, 8)),
    "sh_size": ((20, 4), (32, 8)),
    "sh_link": ((24, 4), (40, 4)),
    "sh_info": ((28, 4), (44, 4)),
    "sh_entsize": ((36, 4), (56, 8)),
}
PHDR_FIELDS = {
    "p_type": ((0, 4), (0, 4)),
    "p_offset": ((4, 4), (8, 8)),
    "p_vaddr": ((8, 4), (16, 8)),
    "p_filesz": ((16, 4), (32, 8)),
    "p_memsz": ((20, 4), (40, 8)),
}
DYN_FIELDS = {"d_tag": ((0, 4), (0, 8)), "d_val": ((4, 4), (8, 8))}

SHT_SYMTAB, SHT_DYNSYM = 2, 11
VERSION_SECTION_TYPES = (0x6FFFFFFD, 0x6FFFFFFE, 0x6FFFFFFF)
PT_DYNAMIC = 2
DT_NULL, DT_STRTAB, DT_STRSZ = 0, 5, 10


class Target(NamedTuple):
    """Bytes a mutation may change: a random byte of [start, start + length),
    or one of `fields`, (name, offset from start, width), set whole."""

    label: str
    start: int
    length: int
    fields: list[tuple[str, int, int]]
    # More values a field set whole may take, beside the boundaries.
    extra: tuple[int, ...] = ()


class Elf(NamedTuple):
    """What the mutations need of a file, read with no help from elfdb."""

    is64: bool
    order: str
    # The fields of EHDR_FIELDS.
    ehdr: dict[str, int]
    # (header offset, sh_type, sh_offset, sh_size, sh_link) of each section.
    sections: list[tuple[int, int, int, int, int]]
    # (header offset, p_type, p_offset, p_filesz) of each segment.
    segments: list[tuple[int, int, int, int]]


def _fields(elf: Elf, table: dict) -> list[tuple[str, int, int]]:
    return [(name, *spans[elf.is64]) for name, spans in table.items()]


def _uint(data: bytes, elf: Elf, at: int, width: int) -> int:
    return int.from_bytes(data[at : at + width], elf.order)


def layout(data: bytes) -> Elf | None:
    """The headers of `data`, or None when they do not fit in it."""
    if len(data) < 64 or data[:4] != b"\x7fELF" or data[4] not in (1, 2) or data[5] not in (1, 2):
        return None
    elf = Elf(data[4] == 2, "little" if data[5] == 1 else "big", {}, [], [])
    ehdr = elf.ehdr
    ehdr.update((name, _uint(data, elf, at, width)) for name, at, width in _fields(elf, EHDR_FIELDS))
    for i in range(ehdr["e_shnum"] if ehdr["e_shoff"] else 0):
        at = ehdr["e_shoff"] + i * ehdr["e_shentsize"]
        if at + ehdr["e_shentsize"] > len(data):
            return None
        shdr = {name: _uint(data, elf, at + o, w) for name, o, w in _fields(elf, SHDR_FIELDS)}
        elf.sections.append((at, shdr["sh_type"], shdr["sh_offset"], shdr["sh_size"], shdr["sh_link"]))
    for i in range(ehdr["e_phnum"] if ehdr["e_phoff"] else 0):
        at = ehdr["e_phoff"] + i * ehdr["e_phentsize"]
        if at + ehdr["e_phentsize"] > len(data):
            return None
        phdr = {name: _uint(data, elf, at + o, w) for name, o, w in _fields(elf, PHDR_FIELDS)}
        elf.segments.append((at, phdr["p_type"], phdr["p_offset"], phdr["p_filesz"]))
    return elf


def _dynamic_entries(data: bytes, elf: Elf) -> list[tuple[int, int]]:
    """(offset, d_tag) of the entries of the first PT_DYNAMIC, to DT_NULL."""
    seg = next((s for s in elf.segments if s[1] == PT_DYNAMIC), None)
    if seg is None:
        return []
    size = 16 if elf.is64 else 8
    entries = []
    for at in range(seg[2], min(seg[2] + seg[3], len(data)) - size + 1, size):
        entries.append((at, _uint(data, elf, at, size // 2)))
        if entries[-1][1] == DT_NULL:
            break
    return entries


def targets(data: bytes, elf: Elf) -> dict[str, list[Target]]:
    """The targets of each mutation kind that `data` has."""
    dyn_size = 16 if elf.is64 else 8
    dynamic = _dynamic_entries(data, elf)
    value_at, value_width = DYN_FIELDS["d_val"][elf.is64]
    kinds = {
        "ELF header": [Target("ELF header", 4, (64 if elf.is64 else 52) - 4, _fields(elf, EHDR_FIELDS))],
        "section header": [
            Target(f"section header {i}", at, elf.ehdr["e_shentsize"], _fields(elf, SHDR_FIELDS))
            for i, (at, *_) in enumerate(elf.sections)
        ],
        "program header": [
            Target(f"program header {i}", at, elf.ehdr["e_phentsize"], _fields(elf, PHDR_FIELDS))
            for i, (at, *_) in enumerate(elf.segments)
        ],
        ".dynamic entry": [
            Target(f".dynamic entry {i}", at, dyn_size, _fields(elf, DYN_FIELDS))
            for i, (at, _) in enumerate(dynamic)
        ],
        "DT_STRTAB/DT_STRSZ": [
            Target(f"{'DT_STRTAB' if tag == DT_STRTAB else 'DT_STRSZ'} value", at + value_at,
                   value_width, [("d_val", 0, value_width)])
            for at, tag in dynamic
            if tag in (DT_STRTAB, DT_STRSZ)
        ],
        "version records": [
            Target(f"version section {i}", offset, size,
                   [(f"+{o:#x}", o, w) for w in (2, 4) for o in range(0, size - w + 1, w)])
            for i, (_, type_code, offset, size, _) in enumerate(elf.sections)
            if type_code in VERSION_SECTION_TYPES and 0 < size and offset + size <= len(data)
        ],
        "st_name": [],
    }
    for i, (_, type_code, offset, size, link) in enumerate(elf.sections):
        if type_code in (SHT_SYMTAB, SHT_DYNSYM) and offset + size <= len(data) and link < len(elf.sections):
            strtab_size = elf.sections[link][3]
            entsize = 24 if elf.is64 else 16
            kinds["st_name"] += [
                Target(f"section {i} symbol {j} st_name", offset + j * entsize, 4, [("st_name", 0, 4)],
                       (strtab_size - 1, strtab_size, strtab_size + 1))
                for j in range(size // entsize)
            ]
    return {kind: found for kind, found in kinds.items() if found}


def boundaries(old: int, width: int, file_size: int, extra: tuple[int, ...]) -> list[int]:
    top = (1 << 8 * width) - 1
    values = {0, 1, old - 1, old + 1, old * 2, old // 2, file_size - 1, file_size, file_size + 1}
    values |= {top, top >> 1, *extra}
    return sorted({v & top for v in values} - {old})


def mutate(data: bytes, elf: Elf, target: Target, rng: random.Random) -> tuple[bytearray, str]:
    """A copy of `data` with one mutation of `target`, and its description."""
    copy = bytearray(data)
    if rng.random() < 0.5:
        at = target.start + rng.randrange(target.length)
        copy[at] = rng.choice([b for b in range(256) if b != data[at]])
        return copy, f"{target.label}: byte {at:#x} {data[at]:#x} -> {copy[at]:#x}"
    name, offset, width = rng.choice(target.fields)
    at = target.start + offset
    old = _uint(data, elf, at, width)
    new = rng.choice(boundaries(old, width, len(data), target.extra))
    copy[at : at + width] = new.to_bytes(width, elf.order)
    return copy, f"{target.label}: {name} {old:#x} -> {new:#x}"


def elf_files() -> list[str]:
    """The regular ELF files of at most MAX_FILE_SIZE bytes in DIRECTORIES,
    symlinks left out, in sorted order."""
    found = []
    for directory in DIRECTORIES:
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if os.path.islink(path) or not os.path.isfile(path):
                continue
            if os.path.getsize(path) > MAX_FILE_SIZE:
                continue
            try:
                with open(path, "rb") as fh:
                    if fh.read(4) == b"\x7fELF":
                        found.append(path)
            except OSError:
                continue
    return found


class Reader:
    """A child process that parses files with one tree's reader."""

    def __init__(self, src: str):
        self.src = src
        self.proc = self._start()

    def _start(self) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-c", WORKER, self.src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": ""},
        )

    def send(self, path: str) -> None:
        self.proc.stdin.write(path.encode() + b"\n")
        self.proc.stdin.flush()

    def outcome(self, deadline: float) -> list:
        """The outcome of the path last sent; a timeout at `deadline`, a
        monotonic time, kills the child, and a new one is started."""
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline() if ready else b""
        if line:
            return json.loads(line)
        timed_out = not ready
        self.close()
        self.proc = self._start()
        return ["timeout", f"over {TIME_BOUND} s"] if timed_out else ["escaped", "the child process died"]

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _short(outcome: list) -> str:
    kind, detail = outcome
    if kind == "parsed":
        return "parsed"
    return f"{kind}: {detail}"


def _describe(this: list, parent: list) -> str:
    if this[0] == parent[0] == "parsed":
        parts = [part for part in this[1] if this[1][part] != parent[1].get(part)]
        return f"both parsed; differing parts: {', '.join(parts)}"
    return f"this: {_short(this)} | parent: {_short(parent)}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="the src directory of the tree to compare with")
    parser.add_argument("n", type=int, help="the number of mutated copies")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv[1:])
    rng = random.Random(args.seed)
    files = elf_files()
    if not files:
        print(f"no ELF files of at most {MAX_FILE_SIZE} bytes in {', '.join(DIRECTORIES)}")
        return 1
    print(f"{THIS_SRC} against {args.parent_src}: {args.n} cases from {len(files)} files, seed {args.seed}")
    counts: dict[str, Counter] = {}
    differing, failures = [], []
    readers = Reader(str(THIS_SRC)), Reader(args.parent_src)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            case_path = os.path.join(scratch, "case.elf")
            done = 0
            while done < args.n:
                path = rng.choice(files)
                data = Path(path).read_bytes()
                elf = layout(data)
                kinds = targets(data, elf) if elf else {}
                if not kinds:
                    files.remove(path)
                    if not files:
                        break
                    continue
                kind = rng.choice(sorted(kinds))
                copy, mutation = mutate(data, elf, rng.choice(kinds[kind]), rng)
                Path(case_path).write_bytes(copy)
                for r in readers:
                    r.send(case_path)
                deadline = time.monotonic() + TIME_BOUND
                this, parent = (r.outcome(deadline) for r in readers)
                done += 1
                case = f"{path} {mutation}"
                tally = counts.setdefault(kind, Counter())
                tally["cases"] += 1
                tally["equal" if this == parent else "differ"] += 1
                tally["this refused"] += this[0] != "parsed"
                tally["parent refused"] += parent[0] != "parsed"
                if this != parent:
                    differing.append(f"{kind}: {case}: {_describe(this, parent)}")
                for side, outcome in (("this", this), ("parent", parent)):
                    if outcome[0] in ("escaped", "timeout"):
                        failures.append(f"{side} {outcome[0]}: {case}: {outcome[1]}")
    finally:
        for r in readers:
            r.close()

    columns = ("cases", "equal", "differ", "this refused", "parent refused")
    print(f"{'mutation kind':<20}" + "".join(f"{c:>16}" for c in columns))
    total: Counter = Counter()
    for kind, tally in sorted(counts.items()):
        total += tally
        print(f"{kind:<20}" + "".join(f"{tally[c]:>16}" for c in columns))
    print(f"{'total':<20}" + "".join(f"{total[c]:>16}" for c in columns))
    for line in differing:
        print("differs:", line)
    for line in failures:
        print("FAILED:", line)
    print(f"{total['cases']} cases: {total['equal']} equal, {total['differ']} differ, "
          f"{len(failures)} escaped or timed out")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
