"""Independent answers from binutils `readelf`, parsed from its text output.

Nothing here goes through elfdb's parser, so the counts are a real
cross-check of what elfdb reports.
"""

from __future__ import annotations

import re
import shutil
import subprocess
from dataclasses import dataclass
from typing import Optional

_SECTION_LINE = re.compile(r"^\s*\[\s*(\d+)\]\s+(.*)$")
_DYNAMIC_VALUE = re.compile(r"\((RUNPATH|RPATH|SONAME|NEEDED)\)\s+[^\[]*\[(.*)\]\s*$")
_DYNSYM_HEADER = re.compile(r"Symbol table '\.dynsym' contains (\d+) entr")


class OracleError(Exception):
    """readelf is missing or printed something this parser does not know."""


def readelf() -> str:
    path = shutil.which("readelf")
    if path is None:
        raise OracleError("readelf not found on PATH")
    return path


@dataclass(frozen=True)
class FileFacts:
    """What readelf says about one file."""

    path: str
    size: int
    dynsym: int  # entries in .dynsym, null symbol included; 0 when absent
    symtab: int
    exec_bytes: int  # total size of executable sections that occupy file bytes
    soname: Optional[str]
    needed: tuple[str, ...]
    runpath: tuple[str, ...]  # RUNPATH entries, else RPATH entries

    @property
    def count_symbols(self) -> int:
        """The answer `analyses.count_symbols` must give."""
        return self.dynsym or self.symtab

    @property
    def all_symbols(self) -> int:
        return self.dynsym + self.symtab


def file_facts(path: str, size: int) -> FileFacts:
    out = subprocess.run(
        [readelf(), "-W", "-S", "-d", path], capture_output=True, text=True, check=True
    ).stdout
    counts = {"DYNSYM": 0, "SYMTAB": 0}
    exec_bytes = 0
    sections = 0
    for line in out.splitlines():
        m = _SECTION_LINE.match(line)
        if not m or int(m.group(1)) == 0:
            continue
        # Name Type Address Off Size ES [Flg] Lk Inf Al
        fields = m.group(2).split()
        if len(fields) not in (9, 10):
            raise OracleError(f"unexpected section line in {path}: {line!r}")
        sections += 1
        sh_type, size_hex, entsize_hex = fields[1], fields[4], fields[5]
        flags = fields[6] if len(fields) == 10 else ""
        if sh_type in counts:
            counts[sh_type] = int(size_hex, 16) // int(entsize_hex, 16)
        if "X" in flags and sh_type != "NOBITS":
            exec_bytes += int(size_hex, 16)
    if sections == 0:
        raise OracleError(f"readelf listed no sections for {path}")
    dynamic: dict[str, list[str]] = {"RUNPATH": [], "RPATH": [], "SONAME": [], "NEEDED": []}
    for line in out.splitlines():
        m = _DYNAMIC_VALUE.search(line)
        if m:
            dynamic[m.group(1)].append(m.group(2))
    paths = dynamic["RUNPATH"] or dynamic["RPATH"]
    runpath = tuple(p for p in paths[0].split(":") if p) if paths else ()
    return FileFacts(
        path=path,
        size=size,
        dynsym=counts["DYNSYM"],
        symtab=counts["SYMTAB"],
        exec_bytes=exec_bytes,
        soname=dynamic["SONAME"][0] if dynamic["SONAME"] else None,
        needed=tuple(dynamic["NEEDED"]),
        runpath=runpath,
    )


def dynsym_entries(path: str) -> int:
    """The entry count readelf --dyn-syms prints in its table header."""
    out = subprocess.run(
        [readelf(), "--dyn-syms", "-W", path], capture_output=True, text=True, check=True
    ).stdout
    m = _DYNSYM_HEADER.search(out)
    if m is None:
        raise OracleError(f"readelf --dyn-syms printed no .dynsym header for {path}")
    return int(m.group(1))
