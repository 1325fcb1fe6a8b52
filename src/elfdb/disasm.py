"""Pluggable instruction decoding for the elf_instructions table.

Decoders are linear-sweep: given a buffer and an offset they return the
instruction there, or None when the bytes do not decode (the caller emits a
one-byte "(bad)" row and resumes).  The baseline ships a deliberately small
x86-64 subset; unknown machines simply produce no rows.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Protocol

from .reader import EM_X86_64


class Decoded(NamedTuple):
    size: int
    mnemonic: str
    operands: str


class InstructionDecoder(Protocol):
    def supports(self, machine_code: int) -> bool: ...

    def decode(self, buf: bytes, offset: int, address: int) -> Optional[Decoded]: ...


_REG64 = ("rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi")
_REG32 = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")

_ONE_BYTE = {
    0x90: "nop",
    0xC3: "ret",
    0xC9: "leave",
    0xCB: "retf",
    0xCC: "int3",
    0xF4: "hlt",
    0xF5: "cmc",
    0xF8: "clc",
    0xF9: "stc",
    0xFA: "cli",
    0xFB: "sti",
    0xFC: "cld",
    0xFD: "std",
    0x98: "cwtl",
    0x99: "cltd",
}

# Instructions that read bytes past the first: each takes decode's arguments
# and returns None when the section ends before the instruction does.


def _ret_imm16(buf: bytes, offset: int, address: int) -> Optional[Decoded]:
    if offset + 3 <= len(buf):
        imm = int.from_bytes(buf[offset + 1 : offset + 3], "little")
        return Decoded(3, "ret", f"{imm:#x}")
    return None


def _int_imm8(buf: bytes, offset: int, address: int) -> Optional[Decoded]:
    if offset + 2 <= len(buf):
        return Decoded(2, "int", f"{buf[offset + 1]:#x}")
    return None


def _mov_imm32(buf: bytes, offset: int, address: int) -> Optional[Decoded]:
    if offset + 5 <= len(buf):
        imm = int.from_bytes(buf[offset + 1 : offset + 5], "little")
        return Decoded(5, "mov", f"{_REG32[buf[offset] - 0xB8]}, {imm:#x}")
    return None


def _jmp_rel8(buf: bytes, offset: int, address: int) -> Optional[Decoded]:
    if offset + 2 <= len(buf):
        rel = int.from_bytes(buf[offset + 1 : offset + 2], "little", signed=True)
        return Decoded(2, "jmp", f"{address + 2 + rel:#x}")
    return None


def _rel32(buf: bytes, offset: int, address: int) -> Optional[Decoded]:
    if offset + 5 <= len(buf):
        rel = int.from_bytes(buf[offset + 1 : offset + 5], "little", signed=True)
        mnemonic = "call" if buf[offset] == 0xE8 else "jmp"
        return Decoded(5, mnemonic, f"{address + 5 + rel:#x}")
    return None


def _xor(buf: bytes, offset: int, address: int) -> Optional[Decoded]:
    if offset + 2 <= len(buf):
        modrm = buf[offset + 1]
        if modrm >= 0xC0:  # two registers; a memory operand is not decoded
            return Decoded(2, "xor", f"{_REG32[modrm & 7]}, {_REG32[(modrm >> 3) & 7]}")
    return None


_ENDBR64 = Decoded(4, "endbr64", "")


def _endbr64(buf: bytes, offset: int, address: int) -> Optional[Decoded]:
    return _ENDBR64 if buf[offset + 1 : offset + 4] == b"\x0f\x1e\xfa" else None


def _first_byte_table() -> tuple:
    """What `decode` does for each first byte: a shared row for a one-byte
    instruction, a function for one that reads more bytes, None for a byte
    that starts no instruction of the subset."""
    table: list = [None] * 256
    for op, mnemonic in _ONE_BYTE.items():
        table[op] = Decoded(1, mnemonic, "")
    for i, register in enumerate(_REG64):
        table[0x50 + i] = Decoded(1, "push", register)
        table[0x58 + i] = Decoded(1, "pop", register)
    table[0xB8:0xC0] = [_mov_imm32] * 8
    table[0xC2] = _ret_imm16
    table[0xCD] = _int_imm8
    table[0xEB] = _jmp_rel8
    table[0xE8] = table[0xE9] = _rel32
    table[0x31] = _xor
    table[0xF3] = _endbr64
    return tuple(table)


_FIRST_BYTE = _first_byte_table()


class X86_64Decoder:
    """Minimal x86-64 subset: enough for synthesized fixtures and smoke use.

    `decode` is one lookup of the first byte in `_FIRST_BYTE`."""

    def supports(self, machine_code: int) -> bool:
        return machine_code == EM_X86_64

    def decode(self, buf: bytes, offset: int, address: int) -> Optional[Decoded]:
        entry = _FIRST_BYTE[buf[offset]]
        if entry is None or entry.__class__ is Decoded:
            return entry
        return entry(buf, offset, address)


DEFAULT_DECODER = X86_64Decoder()
