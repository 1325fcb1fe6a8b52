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


class X86_64Decoder:
    """Minimal x86-64 subset: enough for synthesized fixtures and smoke use."""

    def supports(self, machine_code: int) -> bool:
        return machine_code == EM_X86_64

    def decode(self, buf: bytes, offset: int, address: int) -> Optional[Decoded]:
        op = buf[offset]
        if op in _ONE_BYTE:
            return Decoded(1, _ONE_BYTE[op], "")
        if 0x50 <= op <= 0x57:
            return Decoded(1, "push", _REG64[op - 0x50])
        if 0x58 <= op <= 0x5F:
            return Decoded(1, "pop", _REG64[op - 0x58])
        if op == 0xC2 and offset + 3 <= len(buf):
            imm = int.from_bytes(buf[offset + 1 : offset + 3], "little")
            return Decoded(3, "ret", f"{imm:#x}")
        if op == 0xCD and offset + 2 <= len(buf):
            return Decoded(2, "int", f"{buf[offset + 1]:#x}")
        if 0xB8 <= op <= 0xBF and offset + 5 <= len(buf):
            imm = int.from_bytes(buf[offset + 1 : offset + 5], "little")
            return Decoded(5, "mov", f"{_REG32[op - 0xB8]}, {imm:#x}")
        if op == 0xEB and offset + 2 <= len(buf):
            rel = int.from_bytes(buf[offset + 1 : offset + 2], "little", signed=True)
            return Decoded(2, "jmp", f"{address + 2 + rel:#x}")
        if op in (0xE8, 0xE9) and offset + 5 <= len(buf):
            rel = int.from_bytes(buf[offset + 1 : offset + 5], "little", signed=True)
            mnemonic = "call" if op == 0xE8 else "jmp"
            return Decoded(5, mnemonic, f"{address + 5 + rel:#x}")
        if op == 0x31 and offset + 2 <= len(buf):
            modrm = buf[offset + 1]
            if modrm >> 6 == 0b11:
                return Decoded(2, "xor", f"{_REG32[modrm & 7]}, {_REG32[(modrm >> 3) & 7]}")
        if buf[offset : offset + 4] == b"\xf3\x0f\x1e\xfa":
            return Decoded(4, "endbr64", "")
        return None


DEFAULT_DECODER = X86_64Decoder()
