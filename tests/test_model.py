import ctypes
import ctypes.util
import itertools
import os
import sqlite3
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elfdb import corpus, engine, model, reader
from elfdb.bench import SymbolSpec, write_elf
from elfdb.cxxabi import demangle
from elfdb.disasm import _ONE_BYTE, _REG32, _REG64, DEFAULT_DECODER, Decoded, X86_64Decoder
from elfdb.model import derive_export_import, section_name_for_symbol
from elfdb.reader import DataEncoding, ElfClass, SymbolTableKind, load_elf, render_code

from conftest import (
    RUBY_LIKE,
    SYSTEM_DIRS,
    append_sections,
    cxxfilt,
    exported_funcs,
    named_rows,
    readelf_dynamic,
    readelf_segments,
    readelf_symbol_tables,
    run_child,
    symbol_table,
    symbol_versions,
    system_elves,
    write_varied_elf,
)


def export_import(
    type_code=2,  # FUNC
    binding_code=1,  # GLOBAL
    visibility_code=0,  # DEFAULT
    shndx=1,
    kind=SymbolTableKind.DYNSYM,
) -> tuple[bool, bool]:
    return derive_export_import(binding_code << 4 | type_code, visibility_code, shndx, kind)


class TestExportImportPredicate:
    def test_defined_global_func_exports(self):
        assert export_import() == (True, False)

    def test_undefined_weak_notype_imports(self):
        # the classic __gmon_start__ shape from dynamic executables
        assert export_import(type_code=0, binding_code=2, shndx=0) == (False, True)

    def test_local_func_neither(self):
        assert export_import(binding_code=0) == (False, False)

    def test_hidden_visibility_not_exported(self):
        assert export_import(visibility_code=2) == (False, False)

    def test_undefined_in_symtab_not_imported(self):
        assert export_import(kind=SymbolTableKind.SYMTAB, shndx=0) == (False, False)

    def test_unique_binds_like_global(self):
        # STB_GNU_UNIQUE: glibc's dynamic linker binds it like a global
        assert export_import(type_code=1, binding_code=10) == (True, False)
        assert export_import(type_code=1, binding_code=10, shndx=0) == (False, True)

    @settings(max_examples=300)
    @given(
        type_code=st.integers(0, 15),
        binding_code=st.integers(0, 15),
        visibility_code=st.integers(0, 3),
        shndx=st.sampled_from([0, 1, 2, reader.SHN_ABS, reader.SHN_COMMON]),
        kind=st.sampled_from(list(SymbolTableKind)),
    )
    def test_never_both(self, type_code, binding_code, visibility_code, shndx, kind):
        exported, imported = export_import(type_code, binding_code, visibility_code, shndx, kind)
        assert not (exported and imported)
        if exported:
            assert shndx != reader.SHN_UNDEF
        if imported:
            assert shndx == reader.SHN_UNDEF


class TestSymbolRows:
    def test_interpreter_fixture_rows(self):
        obj = load_elf(RUBY_LIKE)
        rows = [r for r in named_rows("elf_symbols", obj) if r["table"] == ".dynsym"]
        assert len(rows) == 22
        run_node = next(r for r in rows if r["name"] == "ruby_run_node")
        assert run_node["type"] == "FUNC"
        assert run_node["binding"] == "GLOBAL"
        assert run_node["section"] == "SHN_UNDEF"
        assert (run_node["exported"], run_node["imported"]) == (0, 1)

    def test_null_only_object(self, make_elf):
        written = make_elf(symbols=[])
        rows = named_rows("elf_symbols", load_elf(written.path))
        assert len(rows) == 1
        assert rows[0]["name"] == ""
        assert (rows[0]["exported"], rows[0]["imported"]) == (0, 0)

    def test_three_defined_globals(self, make_elf):
        written = make_elf(symbols=exported_funcs("f1", "f2", "f3"))
        rows = named_rows("elf_symbols", load_elf(written.path))
        exported = [r for r in rows if r["exported"] == 1]
        assert sorted(r["name"] for r in exported) == ["f1", "f2", "f3"]
        assert all(r["section"] == ".text" for r in exported)
        assert len(rows) == 4

    def test_unique_object_is_exported(self, make_elf):
        unique = SymbolSpec(
            "_ZZN3app8instanceEvE1x", binding="GNU_UNIQUE", sym_type="OBJECT", section=".data"
        )
        rows = named_rows("elf_symbols", load_elf(make_elf(symbols=[unique]).path))
        row = next(r for r in rows if r["name"] == unique.name)
        assert (row["binding"], row["section"], row["exported"], row["imported"]) == (
            "GNU_UNIQUE", ".data", 1, 0
        )

    def test_order_is_table_then_index(self, make_elf):
        written = make_elf(
            symbols=exported_funcs("d1"), symtab_symbols=exported_funcs("s1")
        )
        rows = model.rows("elf_symbols", load_elf(written.path))
        assert [(r[1], r[2]) for r in rows] == [
            (".dynsym", 0),
            (".dynsym", 1),
            (".symtab", 0),
            (".symtab", 1),
        ]

    def test_counts_match_reader_per_table(self, make_elf):
        written = make_elf(
            symbols=exported_funcs("a", "b"),
            symtab_symbols=exported_funcs("c"),
        )
        obj = load_elf(written.path)
        rows = named_rows("elf_symbols", obj)
        for kind in SymbolTableKind:
            assert len([r for r in rows if r["table"] == kind.value]) == len(
                symbol_table(obj, kind)
            )

    def test_version_only_on_dynsym(self):
        obj = load_elf("/lib/x86_64-linux-gnu/libc.so.6")
        versioned = [r for r in named_rows("elf_symbols", obj) if r["version"] is not None]
        assert versioned
        assert all(r["table"] == ".dynsym" for r in versioned)

    def test_missing_version_is_none_in_the_row_and_null_in_sql(self, versioned_lib):
        path, versions = versioned_lib
        obj = load_elf(path)
        rows = [(r["table"], r["version"]) for r in named_rows("elf_symbols", obj)]
        want = [(".dynsym", v) for v in versions] + [(".symtab", None)] * 3
        assert rows == want
        assert "0" in versions and None in versions
        with engine.register(corpus.add_paths([path])) as session:
            stored = session.execute('SELECT "table", version FROM elf_symbols ORDER BY rowid').rows
        assert list(stored) == want


class TestDemangle:
    def test_plain_name_unchanged(self):
        assert demangle("main") == "main"

    def test_empty_unchanged(self):
        assert demangle("") == ""

    def test_simple_function(self):
        assert demangle("_Z3foov") == cxxfilt("_Z3foov") == "foo()"

    def test_against_cxxfilt_corpus(self):
        mangled = [
            "_Z3addii",
            "_ZN9namespace8functionEv",
            "_ZN3std6vectorIiEC1Ev",
            "_ZSt4cout",
            "_ZNK3Foo3barEi",
        ]
        for name in mangled:
            expected = cxxfilt(name)
            assert demangle(name) == expected

    def test_undecodable_returns_input(self):
        assert demangle("_Z") == "_Z"
        assert demangle("_Zxx$$bogus") == "_Zxx$$bogus"

    @settings(max_examples=100)
    @given(st.text(min_size=0, max_size=24).filter(lambda s: not s.startswith("_Z")))
    def test_non_mangled_is_identity(self, name):
        assert demangle(name) == name

    def test_embedded_nul_returns_input(self):
        assert demangle("_Z3foov\x00junk") == "_Z3foov\x00junk"

    @settings(max_examples=100)
    @given(st.text(max_size=24))
    @example("3foov\x00junk")
    @example("\x00")
    @example("\ud800")  # outside surrogateescape's range, so it does not encode
    def test_mangled_prefix_is_total(self, tail):
        name = "_Z" + tail
        out = demangle(name)
        assert isinstance(out, str)
        if "\0" in name:
            assert out == name


def _string_at_decoder(soname: str):
    """`__cxa_demangle` called with argtypes, a c_int status and string_at."""
    fn = ctypes.CDLL(soname).__cxa_demangle
    fn.restype = ctypes.c_void_p
    fn.argtypes = [ctypes.c_char_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int)]
    free = ctypes.CDLL(None).free
    free.argtypes = [ctypes.c_void_p]

    def decode(name):
        status = ctypes.c_int()
        buf = fn(name.encode("utf-8", "surrogateescape"), None, None, ctypes.byref(status))
        if not buf or status.value != 0:
            return None
        try:
            return ctypes.string_at(buf).decode("utf-8", "backslashreplace")
        finally:
            free(buf)

    return decode


@pytest.fixture(scope="module")
def libstdcxx_mangled_names():
    soname = ctypes.util.find_library("stdc++")
    paths = [os.path.join(root, soname) for root in SYSTEM_DIRS] if soname else []
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        pytest.skip("no C++ runtime found")
    names = sorted({n for n in load_elf(path).symbols if n.startswith("_Z")})
    assert len(names) > 1000
    return soname, names


class TestDecoderEquivalence:
    """`demangle` against the `string_at` oracle, which gives None where
    `demangle` returns the name."""

    def test_equal_to_string_at_decoder(self, libstdcxx_mangled_names):
        soname, names = libstdcxx_mangled_names
        oracle = _string_at_decoder(soname)
        assert [demangle(n) for n in names] == [oracle(n) or n for n in names]

    def test_two_threads_equal_one(self, libstdcxx_mangled_names):
        soname, names = libstdcxx_mangled_names
        oracle = _string_at_decoder(soname)
        single = [demangle(n) for n in names]
        assert single == [oracle(n) or n for n in names]
        barrier = threading.Barrier(2)

        def run(_):
            barrier.wait()
            return [demangle(n) for n in names]

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(run, range(2))) == [single, single]


def table_strings(content: bytes) -> list[tuple[int, str]]:
    """(offset, value) for each entry of one string table."""
    return list(zip(*reader._string_columns(content)))


class TestStringRows:
    def test_documented_example(self):
        table = b"\x00foo\x00bar\x00"
        assert table_strings(table) == [(0, ""), (1, "foo"), (5, "bar")]

    def test_empty_table(self):
        assert table_strings(b"") == []

    def test_unterminated_tail_dropped(self):
        assert table_strings(b"\x00ok\x00trailing") == [(0, ""), (1, "ok")]

    def test_rows_only_from_strtab_sections(self, make_elf):
        written = make_elf(symbols=exported_funcs("visible"))
        obj = load_elf(written.path)
        rows = named_rows("elf_strings", obj)
        strtab_names = {s.name for s in obj.sections if s.type_code == reader.SHT_STRTAB}
        assert {r["section"] for r in rows} <= strtab_names
        assert any(r["value"] == "visible" and r["section"] == ".dynstr" for r in rows)

    def test_offsets_index_original_bytes(self, make_elf):
        written = make_elf(symbols=exported_funcs("one", "two"), runpath="/opt/lib")
        obj = load_elf(written.path)
        by_name = {s.name: s for s in obj.sections}
        for _path, section, offset, value in model.rows("elf_strings", obj):
            content = by_name[section].content
            end = content.find(b"\x00", offset)
            assert content[offset:end].decode() == value
            assert "\x00" not in value

    @settings(max_examples=100)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=1, max_codepoint=127, exclude_characters="\x00"),
                max_size=8,
            ),
            max_size=6,
        )
    )
    def test_reconstruction_property(self, entries):
        table = b"\x00" + b"".join(e.encode() + b"\x00" for e in entries)
        got = table_strings(table)
        offsets = {0} | {
            i for i in range(1, len(table)) if table[i - 1] == 0 and i < len(table)
        }
        assert {o for o, _ in got} == offsets
        rebuilt = b"".join(v.encode() + b"\x00" for _, v in got)
        assert rebuilt == table


class TestInstructionRows:
    def test_single_ret(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"))
        obj = load_elf(written.path)
        text = obj.section_named(".text")
        want = [(obj.path, ".text", text.address, 1, "ret", "")]
        assert list(model.rows("elf_instructions", obj)) == want

    def test_empty_text_no_rows(self, make_elf):
        written = make_elf(symbols=[])
        assert list(model.rows("elf_instructions", load_elf(written.path))) == []

    def test_k_stub_fixture(self, make_elf):
        k = 9
        written = make_elf(symbols=exported_funcs(*[f"s{i}" for i in range(k)]))
        rows = named_rows("elf_instructions", load_elf(written.path))
        assert len(rows) == k
        assert {r["mnemonic"] for r in rows} == {"ret"}
        # linear sweep: addresses advance by emitted size
        for first, second in zip(rows, rows[1:]):
            assert second["address"] == first["address"] + first["size"]

    def test_bad_byte_emits_one_byte_row(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"))
        obj = load_elf(written.path)
        text = obj.section_named(".text")
        data = bytearray(Path(written.path).read_bytes())
        data[text.offset] = 0x06  # invalid in 64-bit mode
        obj2 = reader.open_elf(bytes(data), written.path)
        rows = named_rows("elf_instructions", obj2)
        assert rows[0]["mnemonic"] == "(bad)"
        assert rows[0]["size"] == 1

    def test_unsupported_machine_yields_nothing(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"), machine=40)  # ARM
        assert list(model.rows("elf_instructions", load_elf(written.path))) == []

    def test_decoder_subset(self, make_elf):
        code = bytes.fromhex("f30f1efa554889e5c3")  # endbr64; push rbp; rex mov; ret
        written = make_elf(symbols=[SymbolSpec("f", size=len(code))])
        obj = load_elf(written.path)
        text = obj.section_named(".text")
        data = bytearray(Path(written.path).read_bytes())
        data[text.offset : text.offset + len(code)] = code
        rows = named_rows("elf_instructions", reader.open_elf(bytes(data), written.path))
        assert [r["mnemonic"] for r in rows[:2]] == ["endbr64", "push"]
        assert rows[-1]["mnemonic"] == "ret"
        assert sum(r["size"] for r in rows) == len(code)


class TestHeaderAndSectionRows:
    def test_header_row_fields(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"))
        obj = load_elf(written.path)
        (row,) = named_rows("elf_headers", obj)
        assert row["file_type"] == "DYN"
        assert row["machine"] == "X86_64"
        assert row["class"] == "ELF64"
        assert row["data_encoding"] == "LSB"
        assert row["shnum"] == len(obj.sections)
        assert row["phnum"] == len(obj.segments)

    def test_section_rows_unique_index(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"))
        rows = named_rows("elf_sections", load_elf(written.path))
        keys = [(r["path"], r["index"]) for r in rows]
        assert len(keys) == len(set(keys))
        text = next(r for r in rows if r["name"] == ".text")
        assert "X" in text["flags"] and "A" in text["flags"]

    def test_segment_rows(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"), needed=["libx.so"])
        rows = named_rows("elf_segments", load_elf(written.path))
        types = [r["p_type"] for r in rows]
        assert "LOAD" in types and "DYNAMIC" in types
        load = next(r for r in rows if r["p_type"] == "LOAD")
        assert load["flags"] == "RX"
        assert load["filesz"] <= load["memsz"]

    def test_segment_flags_match_readelf(self):
        paths = system_elves()
        assert paths, "no system ELF files found"
        for path in paths:
            rows = named_rows("elf_segments", load_elf(path))
            assert [r["flags"] for r in rows] == [s[1] for s in readelf_segments(path)], path


def reference_symbol_rows(obj) -> list[tuple]:
    """The per-row derivation that the elf_symbols producer replaced, kept as the
    reference it must equal: one index of the table columns at a time.
    Each table's columns are read from the file once, before the loop."""
    rows = []
    for table in obj.symbol_tables:
        _, infos, others, shndxs, values, sizes, *_ = table.fields(0, len(table))
        names, versions = table.names, symbol_versions(table)
        for index in range(len(table)):
            name, info, other, shndx = names[index], infos[index], others[index], shndxs[index]
            exported, imported = derive_export_import(info, other, shndx, table.kind)
            version = versions[index][0] if versions else None
            rows.append(
                (
                    obj.path,
                    table.kind.value,
                    index,
                    name,
                    demangle(name),
                    section_name_for_symbol(obj, shndx),
                    render_code(info & 0xF, reader.SYMBOL_TYPE_NAMES),
                    render_code(info >> 4, reader.SYMBOL_BINDING_NAMES),
                    render_code(other & 0x3, reader.SYMBOL_VISIBILITY_NAMES),
                    model._db_int(values[index]),
                    model._db_int(sizes[index]),
                    version,
                    int(exported),
                    int(imported),
                )
            )
    return rows


def symtab_patched_to_dynsym(tmp_path) -> str:
    """A file whose .symtab header says SHT_DYNSYM: two tables of one kind."""
    path = write_varied_elf(str(tmp_path / "two_dynsym.so"), ElfClass.ELF64, DataEncoding.LSB)
    obj = load_elf(path)
    symtab = obj.section_named(".symtab")
    data = bytearray(Path(path).read_bytes())
    sh_type_at = obj.header.shoff + symtab.index * obj.header.shentsize + 4
    struct.pack_into("<I", data, sh_type_at, reader.SHT_DYNSYM)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def reference_inputs(tmp_path) -> list[str]:
    return [
        RUBY_LIKE,
        write_varied_elf(str(tmp_path / "msb32.so"), ElfClass.ELF32, DataEncoding.MSB),
        write_varied_elf(str(tmp_path / "lsb64.so"), ElfClass.ELF64, DataEncoding.LSB),
        symtab_patched_to_dynsym(tmp_path),
        *system_elves(limit=6),
    ]


class TestSymbolTuples:
    def test_equal_to_the_per_row_reference(self, tmp_path):
        for path in reference_inputs(tmp_path):
            obj = load_elf(path)
            assert list(model.rows("elf_symbols", obj)) == reference_symbol_rows(obj), path
            for table, producer in model.TABLE_PRODUCERS.items():
                produced = producer(obj)
                assert iter(produced) is produced, table

    def test_two_tables_of_one_kind_come_table_by_table(self, tmp_path):
        path = symtab_patched_to_dynsym(tmp_path)
        obj = load_elf(path)
        dynsym_count, symtab_count = 13, 5
        assert [len(t) for t in obj.symbol_tables] == [dynsym_count, symtab_count]
        keys = [(t[2], t[3]) for t in model.rows("elf_symbols", obj)]
        assert [index for index, _ in keys] == [*range(dynsym_count), *range(symtab_count)]
        listed = readelf_symbol_tables(path)
        assert [name for name, _ in listed] == [".dynsym", ".symtab"]
        assert keys == [(s.index, s.name) for _, table in listed for s in table]


def reference_table_strings(content: bytes) -> list[tuple[int, str]]:
    """The find loop that `_string_columns` replaced, kept as the
    reference it must equal."""
    rows = []
    pos = 0
    while pos < len(content):
        end = content.find(b"\x00", pos)
        if end < 0:
            break  # unterminated tail is not an entry
        rows.append((pos, reader.decode_bytes(content[pos:end])))
        pos = end + 1
    return rows


# Pieces that make string tables hard: NULs, bytes invalid as UTF-8,
# truncated and complete multi-byte sequences.
_STRING_PIECES = st.sampled_from(
    [b"\x00", b"\x00\x00", b"a", b"xyz", b"\xff", b"\x80", b"\xc3", b"\xe2\x82", "é€".encode()]
)


class TestStringTuples:
    @settings(max_examples=300)
    @given(st.one_of(st.binary(max_size=64), st.lists(_STRING_PIECES, max_size=16).map(b"".join)))
    def test_equal_to_the_find_loop(self, content):
        assert table_strings(content) == reference_table_strings(content)

    def test_files_equal_the_find_loop(self, tmp_path):
        for path in reference_inputs(tmp_path):
            obj = load_elf(path)
            want = [
                (obj.path, sec.name, offset, value)
                for sec in obj.sections
                if sec.type_code == reader.SHT_STRTAB
                for offset, value in reference_table_strings(sec.content)
            ]
            assert want, path
            assert list(model.rows("elf_strings", obj)) == want, path


class RuleScanDecoder(X86_64Decoder):
    """The rule scan that `X86_64Decoder.decode` replaced with its first-byte
    table, kept verbatim as the reference it must equal."""

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


RULE_SCAN = RuleScanDecoder()


def decoded_rows(obj, decoder) -> list[tuple]:
    """`model.rows` of elf_instructions, decoded by `decoder`."""
    producers = model.TABLE_PRODUCERS
    original = producers["elf_instructions"]
    producers["elf_instructions"] = partial(model.instruction_rows, decoder=decoder)
    try:
        return list(model.rows("elf_instructions", obj))
    finally:
        producers["elf_instructions"] = original


def reference_instruction_tuples(obj, decoder=RULE_SCAN) -> list[tuple]:
    """The per-row loop that the elf_instructions producer replaced, kept as the
    reference it must equal."""
    if decoder is None or not decoder.supports(obj.header.machine_code):
        return []
    rows = []
    for sec in obj.sections:
        if not sec.flags & reader.SHF_EXECINSTR or sec.type_code == reader.SHT_NOBITS:
            continue
        buf = sec.content
        offset = 0
        while offset < len(buf):
            address = sec.address + offset
            decoded = decoder.decode(buf, offset, address)
            if decoded is None:
                rows.append((obj.path, sec.name, model._db_int(address), 1, "(bad)", ""))
                offset += 1
            else:
                rows.append(
                    (
                        obj.path,
                        sec.name,
                        model._db_int(address),
                        decoded.size,
                        decoded.mnemonic,
                        decoded.operands,
                    )
                )
                offset += decoded.size
    return rows


# endbr64; push rbp; a byte invalid in 64-bit mode; mov eax, 1; jmp -2;
# xor eax, eax; a xor with a memory operand the decoder rejects; ret 8;
# int 0x80; nop; then a call cut off by the end of the section.
_CODE = bytes.fromhex("f30f1efa 55 06 b801000000 ebfe 31c0 3108 c20800 cd80 90 e80000")


def write_code_elf(path: str, text_address=None, machine=reader.EM_X86_64) -> str:
    """A file whose .text holds `_CODE`, optionally moved to `text_address`."""
    write_elf(path, symbols=[SymbolSpec("f", size=len(_CODE))], machine=machine)
    obj = load_elf(path)
    text = obj.section_named(".text")
    data = bytearray(Path(path).read_bytes())
    data[text.offset : text.offset + len(_CODE)] = _CODE
    if text_address is not None:
        sh_addr_at = obj.header.shoff + text.index * obj.header.shentsize + 16
        struct.pack_into("<Q", data, sh_addr_at, text_address)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


class TestInstructionTuples:
    def test_equal_to_the_per_row_loop(self, tmp_path):
        high = 2**63 - 4  # the sweep crosses into addresses stored negative
        inputs = [
            RUBY_LIKE,
            write_varied_elf(str(tmp_path / "msb32.so"), ElfClass.ELF32, DataEncoding.MSB),
            write_varied_elf(str(tmp_path / "lsb64.so"), ElfClass.ELF64, DataEncoding.LSB),
            write_code_elf(str(tmp_path / "code.so")),
            write_code_elf(str(tmp_path / "high.so"), text_address=high),
            write_code_elf(str(tmp_path / "arm.so"), machine=40),
        ]
        for path in inputs:
            obj = load_elf(path)
            for decoder in (DEFAULT_DECODER, None):
                want = reference_instruction_tuples(obj, decoder)
                assert decoded_rows(obj, decoder) == want, path
            assert list(model.rows("elf_instructions", obj)) == reference_instruction_tuples(obj)
        obj = load_elf(str(tmp_path / "high.so"))
        rows = named_rows("elf_instructions", obj)
        assert rows[0]["address"] == high
        assert all(
            b["address"] == model._db_int(a["address"] + a["size"]) for a, b in zip(rows, rows[1:])
        )
        assert [r["mnemonic"] for r in rows][-4:] == ["nop", "(bad)", "(bad)", "(bad)"]
        assert sum(r["mnemonic"] == "(bad)" for r in rows) == 6  # 06, the two of 31 08, the cut call
        assert rows[-1]["address"] < 0
        assert list(model.rows("elf_instructions", load_elf(str(tmp_path / "arm.so")))) == []

    def test_decode_set_on_the_default_decoder_runs_once_per_row(self, tmp_path):
        obj = load_elf(write_code_elf(str(tmp_path / "code.so")))
        calls = []
        original = DEFAULT_DECODER.decode

        def counting(buf, offset, address):
            calls.append(offset)
            return original(buf, offset, address)

        DEFAULT_DECODER.decode = counting
        try:
            blocks = list(model.TABLE_PRODUCERS["elf_instructions"](obj))
        finally:
            del DEFAULT_DECODER.decode
        # A block's first column holds the address of each of its rows.
        addresses = [address for _, columns in blocks for address in columns[0]]
        assert len(calls) == len(addresses) > 0
        assert calls == [a - obj.section_named(".text").address for a in addresses]

    def test_default_decoder_decode_is_read_at_call_time(self, tmp_path):
        # perfbench's tracer times decoding by setting `decode` on this instance.
        obj = load_elf(write_code_elf(str(tmp_path / "code.so")))
        try:
            for mnemonic in ("first", "second"):
                DEFAULT_DECODER.decode = lambda buf, offset, address, m=mnemonic: Decoded(1, m, "")
                rows = list(model.rows("elf_instructions", obj))
                assert rows and {r[4] for r in rows} == {mnemonic}
        finally:
            del DEFAULT_DECODER.decode
        assert list(model.rows("elf_instructions", obj)) == reference_instruction_tuples(obj)


def test_a_section_without_rows_shifts_no_key_number(tmp_path):
    """A string table or a code section that gives no rows gives no block,
    so its key row is never bound; the key rows of the sections after it
    keep their numbers, and every row names its own section."""
    path = write_code_elf(str(tmp_path / "gaps.so"))
    code = reader.SHF_ALLOC | reader.SHF_EXECINSTR
    append_sections(path, [
        (".empty_strings", reader.SHT_STRTAB, 0, 0, b"", 0, 0, 0),
        (".more_strings", reader.SHT_STRTAB, 0, 0, b"\0first\0second\0", 0, 0, 0),
        (".empty_text", reader.SHT_PROGBITS, code, 0x200000, b"", 0, 0, 0),
        (".more_text", reader.SHT_PROGBITS, code, 0x200000, bytes(reversed(_CODE)), 0, 0, 0),
    ])
    obj = load_elf(path)
    strtabs = [(s.name, s.size) for s in obj.sections if s.type_code == reader.SHT_STRTAB]
    assert [size > 0 for _, size in strtabs] == [True, True, False, True], strtabs
    code_sections = [(s.name, s.size) for s in obj.sections if s.flags & reader.SHF_EXECINSTR]
    assert code_sections == [(".text", len(_CODE)), (".empty_text", 0), (".more_text", len(_CODE))]
    strings = [
        (sec.name, offset, value)
        for sec in obj.sections if sec.type_code == reader.SHT_STRTAB
        for offsets, values in reader.string_entries(sec.view)
        for offset, value in zip(offsets, values)
    ]
    assert strings[-2:] == [(".more_strings", 1, "first"), (".more_strings", 7, "second")]
    instructions = [row[1:] for row in reference_instruction_tuples(obj, DEFAULT_DECODER)]
    assert {row[0] for row in instructions} == {".text", ".more_text"}
    with engine.register(corpus.add_paths([path])) as session:
        sql = 'SELECT section, "offset", value FROM elf_strings ORDER BY rowid'
        assert list(session.execute(sql).rows) == strings
        sql = "SELECT section, address, size, mnemonic, operands FROM elf_instructions ORDER BY rowid"
        assert list(session.execute(sql).rows) == instructions


# Bytes after a first byte that change a rule's outcome: none, a register
# and a memory ModRM for 0x31, endbr64's tail and near misses of it, and
# immediates with the sign bit set and clear.
_CONTINUATIONS = (
    b"",
    *(bytes([modrm]) for modrm in (0x00, 0x08, 0x3F, 0x40, 0x7F, 0x80, 0xBF)),
    *(bytes([modrm]) for modrm in range(0xC0, 0x100)),
    b"\x0f\x1e\xfa",
    b"\x0f\x1e\xfb",
    b"\x0f\x1e\xfa\x90",
    b"\x0f\x1f\xfa",
    b"\x0e\x1e\xfa",
    b"\x0f\x1e",
    b"\x00\x00\x00\x00",
    b"\xff\xff\xff\xff",
    b"\x00\x00\x00\x80",
    b"\x80\x00\x00\x00\x00",
    b"\xfe\xff\xff\x7f\xcc",
)


def assert_decodes_as_the_rule_scan(buf: bytes, base: int = 0x1000) -> None:
    addresses = range(base, base + len(buf))
    want = list(map(RULE_SCAN.decode, itertools.repeat(buf), range(len(buf)), addresses))
    got = list(map(DEFAULT_DECODER.decode, itertools.repeat(buf), range(len(buf)), addresses))
    if got != want:
        offset = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        raise AssertionError((buf[offset : offset + 8].hex(), offset, got[offset], want[offset]))


class TestFirstByteTable:
    def test_every_first_byte_and_continuation(self):
        for op in range(256):
            for tail in _CONTINUATIONS:
                for base in (0, 0x1000, 2**64 - 3):
                    assert_decodes_as_the_rule_scan(bytes([op]) + tail, base)

    def test_instructions_cut_short_at_the_section_end(self):
        # Each instruction of at least two bytes, cut 1-5 bytes short; the
        # earlier offsets of each buffer are cut further still.
        for whole in "c20800 cd80 b801000000 ebfe e8fbffffff e900000080 31c0 f30f1efa".split():
            code = bytes.fromhex(whole)
            for cut in range(1, 6):
                assert_decodes_as_the_rule_scan(code[: len(code) - cut])
                assert_decodes_as_the_rule_scan(b"\x90" + code[: len(code) - cut])

    @pytest.mark.parametrize("name", ["libz.so.1", "libc.so.6"])
    def test_exec_sections_of_system_libraries(self, name):
        path = os.path.join("/lib/x86_64-linux-gnu", name)
        if not os.path.isfile(path):
            pytest.skip(f"{path} is absent")
        obj = load_elf(path)
        sections = [
            s
            for s in obj.sections
            if s.flags & reader.SHF_EXECINSTR and s.type_code != reader.SHT_NOBITS
        ]
        assert sections, path
        for sec in sections:
            assert_decodes_as_the_rule_scan(sec.content, sec.address)


class TestSmallTableTuples:
    def test_columns_follow_the_schema(self, tmp_path):
        for path in reference_inputs(tmp_path):
            obj = load_elf(path)
            h = obj.header
            assert named_rows("elf_headers", obj) == [
                {
                    "path": obj.path, "file_type": h.file_type, "machine": h.machine,
                    "version": h.version, "entry_point": model._db_int(h.entry_point),
                    "class": h.ident.elf_class.name, "data_encoding": h.ident.data_encoding.name,
                    "os_abi": render_code(h.ident.os_abi, reader.OSABI_NAMES),
                    "phnum": len(obj.segments), "shnum": len(obj.sections),
                }
            ], path
            assert named_rows("elf_sections", obj) == [
                {
                    "path": obj.path, "index": s.index, "name": s.name,
                    "sh_type": reader.section_type_name(s.type_code, h.machine_code),
                    "flags": s.flag_letters, "address": model._db_int(s.address),
                    "offset": model._db_int(s.offset), "size": model._db_int(s.size), "link": s.link,
                    "info": s.info, "content": s.content,
                }
                for s in obj.sections
            ], path
            assert named_rows("elf_segments", obj) == [
                {
                    "path": obj.path, "index": s.index, "p_type": s.type_name,
                    "flags": s.flag_letters, "offset": s.offset,
                    "vaddr": model._db_int(s.vaddr), "filesz": s.filesz,
                    "memsz": model._db_int(s.memsz), "align": model._db_int(s.align),
                }
                for s in obj.segments
            ], path
            assert named_rows("elf_dynamic_entries", obj) == [
                {
                    "path": obj.path, "ordinal": e.ordinal, "tag": e.tag_name,
                    "value": model._db_int(e.value), "string": e.string,
                }
                for e in obj.dynamic
            ], path


_NULLABLE = {("elf_symbols", "version"), ("elf_dynamic_entries", "string")}
_STRING_TAGS = {"NEEDED", "SONAME", "RPATH", "RUNPATH"}


# The Python types a producer binds for each declared column type; a
# section's content is a view of the file, which SQLite stores as a BLOB.
_STORED = {str: (str,), int: (int,), bool: (int,), bytes: (memoryview,)}


def test_tuples_follow_the_schema(tmp_path):
    """Each row of `model.rows` has one value per SCHEMA column, each of the
    type SQLite stores for its column: integers signed 64-bit, flags 0 or 1.
    The table's producer gives those rows in blocks: each block's key rows
    hold a number and the key columns, and its columns are the table's own
    columns and the key number, of one length."""
    high = write_code_elf(str(tmp_path / "high.so"), text_address=2**64 - 16)
    filled = set()
    for path in [*reference_inputs(tmp_path), high]:
        obj = load_elf(path)
        for table, columns in model.SCHEMA.items():
            if table == "elf_instructions" and os.path.getsize(path) >= reader.MAP_THRESHOLD:
                continue  # libc.so.6 alone decodes to over a million rows
            rows = 0
            for row in model.rows(table, obj):
                filled.add(table)
                rows += 1
                assert len(row) == len(columns), (path, table)
                for (column, kind), value in zip(columns, row):
                    if value is None:
                        assert (table, column) in _NULLABLE, (path, table, column)
                        continue
                    assert type(value) in _STORED[kind], (path, table, column)
                    if kind is int:
                        assert -(2**63) <= value < 2**63, (path, table, column)
                    elif kind is bool:
                        assert value in (0, 1), (path, table, column)
                if table == "elf_dynamic_entries":
                    assert (row[4] is None) == (row[2] not in _STRING_TAGS), (path, row)
            record = model.TABLES[table]
            produced = 0
            for new_keys, columns in model.TABLE_PRODUCERS[table](obj):
                assert {len(key) for key in new_keys} <= {len(record.key_columns) + 1}, (path, table)
                assert len(columns) == len(record.own_columns) + 1, (path, table)
                assert {len(column) for column in columns} == {len(columns[0])}, (path, table)
                produced += len(columns[0])
            assert produced == rows, (path, table)
    assert filled == set(model.SCHEMA)
    text = next(t for t in model.rows("elf_sections", load_elf(high)) if t[2] == ".text")
    assert text[5] == -16  # the address 2**64 - 16, bit pattern kept


def test_dynamic_strings_match_readelf(tmp_path):
    """The stored `string` is readelf -d's bracketed value for every NEEDED,
    SONAME, RPATH and RUNPATH entry, and NULL for every other tag."""
    named = write_elf(
        str(tmp_path / "named.so"),
        symbols=exported_funcs("f"),
        needed=["liba.so.1", "libb.so.2"],
        soname="libnamed.so.1",
        rpath="$ORIGIN/../lib",
    ).path
    paths = [
        RUBY_LIKE,
        write_varied_elf(str(tmp_path / "msb32.so"), ElfClass.ELF32, DataEncoding.MSB),
        write_varied_elf(str(tmp_path / "lsb64.so"), ElfClass.ELF64, DataEncoding.LSB),
        named,
        *system_elves(limit=24),
    ]
    with engine.register(corpus.add_paths(paths)) as session:
        stored = session.execute(
            "SELECT path, tag, string FROM elf_dynamic_entries ORDER BY path, ordinal"
        ).rows
    checked = set()
    for path in paths:
        ours = [(tag, string) for p, tag, string in stored if p == os.path.realpath(path)]
        oracle = readelf_dynamic(path)
        assert len(ours) == len(oracle), path
        for (tag, string), (oracle_tag, text) in zip(ours, oracle):
            if oracle_tag in _STRING_TAGS:
                assert (tag, string) == (oracle_tag, text), path
                checked.add(tag)
            else:
                assert tag not in _STRING_TAGS and string is None, (path, tag)
    assert checked == _STRING_TAGS


def test_tlsdesc_tags_match_readelf(tmp_path):
    """DT_TLSDESC_PLT and DT_TLSDESC_GOT get the names readelf -d gives them."""
    path = write_elf(str(tmp_path / "tlsdesc.so"), symbols=exported_funcs("f")).path
    obj = load_elf(path)
    dynamic = obj.section_named(".dynamic")
    data = bytearray(Path(path).read_bytes())
    patched = {10: 0x6FFFFEF6, 11: 0x6FFFFEF7}  # DT_STRSZ and DT_SYMENT entries
    for e in obj.dynamic:
        if e.tag_code in patched:
            struct.pack_into("<Q", data, dynamic.offset + e.ordinal * 16, patched[e.tag_code])
    with open(path, "wb") as fh:
        fh.write(data)
    tags = [r["tag"] for r in named_rows("elf_dynamic_entries", load_elf(path))]
    assert tags == [tag for tag, _ in readelf_dynamic(path)]
    assert {"TLSDESC_PLT", "TLSDESC_GOT"} <= set(tags)


@pytest.fixture(scope="module")
def mutation_seeds(tmp_path_factory) -> list[bytes]:
    out = tmp_path_factory.mktemp("mutation_seeds")
    seeds = []
    for elf_class, encoding in ((ElfClass.ELF64, DataEncoding.LSB), (ElfClass.ELF32, DataEncoding.MSB)):
        path = write_varied_elf(str(out / f"{elf_class.name}-{encoding.name}.so"), elf_class, encoding)
        with open(path, "rb") as fh:
            seeds.append(fh.read())
    return seeds


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 1),
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=8),
)
# Section 0's sh_offset (bytes 1016-1023 of the ELF64-LSB seed) set to 2**63 + 1.
@example(seed=0, edits=[(1016, 0x01), (1023, 0x80)])
def test_byte_mutations_raise_only_elf_errors(mutation_seeds, seed, edits):
    """Mutated bytes either fail the parse with an ElfError or give rows
    SQLite stores: the fill's insert stores every row of `model.rows` of a
    file the parse accepted, and raises nothing."""
    data = bytearray(mutation_seeds[seed])
    for position, byte in edits:
        data[position % len(data)] = byte
    try:
        obj = reader.open_elf(bytes(data), "/mutated.so")
    except reader.ElfError:
        return
    db = sqlite3.connect(":memory:")
    try:
        for table, record in model.TABLES.items():
            sql = engine._statements(record)
            db.execute(sql.create)
            db.execute(sql.create_keys)
            engine._insert(db, record, obj)
            stored = db.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]
            assert stored == sum(1 for _ in model.rows(table, obj)), table
            db.execute(f"DROP TABLE {engine._KEYS_TABLE}")
    finally:
        db.close()


@pytest.mark.parametrize(
    "layout", [(ElfClass.ELF64, DataEncoding.LSB), (ElfClass.ELF32, DataEncoding.MSB)],
    ids=["lsb64", "msb32"],
)
@pytest.mark.parametrize("piece", [1, 2, 7, 64])
def test_string_rows_in_pieces_equal_whole_tables(tmp_path, monkeypatch, layout, piece):
    """Split into pieces of any size, an entry longer than a piece included,
    string tables give the rows of one split of each whole table."""
    path = write_varied_elf(str(tmp_path / "varied.so"), *layout)
    obj = load_elf(path)
    whole = [
        (model.path_text(path), sec.name, *entry)
        for sec in obj.sections if sec.type_code == reader.SHT_STRTAB
        for entry in zip(*reader._string_columns(sec.content))
    ]
    monkeypatch.setattr(reader, "_STRING_PIECE", piece)
    assert list(model.rows("elf_strings", obj)) == whole


class TestBoundedMemory:
    """A catalog keeps no per-symbol values, and a fill derives symbol rows
    and string entries in bounded pieces."""

    @pytest.fixture(scope="class")
    def traced(self, symbols_1e5):
        script = """
            import sys, tracemalloc
            from elfdb import corpus, model, reader

            tracemalloc.start()
            catalog = corpus.add_paths([sys.argv[1]])
            held = tracemalloc.get_traced_memory()[0]
            obj = reader.load_elf(sys.argv[1])
            peaks = []
            for table in ("elf_symbols", "elf_strings"):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                rows = sum(1 for _ in model.rows(table, obj))
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            print([held, *peaks, obj.section_named(".dynstr").size])
        """
        return run_child(script, symbols_1e5)

    def test_a_catalog_holds_no_symbol_columns(self, traced):
        held, _symbols, _strings, _dynstr = traced
        # The parent commit's catalog of this file held 13.6 MB: every
        # symbol's name and fields.
        assert held < 1_000_000

    def test_a_symbol_fill_holds_one_chunk_and_one_string_table(self, traced):
        _held, peak, _strings, dynstr = traced
        # One copy of .dynstr (1.3 MB of 13-byte names) and one block's
        # columns: 1,024 records, each with a name (about 64 B), about ten
        # list slots (80 B) and up to three ints past the small-int cache
        # (96 B), about 0.25 MB, here allowed eight times that.  Deriving
        # all 1e5 records at once held 18.6 MB.
        assert peak < dynstr + 2_000_000

    def test_a_string_fill_holds_one_piece(self, traced):
        _held, _symbols, peak, dynstr = traced
        # A piece of 32 KiB is copied, split into about 2,500 entries of 13
        # bytes (about 60 B each, list slots included), given their offsets
        # and numbered: well under 1 MB.  One split of the whole .dynstr took
        # 9.5 MB.
        assert dynstr > 1_000_000
        assert peak < 1_000_000
