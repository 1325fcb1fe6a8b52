import errno
import mmap
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfdb import bench, model, reader
from elfdb.bench import SymbolSpec, write_elf
from elfdb.corpus import add_paths, resolve_recursive
from elfdb.reader import (
    DataEncoding,
    ElfClass,
    Malformed,
    NotElf,
    SymbolTableKind,
    load_elf,
    needed_libraries,
    open_elf,
)

from conftest import (
    RUBY_LIKE,
    SYSTEM_DIRS,
    add_symbol_versions,
    exported_funcs,
    readelf_dynamic,
    readelf_symbol_tables,
    readelf_table_counts,
    symbol_table,
    symbol_versions,
    system_elves,
    write_varied_elf,
)


class TestIdentAndHeader:
    def test_rejects_missing_magic(self):
        with pytest.raises(NotElf):
            open_elf(b"\x00asdf", "/x")
        with pytest.raises(NotElf):
            open_elf(b"", "/x")

    def test_magic_only_is_truncated(self):
        with pytest.raises(Malformed, match="truncated header"):
            open_elf(b"\x7fELF", "/x")

    def test_truncated_after_ident(self):
        with pytest.raises(Malformed, match="truncated header"):
            open_elf(b"\x7fELF" + bytes([1, 1, 1]) + bytes(9) + b"\x01", "/x")

    def test_bad_class_byte(self):
        data = b"\x7fELF" + bytes([9, 1]) + bytes(10)
        with pytest.raises(Malformed):
            open_elf(data, "/x")

    def test_interpreter_style_fixture(self):
        obj = load_elf(RUBY_LIKE)
        assert obj.header.file_type in ("DYN", "EXEC")
        assert len(symbol_table(obj, SymbolTableKind.DYNSYM)) == 22

    def test_out_of_range_shstrndx(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"))
        data = bytearray(Path(written.path).read_bytes())
        # e_shstrndx is the last halfword of the 64-bit ELF header
        struct.pack_into("<H", data, 62, 200)
        with pytest.raises(Malformed, match="shstrndx"):
            open_elf(bytes(data), "/x")

    def test_truncated_section_table(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"))
        data = Path(written.path).read_bytes()
        with pytest.raises(Malformed, match="out of bounds"):
            open_elf(data[:-10], "/x")


class TestRoundTrip:
    def test_written_names_parse_back_exactly_once(self, make_elf):
        names = [f"fn_{i}" for i in range(17)]
        written = make_elf(symbols=exported_funcs(*names))
        obj = load_elf(written.path)
        parsed = symbol_table(obj, SymbolTableKind.DYNSYM).names
        assert parsed.count("") == 1  # null symbol only
        for name in names:
            assert parsed.count(name) == 1

    def test_readelf_agrees_on_counts(self, make_elf):
        written = make_elf(
            symbols=exported_funcs("a", "b", "c"),
            symtab_symbols=[SymbolSpec("local_helper", binding="LOCAL")],
        )
        counts = readelf_table_counts(written.path)
        obj = load_elf(written.path)
        assert counts[".dynsym"] == len(symbol_table(obj, SymbolTableKind.DYNSYM)) == 4
        assert counts[".symtab"] == len(symbol_table(obj, SymbolTableKind.SYMTAB)) == 2

    @pytest.mark.parametrize(
        "elf_class,encoding,machine",
        [
            (ElfClass.ELF32, DataEncoding.LSB, 3),
            (ElfClass.ELF32, DataEncoding.MSB, 20),
            (ElfClass.ELF64, DataEncoding.MSB, 22),
        ],
    )
    def test_other_classes_and_endians(self, make_elf, elf_class, encoding, machine):
        written = make_elf(
            symbols=exported_funcs("alpha", "beta"),
            needed=["libz.so.1"],
            elf_class=elf_class,
            encoding=encoding,
            machine=machine,
        )
        obj = load_elf(written.path)
        assert obj.header.ident.elf_class == elf_class
        assert obj.header.ident.data_encoding == encoding
        assert symbol_table(obj, SymbolTableKind.DYNSYM).names == ("", "alpha", "beta")
        assert needed_libraries(obj) == ["libz.so.1"]
        assert readelf_table_counts(written.path)[".dynsym"] == 3

    def test_determinism(self, make_elf):
        written = make_elf(symbols=exported_funcs("x", "y"), runpath="/opt/lib")
        data = Path(written.path).read_bytes()
        assert open_elf(data, "/same") == open_elf(data, "/same")


class TestInvariants:
    def test_symbol_count_matches_entsize_division(self):
        for path in system_elves(limit=6):
            obj = load_elf(path)
            for kind, type_code in (
                (SymbolTableKind.DYNSYM, reader.SHT_DYNSYM),
                (SymbolTableKind.SYMTAB, reader.SHT_SYMTAB),
            ):
                for sec in obj.sections:
                    if sec.type_code == type_code:
                        assert len(symbol_table(obj, kind)) == sec.size // sec.entsize

    def test_name_offsets_round_trip(self):
        obj = load_elf(system_elves(limit=1)[0])
        by_type = {s.index: s for s in obj.sections}
        for sec in obj.sections:
            if sec.type_code not in (reader.SHT_SYMTAB, reader.SHT_DYNSYM):
                continue
            strtab = by_type[sec.link].content
            kind = (
                SymbolTableKind.SYMTAB
                if sec.type_code == reader.SHT_SYMTAB
                else SymbolTableKind.DYNSYM
            )
            table = symbol_table(obj, kind)
            # st_name is the first 32-bit word of an entry in both classes.
            ident = obj.header.ident
            name_word = "<I" if ident.data_encoding == DataEncoding.LSB else ">I"
            entsize = 24 if ident.elf_class == ElfClass.ELF64 else 16
            offsets = [
                struct.unpack_from(name_word, sec.view, i)[0] for i in range(0, sec.size, entsize)
            ]
            assert len(offsets) == len(table.names)
            for offset, name in zip(offsets, table.names):
                assert reader.string_at(strtab, offset, "check") == name

    def test_null_symbol_shape(self):
        obj = load_elf(RUBY_LIKE)
        table = symbol_table(obj, SymbolTableKind.DYNSYM)
        _, infos, _, shndxs, values, sizes, *_ = table.fields(0, len(table))
        assert (table.names[0], values[0], sizes[0]) == ("", 0, 0)
        assert infos[0] == 0  # NOTYPE, LOCAL
        assert shndxs[0] == reader.SHN_UNDEF

    def test_nobits_has_empty_content(self, make_elf):
        written = make_elf(
            symbols=[SymbolSpec("buf", sym_type="OBJECT", section=".bss", size=64)]
        )
        obj = load_elf(written.path)
        bss = obj.section_named(".bss")
        assert bss.size == 64
        assert bss.content == b""

    def test_corrupt_symbol_name_offset_fails_parse(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"))
        obj = load_elf(written.path)
        dynsym = next(s for s in obj.sections if s.name == ".dynsym")
        data = bytearray(Path(written.path).read_bytes())
        # st_name of symbol 1 (64-bit LSB layout: first word of the entry)
        struct.pack_into("<I", data, dynsym.offset + 24, 0xFFFF)
        with pytest.raises(Malformed, match="past table end"):
            open_elf(bytes(data), "/x")


class TestReadFile:
    def test_large_file_is_mapped_and_parses_as_its_bytes(self, mapped_elf):
        obj = load_elf(mapped_elf)
        with open(mapped_elf, "rb") as fh:
            assert obj == open_elf(fh.read(), mapped_elf)
        assert all(isinstance(s.view.obj, mmap.mmap) for s in obj.sections)
        dynstr = obj.section_named(".dynstr")
        assert type(dynstr.content) is bytes and dynstr.content == dynstr.view

    def test_small_file_is_read(self):
        obj = load_elf(RUBY_LIKE)
        assert all(type(s.view.obj) is bytes for s in obj.sections)

    def test_refused_map_falls_back_to_read(self, mapped_elf, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        with open(mapped_elf, "rb") as fh:
            want = open_elf(fh.read(), mapped_elf)
        monkeypatch.setattr(mmap, "mmap", refuse)
        obj = load_elf(mapped_elf)
        assert obj == want
        assert all(type(s.view.obj) is bytes for s in obj.sections)

    def test_device_is_refused(self):
        if not os.path.exists("/dev/null"):
            pytest.skip("no /dev/null")
        with pytest.raises(OSError) as info:
            reader.read_file("/dev/null")
        assert info.value.errno == errno.EINVAL

    def test_dynamic_strings_resolved(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"), needed=["liba.so.1"], soname="libs.so")
        obj = load_elf(written.path)
        assert needed_libraries(obj) == ["liba.so.1"]
        assert reader.dynamic_string(obj, reader.DT_SONAME) == "libs.so"


def dynsym_versions(obj) -> tuple:
    return symbol_versions(symbol_table(obj, SymbolTableKind.DYNSYM))


class TestSymbolVersions:
    def test_real_binary_versions_match_readelf(self):
        path = system_elves(limit=1)[0]
        versions = dynsym_versions(load_elf(path))
        oracle = dict(readelf_symbol_tables(path)).get(".dynsym", [])
        versioned = 0
        for entry in oracle:
            got = versions[entry.index]
            if entry.version is None:
                assert got == (None, False)
            else:
                versioned += 1
                assert got == (entry.version, entry.version_default)
        assert versioned > 0, "oracle binary should have versioned symbols"

    def test_default_bit_against_readelf_verdef(self):
        # a shared library defining versions exercises the verdef path
        for path in system_elves(limit=24):
            obj = load_elf(path)
            if any(s.type_code == reader.SHT_GNU_VERDEF for s in obj.sections):
                break
        else:
            pytest.skip("no version-defining library found")
        oracle = dict(readelf_symbol_tables(path))[".dynsym"]
        defaults = [e for e in oracle if e.version_default]
        assert defaults, "expected default-versioned definitions"
        versions = dynsym_versions(obj)
        for entry in defaults[:50]:
            assert versions[entry.index] == (entry.version, True)

    def test_absent_version_sections(self, make_elf):
        written = make_elf(symbols=exported_funcs("a", "b"))
        assert dynsym_versions(load_elf(written.path)) == ()

    def test_null_symbol_has_no_version(self):
        path = system_elves(limit=1)[0]
        assert dynsym_versions(load_elf(path))[0] == (None, False)

    def test_symtab_has_no_version(self, make_elf):
        written = make_elf(
            symbols=exported_funcs("a"), symtab_symbols=exported_funcs("b")
        )
        obj = load_elf(written.path)
        assert symbol_versions(symbol_table(obj, SymbolTableKind.SYMTAB)) == ()

    def test_dangling_version_index_is_malformed(self):
        with pytest.raises(Malformed, match="version index"):
            reader._version_of_word(7, {}, {})

    def test_verneed_records_sharing_one_vernaux_chain_are_malformed(self):
        """2,000 Elf64_Verneed records, each pointing at one chain of 2,000
        Elf64_Vernaux records: the 64,000-byte section holds 4,000 records,
        and a walk of every need's chain would read 4,000,000 of them."""
        n, size = 2000, 16
        needs = b"".join(
            struct.pack("<HHIII", 1, n, 0, (n - i) * size, size if i < n - 1 else 0)
            for i in range(n)
        )
        auxes = b"".join(struct.pack("<IHHII", 0, 0, 2, 0, size if i < n - 1 else 0) for i in range(n))
        view = memoryview(needs + auxes)
        sec = reader.Section(1, ".gnu.version_r", reader.SHT_GNU_VERNEED, 0, 0, 0, len(view), 2, n, 0, 0, view)
        lay = reader._layouts(ElfClass.ELF64, DataEncoding.LSB)
        with pytest.raises(Malformed, match="verneed reads more than the 4000 vernaux records"):
            reader._parse_verneed(sec, b"\0", n, lay)


# ELF64 field offsets: in the file header, in a section header, and in the
# first record of a version section (Elf64_Verdef and Elf64_Verneed).
E_PHOFF, E_SHOFF, E_PHENTSIZE, E_SHENTSIZE, E_SHNUM, E_SHSTRNDX = 32, 40, 54, 58, 60, 62
SH_OFFSET, SH_SIZE, SH_LINK, SH_ENTSIZE = 24, 32, 40, 56
VD_AUX, VN_AUX = 12, 8


def section_header_at(obj, name: str) -> int:
    return obj.header.shoff + obj.section_named(name).index * obj.header.shentsize


def assert_malformed_after(path: str, patch, message: str) -> None:
    """Setting the one field that `patch(obj)` gives as (offset, struct
    format, value) makes the file's parse raise Malformed with `message`."""
    obj = load_elf(path)
    offset, fmt, value = patch(obj)
    data = bytearray(Path(path).read_bytes())
    struct.pack_into(fmt, data, offset, value)
    with pytest.raises(Malformed, match=re.escape(message)):
        open_elf(bytes(data), path)


class TestMalformedFields:
    @pytest.mark.parametrize(
        "patch, message",
        [
            (lambda obj: (E_SHENTSIZE, "<H", 10), "section header entry size 10 too small"),
            (lambda obj: (E_PHENTSIZE, "<H", 10), "program header entry size 10 too small"),
            (lambda obj: (E_PHOFF, "<Q", 2**20), "program header table out of bounds"),
            (
                lambda obj: (section_header_at(obj, ".dynsym") + SH_LINK, "<I", 999),
                "string table link 999 out of range",
            ),
            (
                lambda obj: (section_header_at(obj, ".dynsym") + SH_ENTSIZE, "<Q", 23),
                "entsize 23 != 24",
            ),
            (
                lambda obj: (
                    section_header_at(obj, ".dynsym") + SH_SIZE,
                    "<Q",
                    obj.section_named(".dynsym").size - 1,
                ),
                "size not a multiple of 24",
            ),
        ],
        ids=["e_shentsize", "e_phentsize", "e_phoff", "sh_link", "sh_entsize", "sh_size"],
    )
    def test_header_and_symbol_table_fields(self, tmp_path, patch, message):
        path = write_varied_elf(str(tmp_path / "lsb64.so"), ElfClass.ELF64, DataEncoding.LSB)
        assert_malformed_after(path, patch, message)

    @pytest.mark.parametrize(
        "patch, message",
        [
            (
                lambda obj: (section_header_at(obj, ".gnu.version_d") + SH_SIZE, "<Q", 8),
                "verdef entry out of bounds",
            ),
            (
                lambda obj: (obj.section_named(".gnu.version_d").offset + VD_AUX, "<I", 2**20),
                "verdaux entry out of bounds",
            ),
        ],
        ids=["sh_size", "vd_aux"],
    )
    def test_verdef_fields(self, versioned_lib, patch, message):
        path, _versions = versioned_lib
        assert_malformed_after(path, patch, message)

    @pytest.mark.parametrize(
        "patch, message",
        [
            (
                lambda obj: (section_header_at(obj, ".gnu.version_r") + SH_SIZE, "<Q", 8),
                "verneed entry out of bounds",
            ),
            (
                lambda obj: (obj.section_named(".gnu.version_r").offset + VN_AUX, "<I", 2**20),
                "vernaux entry out of bounds",
            ),
        ],
        ids=["sh_size", "vn_aux"],
    )
    def test_verneed_fields(self, patch, message):
        for path in system_elves():
            obj = load_elf(path)
            lsb64 = obj.header.ident[:2] == (ElfClass.ELF64, DataEncoding.LSB)
            if lsb64 and obj.section_named(".gnu.version_r"):
                break
        else:
            pytest.skip("no 64-bit LSB host library has a .gnu.version_r")
        assert_malformed_after(path, patch, message)


    @pytest.mark.parametrize(
        "tag, field, value, message",
        [
            (reader.DT_STRTAB, 8, 2**40, "in no PT_LOAD segment"),
            (reader.DT_STRSZ, 8, 2**30, "in no PT_LOAD segment"),
            (reader.DT_STRTAB, 0, 21, "no DT_STRTAB and DT_STRSZ"),  # DT_DEBUG in its place
        ],
        ids=["d_val_strtab", "d_val_strsz", "d_tag_strtab"],
    )
    def test_dynamic_fields_without_sections(self, tmp_path, tag, field, value, message):
        """With no section headers, .dynamic is read through PT_DYNAMIC and
        its strings at DT_STRTAB, DT_STRSZ bytes of one PT_LOAD segment."""
        path = str(tmp_path / "sectionless.so")
        write_elf(path, symbols=[SymbolSpec("f")], needed=["libz.so.1"])
        data = bytearray(Path(path).read_bytes())
        for offset, fmt in ((E_SHOFF, "<Q"), (E_SHNUM, "<H"), (E_SHSTRNDX, "<H")):
            struct.pack_into(fmt, data, offset, 0)
        Path(path).write_bytes(data)

        def entry_field(obj):
            (segment,) = [s for s in obj.segments if s.type_code == reader.PT_DYNAMIC]
            (entry,) = [e for e in obj.dynamic if e.tag_code == tag]
            return segment.offset + entry.ordinal * 16 + field, "<Q", value

        assert reader.needed_libraries(load_elf(path)) == ["libz.so.1"]
        assert_malformed_after(path, entry_field, message)


def layout_of(obj) -> reader._Layouts:
    return reader._layouts(obj.header.ident.elf_class, obj.header.ident.data_encoding)


def symbol_field_at(obj, table: str, index: int, field: int) -> tuple[int, str]:
    """The file offset and struct format of field `field` of symbol `index`
    in section `table`: 0 is st_name and 3 st_shndx, as in `sym_columns`."""
    lay = layout_of(obj)
    offset, width = lay.sym_columns[field]
    at = obj.section_named(table).offset + index * lay.sym_size + offset
    return at, lay.shdr.format[0] + reader._FORMATS[width]


def section_size_at(obj, name: str) -> tuple[int, str]:
    """The file offset and struct format of the sh_size of section `name`;
    a section header's format starts with its byte order."""
    fmt = layout_of(obj).shdr.format
    return section_header_at(obj, name) + struct.calcsize(fmt[:6]), fmt[0] + fmt[6]


def opened_after(path: str, offset: int, fmt: str, value: int) -> reader.ElfObject:
    data = bytearray(Path(path).read_bytes())
    struct.pack_into(fmt, data, offset, value)
    return open_elf(bytes(data), path)


@pytest.fixture(
    params=[(ElfClass.ELF64, DataEncoding.LSB), (ElfClass.ELF32, DataEncoding.MSB)],
    ids=["lsb64", "msb32"],
)
def varied_layout(request, tmp_path) -> str:
    """The file of `varied_elf_kwargs`, each .dynsym entry versioned "V1"
    (index 2, after the base version's 1), in two layouts."""
    path = write_varied_elf(str(tmp_path / "varied.so"), *request.param)
    entries = len(symbol_table(load_elf(path), SymbolTableKind.DYNSYM))
    add_symbol_versions(path, ["V1"], [0] + [2] * (entries - 1))
    return path


class TestSymbolTableChecks:
    """The checks that validate a symbol table without deriving its
    columns, each at its boundary: what they accept derives, and what they
    refuse raises the message the derivation raised."""

    def test_st_name_at_the_last_nul_and_one_past_it(self, varied_layout):
        obj = load_elf(varied_layout)
        end = obj.section_named(".dynstr").size
        offset, fmt = symbol_field_at(obj, ".dynsym", 1, 0)
        accepted = opened_after(varied_layout, offset, fmt, end - 1)
        assert symbol_table(accepted, SymbolTableKind.DYNSYM).names[1] == ""
        assert [row[3] for row in model.rows("elf_symbols", accepted)][1] == ""
        assert_malformed_after(
            varied_layout,
            lambda obj: (offset, fmt, end),
            f"symbol name string offset {end} past table end ({end})",
        )

    def test_a_name_in_an_unterminated_tail(self, varied_layout):
        obj = load_elf(varied_layout)
        strtab = obj.section_named(".strtab").content
        last = strtab[:-1].rfind(b"\0") + 1  # the last name, ending the table
        assert strtab[last:] == b"undefined_here\0"
        assert_malformed_after(
            varied_layout,
            lambda obj: (*section_size_at(obj, ".strtab"), len(strtab) - 1),
            f"symbol name string at offset {last} is not NUL-terminated",
        )

    def test_st_shndx_at_shnum(self, varied_layout):
        obj = load_elf(varied_layout)
        shnum = len(obj.sections)
        offset, fmt = symbol_field_at(obj, ".dynsym", 1, 3)
        accepted = opened_after(varied_layout, offset, fmt, shnum - 1)
        assert [row[5] for row in model.rows("elf_symbols", accepted)][1] == obj.sections[-1].name
        assert_malformed_after(
            varied_layout,
            lambda obj: (offset, fmt, shnum),
            f"symbol 1 in '.dynsym' references section {shnum} of {shnum}",
        )

    @pytest.mark.parametrize("word", [3, 0x8003])
    def test_an_undefined_versym_index(self, varied_layout, word):
        obj = load_elf(varied_layout)
        versym = obj.section_named(".gnu.version")
        fmt = layout_of(obj).shdr.format[0] + "H"
        accepted = opened_after(varied_layout, versym.offset + 2, fmt, 0x8002)
        assert dynsym_versions(accepted)[1] == ("V1", False)
        assert [row[11] for row in model.rows("elf_symbols", accepted)][1] == "V1"
        assert_malformed_after(
            varied_layout,
            lambda obj: (versym.offset + 2, fmt, word),
            "version index 3 not defined by verneed/verdef",
        )


class TestNeededLibraries:
    def test_static_object_has_none(self, make_elf):
        written = make_elf(symbols=[])
        assert needed_libraries(load_elf(written.path)) == []

    def test_link_order_matches_readelf(self, make_elf):
        written = make_elf(
            symbols=exported_funcs("f"), needed=["libfirst.so.1", "libsecond.so.2"]
        )
        obj = load_elf(written.path)
        ours = needed_libraries(obj)
        oracle = [value for tag, value in readelf_dynamic(written.path) if tag == "NEEDED"]
        assert ours == oracle == ["libfirst.so.1", "libsecond.so.2"]

    def test_entry_after_dt_null_excluded(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"), needed=["libreal.so"])
        ghost_offset = written.dynstr_offsets["libreal.so"]
        written2 = write_elf(
            written.path,
            symbols=exported_funcs("f"),
            needed=["libreal.so"],
            dynamic_suffix=[(reader.DT_NEEDED, ghost_offset)],
        )
        obj = load_elf(written2.path)
        assert needed_libraries(obj) == ["libreal.so"]
        # the suffix entry is also invisible to the dynamic-entry list
        assert sum(1 for e in obj.dynamic if e.tag_name == "NEEDED") == 1

    LONG_NAME = "x" * (1 << 20)

    def test_entries_at_one_offset_share_one_string(self, make_elf):
        """40 DT_NEEDED entries naming one 1 MB string resolve it once: the
        parse of the 1 MB file peaks under 2 MB, where a string per entry
        peaked at 40 MB."""
        written = make_elf(needed=[self.LONG_NAME] * 40)
        data = Path(written.path).read_bytes()
        tracemalloc.start()
        try:
            obj = open_elf(data, written.path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert needed_libraries(obj) == [self.LONG_NAME] * 40
        assert peak < 2_000_000

    def test_distinct_strings_past_the_file_size_are_malformed(self, make_elf):
        """Those entries set to successive offsets of the one string name 40
        distinct strings of about 1 MB each: more bytes than the file."""
        written = make_elf(needed=[self.LONG_NAME] * 40)
        obj = load_elf(written.path)
        lay = layout_of(obj)
        (seg,) = [s for s in obj.segments if s.type_code == reader.PT_DYNAMIC]
        data = bytearray(Path(written.path).read_bytes())
        needed = [
            at for at in range(seg.offset, seg.offset + seg.filesz, lay.dyn.size)
            if lay.dyn.unpack_from(data, at)[0] == reader.DT_NEEDED
        ]
        assert len(needed) == 40
        for i, at in enumerate(needed):
            lay.dyn.pack_into(data, at, reader.DT_NEEDED, written.dynstr_offsets[self.LONG_NAME] + i)
        with pytest.raises(Malformed, match=r"\.dynamic strings hold more than the file's \d+ bytes"):
            open_elf(bytes(data), written.path)


def closure(path: str) -> tuple[list, list]:
    """The paths and unresolved sonames of `path`'s DT_NEEDED closure."""
    resolved = resolve_recursive(add_paths([path]))
    return [e.path for e in resolved.entries], list(resolved.unresolved)


class TestDynamicSectionHeader:
    """.dynamic is read through PT_DYNAMIC, as the loader reads it, so a
    wrong section header for it changes none of what elfdb reads of it.
    readelf is not the oracle here: it follows the section header, and on
    the written file with sh_offset 64 it prints 8 `<unknown>` tags read
    from offset 0x40."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory) -> list[str]:
        """Three 64-bit LSB system files with a .dynamic section and one
        written file."""
        found = []
        for path in system_elves():
            obj = load_elf(path)
            lsb64 = obj.header.ident[:2] == (ElfClass.ELF64, DataEncoding.LSB)
            if lsb64 and obj.section_named(".dynamic"):
                found.append(path)
                if len(found) == 3:
                    break
        written = str(tmp_path_factory.mktemp("written") / "liba.so")
        write_elf(
            written, symbols=[SymbolSpec("f")], needed=["libz.so.1"],
            soname="liba.so", runpath="$ORIGIN/x",
        )
        return [*found, written]

    @pytest.mark.parametrize(
        "field, at, fmt, value",
        [
            ("offset", SH_OFFSET, "<Q", 64),
            ("size", SH_SIZE, "<Q", 16),
            ("link", SH_LINK, "<I", None),  # None: e_shstrndx
        ],
        ids=["sh_offset", "sh_size", "sh_link"],
    )
    def test_reads_the_same(self, tmp_path, originals, field, at, fmt, value):
        for original in originals:
            path = str(tmp_path / os.path.basename(original))
            shutil.copyfile(original, path)
            before = load_elf(path)
            expected = (before.dynamic, needed_libraries(before), closure(path))
            new = before.header.shstrndx if value is None else value
            data = bytearray(Path(path).read_bytes())
            struct.pack_into(fmt, data, section_header_at(before, ".dynamic") + at, new)
            Path(path).write_bytes(data)
            after = load_elf(path)
            assert getattr(after.section_named(".dynamic"), field) == new
            assert (after.dynamic, needed_libraries(after), closure(path)) == expected, original


def test_parse_copies_no_string_table():
    """A parse reads .dynamic's strings, the version names and the section
    names in place, in views of the file's bytes, so its peak stays well
    below one copy of .dynstr: 0.149 times .dynstr for x86-64
    libstdc++.so.6.0.30, where a parse that copied .dynstr to bytes for
    those strings peaked at 1.15 times."""
    paths = (os.path.join(d, "libstdc++.so.6") for d in SYSTEM_DIRS)
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        pytest.skip("libstdc++.so.6 not found")
    data = Path(path).read_bytes()
    tracemalloc.start()
    try:
        obj = open_elf(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * obj.section_named(".dynstr").size


def test_reader_differential_runs():
    """tests/reader_differential.py, with this tree on both sides, finds
    every outcome equal and exits 0."""
    if not system_elves(limit=1):
        pytest.skip("no system ELF files found")
    tests = Path(__file__).parent
    run = subprocess.run(
        [sys.executable, str(tests / "reader_differential.py"), str(tests.parent / "src"), "20"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "20 cases: 20 equal, 0 differ, 0 escaped or timed out" in run.stdout


class TestSystemParity:
    def test_counts_match_readelf_across_system(self):
        paths = system_elves(limit=12)
        assert paths, "no system ELF files found"
        for path in paths:
            obj = load_elf(path)
            ours = {table.kind.value: len(table) for table in obj.symbol_tables}
            assert ours == readelf_table_counts(path), path


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=12,
        ),
        min_size=0,
        max_size=8,
        unique=True,
    )
)
def test_arbitrary_names_round_trip(tmp_path_factory, names):
    path = str(tmp_path_factory.mktemp("hyp") / "f.so")
    write_elf(path, symbols=[SymbolSpec(n) for n in names])
    obj = load_elf(path)
    parsed = sorted(n for n in symbol_table(obj, SymbolTableKind.DYNSYM).names if n)
    assert parsed == sorted(names)


# Elf64_Sym and Elf32_Sym as struct formats, and the struct field of each
# column: st_name, st_info, st_other, st_shndx, st_value, st_size.
_SYM_FORMATS = {ElfClass.ELF64: "IBBHQQ", ElfClass.ELF32: "IIIBBH"}
_STRUCT_ORDER = {ElfClass.ELF64: (0, 1, 2, 3, 4, 5), ElfClass.ELF32: (0, 3, 4, 5, 1, 2)}
_LAYOUTS = [(c, e) for c in ElfClass for e in DataEncoding]


def _sym_struct(elf_class: ElfClass, encoding: DataEncoding) -> struct.Struct:
    return struct.Struct(("<" if encoding == DataEncoding.LSB else ">") + _SYM_FORMATS[elf_class])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_LAYOUTS),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=7),
    st.data(),
)
def test_symbol_columns_equal_iter_unpack(layout, count, misalign, data):
    """Each field column equals the struct unpack of every record, for any
    record bytes, in both classes and byte orders, from any start address."""
    lay = reader._layouts(*layout)
    record = _sym_struct(*layout)
    assert lay.sym_size == record.size
    raw = data.draw(st.binary(min_size=count * record.size, max_size=count * record.size))
    view = memoryview(bytes(misalign) + raw)[misalign:]
    columns = reader._field_columns(view, lay, record.size, lay.sym_columns)
    records = list(record.iter_unpack(raw))
    for column, field in zip(columns, _STRUCT_ORDER[layout[0]]):
        assert column.tolist() == [r[field] for r in records]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_LAYOUTS), st.integers(min_value=1, max_value=20), st.data())
def test_packed_symbol_columns_round_trip(layout, count, data):
    """The writer's symbol records, for column values across each field's
    full width, are the struct pack of each record and read back as the
    same columns."""
    lay = reader._layouts(*layout)
    record = _sym_struct(*layout)
    fields = _STRUCT_ORDER[layout[0]]
    widths = [struct.calcsize("<" + _SYM_FORMATS[layout[0]][f]) for f in fields]
    columns = [
        data.draw(st.lists(st.integers(0, 2 ** (8 * w) - 1), min_size=count, max_size=count))
        for w in widths
    ]
    packed = bench._pack_symbols(lay, columns)
    by_field = [columns[fields.index(f)] for f in range(len(fields))]
    assert bytes(packed) == b"".join(record.pack(*values) for values in zip(*by_field))
    read = reader._field_columns(memoryview(packed), lay, record.size, lay.sym_columns)
    assert [column.tolist() for column in read] == columns


def parse_symbol_table(
    lay, name_offsets, strtab: bytes | memoryview, versym: bytes = b"", verdef: Optional[dict] = None
) -> reader.SymbolTable:
    """`reader._parse_symbol_table` of a .dynsym holding one record per
    name offset, its other fields 0, linked to `strtab` (a view of it is
    used as it is), with `versym` as the `.gnu.version` bytes and `verdef`
    the defined versions."""
    count = len(name_offsets)
    records = bench._pack_symbols(lay, [list(name_offsets)] + [[0] * count] * 5)

    def section(index, name, type_code, link, content):
        view = content if isinstance(content, memoryview) else memoryview(bytes(content))
        return reader.Section(index, name, type_code, 0, 0, 0, len(view), link, 0, 0, 0, view)

    sections = [
        section(0, "", reader.SHT_NULL, 0, b""),
        section(1, ".dynsym", reader.SHT_DYNSYM, 2, records),
        section(2, ".dynstr", reader.SHT_STRTAB, 0, strtab),
    ]
    return reader._parse_symbol_table(
        sections[1], SymbolTableKind.DYNSYM, sections, lay, len(sections), memoryview(versym),
        {}, verdef or {},
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(DataEncoding)), st.binary(max_size=41))
def test_version_words_equal_iter_unpack(encoding, raw):
    """`.gnu.version` is read as whole halfwords; a trailing odd byte is
    ignored."""
    lay = reader._layouts(ElfClass.ELF64, encoding)
    bo = "<" if encoding == DataEncoding.LSB else ">"
    want = [w for (w,) in struct.iter_unpack(bo + "H", raw[: len(raw) // 2 * 2])]
    defined = {w & 0x7FFF: "V" for w in want}
    # More records than `raw` has halfwords, and fewer.
    for count in (21, len(want) // 2):
        table = parse_symbol_table(lay, [0] * count, b"\0", raw, defined)
        assert table.fields(0, count)[6] == want[:count]


# Entries of a string table: ASCII names, multi-byte UTF-8, stray bytes that
# are not UTF-8, and empty entries.
_ENTRY = st.one_of(
    st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=8).map(str.encode),
    st.text(alphabet=st.characters(min_codepoint=1, blacklist_categories=("Cs",)), max_size=6).map(
        str.encode
    ),
    st.binary(max_size=6).map(lambda b: bytes(x | 0x80 for x in b)),
)


@st.composite
def string_tables(draw) -> bytes:
    """NUL-terminated entries, possibly followed by an unterminated tail."""
    entries = draw(st.lists(_ENTRY, max_size=8))
    tail = draw(st.one_of(st.just(b""), _ENTRY))
    return b"".join(e + b"\x00" for e in entries) + tail.replace(b"\x00", b"")


def _reference_name(table: bytes, offset: int) -> str:
    return reader.decode_bytes(table[offset : table.index(0, offset)])


def _as_tables(table: bytes, data) -> tuple[bytes | memoryview, ...]:
    """`table`, and a view of it that starts partway into a larger buffer,
    with NULs before and after it: a lookup that used offsets into the
    buffer, or read past the view's end, would find them."""
    before = data.draw(st.binary(max_size=6)) + b"\0"
    buf = before + table + b"\0" + data.draw(st.binary(max_size=6))
    return table, memoryview(buf)[len(before) : len(before) + len(table)]


@settings(max_examples=100, deadline=None)
@given(string_tables(), st.data())
def test_names_and_string_rows_equal_per_entry_decode(table, data):
    """Names at any offset, the middle of an entry included, and the
    `elf_strings` rows of the table equal a decode of each entry's bytes on
    its own; the names are the same whether the table is bytes or a view."""
    valid = [o for o in range(len(table)) if 0 in table[o:]]
    offsets = tuple(data.draw(st.lists(st.sampled_from(valid), max_size=12))) if valid else ()
    lay = reader._layouts(ElfClass.ELF64, DataEncoding.LSB)
    want = tuple(_reference_name(table, o) for o in offsets)
    for strtab in _as_tables(table, data):
        assert parse_symbol_table(lay, offsets, strtab).names == want
        assert tuple(reader.string_at(strtab, o, "symbol name") for o in offsets) == want
    entries, offset = [], 0
    while 0 in table[offset:]:
        entries.append((offset, _reference_name(table, offset)))
        offset = table.index(0, offset) + 1
    assert list(zip(*reader._string_columns(table))) == entries


@settings(max_examples=40, deadline=None)
@given(string_tables(), st.data())
def test_bad_name_offset_raises_string_at_message(table, data):
    """An offset past the end or into an unterminated tail raises the
    Malformed that string_at raises for the first such offset, whether the
    table is bytes or a view."""
    bad = [o for o in range(len(table) + 3) if 0 not in table[o:]]
    good = [o for o in range(len(table)) if 0 in table[o:]]
    offsets = data.draw(st.lists(st.sampled_from(good), max_size=4)) if good else []
    offsets.insert(data.draw(st.integers(0, len(offsets))), data.draw(st.sampled_from(bad)))
    first_bad = next(o for o in offsets if o in bad)
    with pytest.raises(Malformed) as want:
        reader.string_at(table, first_bad, "symbol name")
    lay = reader._layouts(ElfClass.ELF32, DataEncoding.MSB)
    for strtab in _as_tables(table, data):
        with pytest.raises(Malformed) as got:
            parse_symbol_table(lay, offsets, strtab)
        assert str(got.value) == str(want.value)
        with pytest.raises(Malformed) as got:
            reader.string_at(strtab, first_bad, "symbol name")
        assert str(got.value) == str(want.value)


def test_ascii_bad_name_offsets_raise():
    table = b"\x00abc\x00def"
    lay = reader._layouts(ElfClass.ELF64, DataEncoding.LSB)
    with pytest.raises(Malformed, match=r"symbol name string offset 9 past table end \(8\)"):
        parse_symbol_table(lay, (1, 9), table)
    with pytest.raises(Malformed, match="symbol name string at offset 5 is not NUL-terminated"):
        parse_symbol_table(lay, (1, 5), table)
