import errno
import mmap
import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfdb import reader
from elfdb.bench import SymbolSpec, write_elf
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
    exported_funcs,
    readelf_dynamic,
    readelf_symbol_tables,
    readelf_table_counts,
    symbol_table,
    system_elves,
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
        data = bytearray(open(written.path, "rb").read())
        # e_shstrndx is the last halfword of the 64-bit ELF header
        struct.pack_into("<H", data, 62, 200)
        with pytest.raises(Malformed, match="shstrndx"):
            open_elf(bytes(data), "/x")

    def test_truncated_section_table(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"))
        data = open(written.path, "rb").read()
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
        data = open(written.path, "rb").read()
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
        assert (table.names[0], table.values[0], table.sizes[0]) == ("", 0, 0)
        assert table.infos[0] == 0  # NOTYPE, LOCAL
        assert table.shndxs[0] == reader.SHN_UNDEF

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
        data = bytearray(open(written.path, "rb").read())
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

    def test_string_table_copied_once(self, make_elf):
        written = make_elf(symbols=exported_funcs("f"), needed=["liba.so.1"], soname="libs.so")
        obj = load_elf(written.path)
        dynstr = obj.section_named(".dynstr")
        first = obj.string_tables[dynstr.index]
        assert needed_libraries(obj) == ["liba.so.1"]
        assert reader.dynamic_string(obj, reader.DT_SONAME) == "libs.so"
        assert obj.string_tables[dynstr.index] is first


def dynsym_versions(obj) -> tuple:
    return symbol_table(obj, SymbolTableKind.DYNSYM).versions


class TestSymbolVersions:
    def test_real_binary_versions_match_readelf(self):
        path = system_elves(limit=1)[0]
        versions = dynsym_versions(load_elf(path))
        oracle = readelf_symbol_tables(path).get(".dynsym", [])
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
        oracle = readelf_symbol_tables(path)[".dynsym"]
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
        assert symbol_table(obj, SymbolTableKind.SYMTAB).versions == ()

    def test_dangling_version_index_is_malformed(self):
        with pytest.raises(Malformed, match="version index"):
            reader._version_of_word(7, {}, {})


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
