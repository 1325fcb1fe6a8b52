import hashlib
import importlib.util
import os
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elfdb import reader
from elfdb.bench import GeneratedElfSpec, SymbolSpec, generate_elf, write_elf
from elfdb.reader import DataEncoding, ElfClass, SymbolTableKind, load_elf

from conftest import (
    FIXTURE_DIR,
    RUBY_LIKE,
    named_rows,
    readelf_table_counts,
    run_child,
    symbol_table,
    varied_elf_kwargs,
)


def _literal(text: str) -> str:
    """`text` as the literal part of a format string."""
    return text.replace("{", "{{").replace("}", "}}")


class TestGenerateElf:
    def test_zero_symbols_yields_null_only(self, tmp_path):
        dest = str(tmp_path / "empty.so")
        manifest = generate_elf(GeneratedElfSpec(symbol_count=0), dest)
        assert manifest.names == ()
        obj = load_elf(dest)
        assert len(symbol_table(obj, SymbolTableKind.DYNSYM)) == 1

    def test_manifest_names_all_exported(self, tmp_path):
        dest = str(tmp_path / "gen.so")
        manifest = generate_elf(GeneratedElfSpec(symbol_count=64), dest)
        rows = named_rows("elf_symbols", load_elf(dest))
        exported = {r["name"] for r in rows if r["exported"] == 1}
        assert exported == set(manifest.names)
        assert len(manifest.names) == 64

    def test_counts_scale(self, tmp_path):
        dest = str(tmp_path / "big.so")
        generate_elf(GeneratedElfSpec(symbol_count=10000), dest)
        assert readelf_table_counts(dest)[".dynsym"] == 10001

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            GeneratedElfSpec(symbol_count=-1)

    def test_deterministic_bytes(self, tmp_path):
        one = str(tmp_path / "one.so")
        two = str(tmp_path / "two.so")
        generate_elf(GeneratedElfSpec(symbol_count=12), one)
        generate_elf(GeneratedElfSpec(symbol_count=12), two)
        assert Path(one).read_bytes() == Path(two).read_bytes()

    def test_custom_name_pattern(self, tmp_path):
        dest = str(tmp_path / "pat.so")
        manifest = generate_elf(
            GeneratedElfSpec(symbol_count=3, name_pattern="fn_{index}"), dest
        )
        assert manifest.names == ("fn_0", "fn_1", "fn_2")

    @given(
        st.one_of(
            st.builds(
                lambda before, spec, after: f"{_literal(before)}{{index{spec}}}{_literal(after)}",
                st.text(max_size=8),
                st.from_regex(
                    r"(:(.?[<>=^])?[-+ ]?#?0?[0-9]{0,2}[,_]?[bcdoxXn]?)?", fullmatch=True
                ),
                st.text(max_size=8),
            ),
            # Patterns that keep str.format for every name, or that it refuses.
            st.sampled_from(
                [
                    "{index}_{index:x}", "{index!r}", "{index!r:x}", "{index!s:>5}", "{index.real}",
                    "{index:{index}}", "plain", "{{index}}", "{", "}", "{0}", "{name}", "{index:q}",
                ]
            ),
        ),
        st.integers(min_value=0, max_value=300),
    )
    @example("{index}", 12)  # a bare number
    @example("{index:06}", 12)
    @example("grüße_{index:02}", 12)
    @example("名前{index:x}_末", 300)
    def test_names_equal_str_format(self, pattern, count):
        spec = GeneratedElfSpec(count, pattern)
        try:
            want = [pattern.format(index=i) for i in range(count)]
        except Exception as error:
            with pytest.raises(type(error)) as raised:
                spec.names()
            assert raised.value.args == error.args
        else:
            assert spec.names() == want

    def test_checked_in_fixture_matches_generator(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "generate_fixtures", os.path.join(FIXTURE_DIR, "generate_fixtures.py")
        )
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        generator.main(str(tmp_path))
        fresh = (tmp_path / "ruby_like.so").read_bytes()
        assert fresh == Path(RUBY_LIKE).read_bytes(), (
            "tests/fixtures/ruby_like.so is stale; regenerate it with "
            "`PYTHONPATH=src python tests/fixtures/generate_fixtures.py`"
        )


# Every kind of symbol, section and dynamic input the writer takes, with
# strings shared between a symbol, DT_NEEDED entries and both paths.
_MIXED_SYMBOLS = [
    SymbolSpec("exported"),
    SymbolSpec("local_data", binding="LOCAL", sym_type="OBJECT", section=".data", size=16),
    SymbolSpec("weak_fn", binding="WEAK", size=5),
    SymbolSpec("unique_obj", binding="GNU_UNIQUE", sym_type="OBJECT", section=".data"),
    SymbolSpec("empty_fn", size=0),
    SymbolSpec("counter", sym_type="OBJECT", section=".bss"),
    SymbolSpec("empty_bss", binding="LOCAL", sym_type="OBJECT", section=".bss", size=0),
    SymbolSpec("abs_mark", sym_type="NOTYPE", section="SHN_ABS", size=3),
    SymbolSpec("imported", section="SHN_UNDEF"),
    SymbolSpec("libdup.so", binding="WEAK", section="SHN_UNDEF"),
    SymbolSpec("grüße", sym_type="OBJECT", section=".data", size=0),
]
_MIXED_SYMTAB = [
    SymbolSpec("exported"),
    SymbolSpec("file.c", binding="LOCAL", sym_type="FILE", section="SHN_ABS"),
    SymbolSpec("static_bss", binding="LOCAL", sym_type="OBJECT", section=".bss", size=2),
    SymbolSpec("tail", binding="WEAK", size=7),
]
_WRITE_CASES = {
    **{
        f"varied-{c.name}-{e.name}": varied_elf_kwargs(c, e)
        for c in ElfClass
        for e in DataEncoding
    },
    "mixed-symtab-ELF32-MSB": dict(
        symbols=_MIXED_SYMBOLS,
        symtab_symbols=_MIXED_SYMTAB,
        needed=["libdup.so", "", "libc.so.6", "libc.so.6"],
        soname="libmixed.so.1",
        rpath="/opt/lib",
        runpath="/opt/lib",
        elf_class=ElfClass.ELF32,
        encoding=DataEncoding.MSB,
        machine=20,
        dynamic_suffix=[(reader.DT_NEEDED, 1), (0x6FFFFFFB, 8)],
    ),
    "mixed-empty-symtab-ELF64-LSB": dict(
        symbols=_MIXED_SYMBOLS,
        symtab_symbols=[],
        needed=["libc.so.6"],
        soname="",
        rpath="$ORIGIN",
        dynamic_suffix=[(reader.DT_SONAME, 0)],
    ),
}
_GENERATE_CASES = {
    **{f"generated-{n}": GeneratedElfSpec(n) for n in (0, 12, 1000)},
    # Non-ASCII names: the string table's lengths are counted in UTF-8.
    "generated-utf8-12": GeneratedElfSpec(12, name_pattern="grüße_{index:02}"),
}

# sha256 of each case's file, then of what the writer reported about it.
WRITER_PINS = {
    "varied-ELF32-LSB": (
        "913cfa89aef21daffdb6f146f0800b8f69a063bddf10781e22249bbcdbcc8b58",
        "ea93d2fb73efb05c2edb41fb22f0eab91c54f4926e8ecff97ae62bd629fcb49c",
    ),
    "varied-ELF32-MSB": (
        "87cf7acabf892c35bd194dbe23f4489d35670f322629067650095254617c6fd9",
        "ea93d2fb73efb05c2edb41fb22f0eab91c54f4926e8ecff97ae62bd629fcb49c",
    ),
    "varied-ELF64-LSB": (
        "ee7639b9c794f16b43676dfe60257ef6905ee35da42704b989f6b312d9f084d7",
        "ea93d2fb73efb05c2edb41fb22f0eab91c54f4926e8ecff97ae62bd629fcb49c",
    ),
    "varied-ELF64-MSB": (
        "101a3ee53933eef2376924eb3742c8be2806d2c2633a061f2481c8348b1d80ee",
        "ea93d2fb73efb05c2edb41fb22f0eab91c54f4926e8ecff97ae62bd629fcb49c",
    ),
    "mixed-symtab-ELF32-MSB": (
        "ab585acdaaff0e0bc76071ee8968672af858f80420bb9fc41b67f18bb07b7ec0",
        "a3483e017097e560a868ed122c20268237583d3ee5bd0a69eeec322a5ff55c88",
    ),
    "mixed-empty-symtab-ELF64-LSB": (
        "22afe6b1e7a6b83c62e44faa00e05da64c21a0114ca07fdd176bce1e555b13e4",
        "f4a22d7336dc6dfa652b886a98af23b0696d08241d091463478775b87de769f3",
    ),
    "generated-0": (
        "21a39374a6397bec557b11636bcbd37c8e2918c9234b8efce62e5f8336c089b8",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ),
    "generated-12": (
        "3cc89d101d91fa24f2b29b6be18884f3d7b66cb8c9c0bf52fa06951931250ed9",
        "3c5dcbad34cb1dd3e0dbfe6db746006f6d2295aac1b10cd692bfa9009dd4a6af",
    ),
    "generated-1000": (
        "5060bfc6cc3701de2e7a2a8c34a1ba77de898823537262ab079e23795131de3b",
        "f2c0a5fea5c64b652257421fdd13b81e41ed12558400133cc034bbff3a9d0999",
    ),
    "generated-utf8-12": (
        "49ec1e23d6b9c04c172f0bcdb27e05a5eda58a9fe7e2dd1e9398a66f11b25060",
        "0d6b1576bd56d7a542a49cba08cb9b3ac1a4faef0cf7daea4fd6b483e79ff205",
    ),
}
# sha256 of the session's `symbols_1e5` file: GeneratedElfSpec(100_000).
GENERATED_1E5_PIN = "e3fd4403af83ac349d825f4a32120fb0e604a81912182fb1b5ceffffbd0e143e"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def written_digests(out_dir: str) -> dict[str, tuple[str, str]]:
    """For each case, the sha256 of the file written into `out_dir` and of
    the writer's report (its names and string offsets, path aside)."""
    digests = {}
    for case, kwargs in _WRITE_CASES.items():
        dest = os.path.join(out_dir, case + ".so")
        w = write_elf(dest, **kwargs)
        assert w.path == os.path.realpath(dest)
        report = (w.names, w.dynsym_names, w.symtab_names, sorted(w.dynstr_offsets.items()))
        with open(dest, "rb") as fh:
            digests[case] = (_sha256(fh.read()), _sha256(repr(report).encode()))
    for case, spec in _GENERATE_CASES.items():
        dest = os.path.join(out_dir, case + ".so")
        manifest = generate_elf(spec, dest)
        assert manifest.path == os.path.realpath(dest)
        with open(dest, "rb") as fh:
            digests[case] = (_sha256(fh.read()), _sha256(repr(manifest.names).encode()))
    return digests


def test_writer_output_is_pinned(tmp_path):
    """The writer's bytes and reports for a fixed set of inputs never change
    unnoticed: the fixtures of the tests and of the benchmark come from it."""
    assert written_digests(str(tmp_path)) == WRITER_PINS


def test_generated_file_at_scale_is_pinned(symbols_1e5):
    """The writer's bytes at the benchmark's scale, from the file the tests
    already write."""
    with open(symbols_1e5, "rb") as fh:
        assert _sha256(fh.read()) == GENERATED_1E5_PIN


def test_generating_1e5_symbols_holds_no_object_per_symbol(tmp_path):
    script = """
        import sys, tracemalloc
        from elfdb.bench import GeneratedElfSpec, generate_elf

        tracemalloc.start()
        generate_elf(GeneratedElfSpec(100_000), sys.argv[1])
        print(tracemalloc.get_traced_memory()[1])
    """
    peak = run_child(script, str(tmp_path / "gen.so"))
    # A write peaks twice near 19 MB.  Both times it holds the names
    # (6.9 MB: 1e5 strings and their list) and four constant columns of 1e5
    # references (3.2 MB).  Building .dynstr adds its distinct strings
    # (3.8 MB), the table as text and as bytes (2.6 MB) and the offsets of
    # its strings and of the names (1.6 MB): 18.1 MB.  Appending the records
    # (2.4 MB) to the file image (2.5 MB) adds .dynstr (1.3 MB), those
    # offsets and the symbols' (2.4 MB): 18.7 MB.  The uniqueness set
    # (4.2 MB) is dropped first, and the manifest's tuple (0.8 MB) comes
    # last.  One SymbolSpec per symbol peaked at 44.5 MB.
    assert peak < 30_000_000
