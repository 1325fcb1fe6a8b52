import importlib.util
import os

import pytest

from elfdb.bench import GeneratedElfSpec, generate_elf
from elfdb.reader import SymbolTableKind, load_elf

from conftest import FIXTURE_DIR, RUBY_LIKE, named_rows, readelf_table_counts, symbol_table


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
        assert open(one, "rb").read() == open(two, "rb").read()

    def test_custom_name_pattern(self, tmp_path):
        dest = str(tmp_path / "pat.so")
        manifest = generate_elf(
            GeneratedElfSpec(symbol_count=3, name_pattern="fn_{index}"), dest
        )
        assert manifest.names == ("fn_0", "fn_1", "fn_2")

    def test_checked_in_fixture_matches_generator(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "generate_fixtures", os.path.join(FIXTURE_DIR, "generate_fixtures.py")
        )
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        generator.main(str(tmp_path))
        fresh = (tmp_path / "ruby_like.so").read_bytes()
        assert fresh == open(RUBY_LIKE, "rb").read(), (
            "tests/fixtures/ruby_like.so is stale; regenerate it with "
            "`PYTHONPATH=src python tests/fixtures/generate_fixtures.py`"
        )
