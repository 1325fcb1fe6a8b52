import csv
import importlib.util
import math
import os

import pytest

from elfdb import model
from elfdb.bench import (
    CSV_HEADER,
    GeneratedElfSpec,
    Pipeline,
    generate_elf,
    run_benchmark,
)
from elfdb.reader import SymbolTableKind, load_elf

from conftest import FIXTURE_DIR, RUBY_LIKE, readelf_table_counts, require_readelf


class TestGenerateElf:
    def test_zero_symbols_yields_null_only(self, tmp_path):
        dest = str(tmp_path / "empty.so")
        manifest = generate_elf(GeneratedElfSpec(symbol_count=0), dest)
        assert manifest.names == ()
        obj = load_elf(dest)
        assert len(obj.symbols_in(SymbolTableKind.DYNSYM)) == 1

    def test_manifest_names_all_exported(self, tmp_path):
        dest = str(tmp_path / "gen.so")
        manifest = generate_elf(GeneratedElfSpec(symbol_count=64), dest)
        rows = model.symbol_rows(load_elf(dest))
        exported = {r.name for r in rows if r.exported}
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


class TestRunBenchmark:
    def test_smoke_timing_rows(self, tmp_path):
        results = run_benchmark(
            counts=[100],
            pipelines=(Pipeline.FRESH_PARSE_QUERY, Pipeline.MEMOIZED_DB_QUERY),
            repetitions=3,
            workdir=str(tmp_path),
        )
        assert len(results) == 2
        for result in results:
            assert result.error is None
            assert result.median_s is not None and result.median_s > 0
            assert math.isfinite(result.median_s)
            assert result.min_s <= result.median_s
            assert result.repetitions == 3

    def test_memoized_reuses_exported_database(self, tmp_path):
        run_benchmark(
            counts=[50],
            pipelines=(Pipeline.MEMOIZED_DB_QUERY,),
            repetitions=3,
            workdir=str(tmp_path),
        )
        db = tmp_path / "bench_50.sqlite"
        assert db.exists()
        stamp = db.stat().st_mtime_ns
        run_benchmark(
            counts=[50],
            pipelines=(Pipeline.MEMOIZED_DB_QUERY,),
            repetitions=3,
            workdir=str(tmp_path),
        )
        assert db.stat().st_mtime_ns == stamp  # export not repeated, so not re-timed

    def test_external_pipeline_with_a_quote_in_the_path(self, tmp_path):
        require_readelf()
        workdir = tmp_path / "it's"
        workdir.mkdir()
        results = run_benchmark(
            counts=[10],
            pipelines=(Pipeline.EXTERNAL_READELF_WC,),
            repetitions=3,
            workdir=str(workdir),
        )
        assert [r.error for r in results] == [None]
        assert results[0].median_s > 0

    def test_csv_schema(self, tmp_path):
        csv_path = str(tmp_path / "bench.csv")
        run_benchmark(
            counts=[25],
            pipelines=(Pipeline.FRESH_PARSE_QUERY,),
            repetitions=3,
            workdir=str(tmp_path),
            csv_path=csv_path,
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert rows[1][0] == "25"
        assert rows[1][1] == "FRESH_PARSE_QUERY"
        assert float(rows[1][2]) > 0

    def test_plot_data(self, tmp_path):
        plot_path = str(tmp_path / "plot.tsv")
        run_benchmark(
            counts=[10, 20],
            pipelines=(Pipeline.FRESH_PARSE_QUERY,),
            repetitions=3,
            workdir=str(tmp_path),
            plot_path=plot_path,
        )
        lines = open(plot_path).read().splitlines()
        assert lines[0] == "symbols\tFRESH_PARSE_QUERY"
        assert len(lines) == 3

    def test_too_few_repetitions(self):
        with pytest.raises(ValueError):
            run_benchmark(counts=[1], repetitions=2)

    def test_external_pipeline_optional(self, tmp_path, monkeypatch):
        import elfdb.bench as bench_mod

        monkeypatch.setattr(bench_mod.shutil, "which", lambda _: None)
        results = run_benchmark(
            counts=[10],
            pipelines=(Pipeline.EXTERNAL_READELF_WC,),
            repetitions=3,
            workdir=str(tmp_path),
        )
        assert len(results) == 1
        assert results[0].error == "readelf not found"
        assert results[0].median_s is None
