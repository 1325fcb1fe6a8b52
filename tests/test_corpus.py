import json
import os
import shutil
import struct
import subprocess
import sys
import textwrap

import pytest

import elfdb
from elfdb import corpus, reader
from elfdb.bench import write_elf
from elfdb.corpus import (
    CorpusError,
    Provenance,
    SearchConfig,
    add_paths,
    resolve_recursive,
)

from conftest import RUBY_LIKE, exported_funcs, readelf_dynamic


def oracle_loader_trace(root: str, extra_dirs: tuple[str, ...] = ()) -> set[str]:
    """Independent dependency-closure walker built on readelf -d output.

    Emulates the loader search order (RPATH-without-RUNPATH up the chain,
    then extra dirs, then the dependent's RUNPATH) without touching the
    package's parser or resolver.
    """
    closure: set[str] = set()
    settled: set[str] = set()

    def tags(path: str) -> dict:
        rows = readelf_dynamic(path)
        return {
            "needed": [v for t, v in rows if t == "NEEDED"],
            "runpath": next((v for t, v in rows if t == "RUNPATH"), None),
            "rpath": next((v for t, v in rows if t == "RPATH"), None),
        }

    def expand(value, origin):
        if value is None:
            return []
        return [
            p.replace("$ORIGIN", origin).replace("${ORIGIN}", origin)
            for p in value.split(":")
            if p
        ]

    queue = [(os.path.realpath(root), [])]
    closure.add(os.path.realpath(root))
    while queue:
        path, chain = queue.pop(0)
        info = tags(path)
        search: list[str] = []
        if info["runpath"] is None:
            for holder in [path] + chain:
                search += expand(tags(holder)["rpath"], os.path.dirname(holder))
        search += list(extra_dirs)
        search += expand(info["runpath"], os.path.dirname(path))
        for soname in info["needed"]:
            if soname in settled:
                continue
            settled.add(soname)
            for directory in search:
                candidate = os.path.join(directory, soname)
                if os.path.isfile(candidate):
                    real = os.path.realpath(candidate)
                    if real not in closure:
                        closure.add(real)
                        queue.append((real, [path] + chain))
                    break
    return closure


@pytest.fixture
def dep_tree(tmp_path):
    """app -> libA -> libB, each level resolved through its RUNPATH."""
    libs1 = tmp_path / "libs1"
    libs2 = tmp_path / "libs2"
    libs1.mkdir()
    libs2.mkdir()
    write_elf(
        str(libs2 / "libB.so"), symbols=exported_funcs("b_fn"), soname="libB.so"
    )
    write_elf(
        str(libs1 / "libA.so"),
        symbols=exported_funcs("a_fn"),
        soname="libA.so",
        needed=["libB.so"],
        runpath=str(libs2),
    )
    app = tmp_path / "app"
    write_elf(str(app), symbols=exported_funcs("main_fn"), needed=["libA.so"], runpath=str(libs1))
    return tmp_path


class TestAddPaths:
    def test_empty_input(self):
        catalog = add_paths([])
        assert catalog.entries == ()

    def test_directory_skips_non_elves(self, tmp_path):
        write_elf(str(tmp_path / "real.so"), symbols=exported_funcs("f"))
        (tmp_path / "notes.txt").write_text("not an object file")
        catalog = add_paths([str(tmp_path)])
        assert len(catalog.entries) == 1
        assert len(catalog.skipped) == 1

    def test_symlinks_deduplicated(self, tmp_path):
        real = tmp_path / "lib.so"
        write_elf(str(real), symbols=exported_funcs("f"))
        link = tmp_path / "alias.so"
        link.symlink_to(real)
        catalog = add_paths([str(link), str(real)])
        assert len(catalog.entries) == 1
        assert catalog.entries[0].path == os.path.realpath(str(real))

    def test_explicit_non_elf_is_error(self, tmp_path):
        bad = tmp_path / "x.txt"
        bad.write_text("hello")
        with pytest.raises(CorpusError):
            add_paths([str(bad)])

    def test_empty_explicit_file_is_not_elf(self, tmp_path):
        good = tmp_path / "good.so"
        write_elf(str(good), symbols=exported_funcs("f"))
        empty = tmp_path / "empty.so"
        empty.write_bytes(b"")
        catalog = add_paths([str(empty), str(good)])
        assert catalog.read_errors == ((str(empty), "not an ELF file"),)

    def test_a_skipped_input_logs_a_warning(self, tmp_path, caplog):
        good = tmp_path / "good.so"
        write_elf(str(good), symbols=exported_funcs("f"))
        missing = str(tmp_path / "missing.so")
        with caplog.at_level("WARNING", logger="elfdb.corpus"):
            catalog = add_paths([missing, str(good)])
        assert [e.path for e in catalog.entries] == [os.path.realpath(str(good))]
        assert [(r.name, r.levelname) for r in caplog.records] == [("elfdb.corpus", "WARNING")]
        assert caplog.records[0].getMessage().startswith(f"skipping {missing}: ")

    def test_many_small_files_under_a_low_descriptor_limit(self, tmp_path):
        # Files below the mapping threshold are read, so they hold no
        # descriptor once parsed.
        libs = tmp_path / "libs"
        libs.mkdir()
        for i in range(200):
            shutil.copy(RUBY_LIKE, libs / f"lib{i:03}.so")
        script = textwrap.dedent(
            """
            import resource, sys
            from elfdb import corpus, engine
            hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            catalog = corpus.add_paths([sys.argv[1]])
            with engine.register(catalog) as session:
                summary = session.export_database(sys.argv[2])
            print(len(catalog), len(catalog.read_errors), summary.per_table["elf_headers"])
            """
        )
        src = os.path.dirname(os.path.dirname(elfdb.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script, str(libs), str(tmp_path / "out.sqlite")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["200", "0", "200"]

    def test_fifo_in_a_directory_is_a_read_error(self, tmp_path):
        # In a child with a timeout: a blocking open of the FIFO would hang.
        write_elf(str(tmp_path / "real.so"), symbols=exported_funcs("f"))
        os.mkfifo(tmp_path / "pipe")
        script = textwrap.dedent(
            """
            import json, os, sys
            from elfdb import cli, corpus
            catalog = corpus.add_paths([sys.argv[1]])
            print(json.dumps([[os.path.basename(p) for p in catalog.paths], catalog.read_errors]))
            sys.exit(cli.main(["query", sys.argv[1], "--sql", "SELECT COUNT(*) FROM elf_headers"]))
            """
        )
        src = os.path.dirname(os.path.dirname(elfdb.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        first, *table = done.stdout.splitlines()
        fifo = str(tmp_path / "pipe")
        why = f"[Errno 22] not a regular file: {fifo!r}"
        assert json.loads(first) == [["real.so"], [[fifo, why]]]
        assert table[-1].strip() == "1"

    def test_mixed_failures_are_collected(self, tmp_path):
        good = tmp_path / "good.so"
        write_elf(str(good), symbols=exported_funcs("f"))
        bad = tmp_path / "bad.txt"
        bad.write_text("nope")
        catalog = add_paths([str(bad), str(good)])
        assert len(catalog.entries) == 1
        assert catalog.read_errors and catalog.read_errors[0][0] == str(bad)

    def test_malformed_elf_collected(self, tmp_path):
        good = tmp_path / "good.so"
        write_elf(str(good), symbols=exported_funcs("f"))
        trunc = tmp_path / "trunc.so"
        trunc.write_bytes(b"\x7fELF")
        catalog = add_paths([str(good), str(trunc)])
        assert len(catalog.entries) == 1
        assert any("truncated" in why for _, why in catalog.read_errors)

    def test_subdirectories_only_with_flag(self, tmp_path):
        nested = tmp_path / "deep"
        nested.mkdir()
        write_elf(str(nested / "inner.so"), symbols=exported_funcs("f"))
        write_elf(str(tmp_path / "outer.so"), symbols=exported_funcs("g"))
        flat = add_paths([str(tmp_path)])
        assert [os.path.basename(e.path) for e in flat.entries] == ["outer.so"]
        deep = add_paths([str(tmp_path)], recurse_dirs=True)
        assert sorted(os.path.basename(e.path) for e in deep.entries) == [
            "inner.so",
            "outer.so",
        ]

    def test_insertion_order_is_argument_order(self, tmp_path):
        paths = []
        for name in ("zz.so", "aa.so", "mm.so"):
            write_elf(str(tmp_path / name), symbols=exported_funcs("f_" + name[:2]))
            paths.append(str(tmp_path / name))
        catalog = add_paths(paths)
        assert [os.path.basename(e.path) for e in catalog.entries] == [
            "zz.so",
            "aa.so",
            "mm.so",
        ]


class TestResolveRecursive:
    def test_three_level_chain(self, dep_tree):
        catalog = add_paths([str(dep_tree / "app")])
        resolved = resolve_recursive(catalog, SearchConfig(default_dirs=()))
        names = [os.path.basename(e.path) for e in resolved.entries]
        assert names == ["app", "libA.so", "libB.so"]
        assert [e.provenance for e in resolved.entries] == [
            Provenance.EXPLICIT,
            Provenance.RECURSIVE,
            Provenance.RECURSIVE,
        ]
        assert resolved.unresolved == ()

    def test_matches_oracle_trace(self, dep_tree):
        catalog = add_paths([str(dep_tree / "app")])
        resolved = resolve_recursive(catalog, SearchConfig(default_dirs=()))
        assert set(resolved.paths) == oracle_loader_trace(str(dep_tree / "app"))

    def test_static_input_unchanged(self, tmp_path):
        lib = tmp_path / "static.so"
        write_elf(str(lib), symbols=[])
        catalog = add_paths([str(lib)])
        resolved = resolve_recursive(catalog, SearchConfig(default_dirs=()))
        assert resolved.entries == catalog.entries

    def test_shared_dependency_appears_once(self, tmp_path):
        write_elf(str(tmp_path / "libshared.so"), symbols=exported_funcs("s"), soname="libshared.so")
        for name in ("one", "two"):
            write_elf(
                str(tmp_path / name),
                symbols=exported_funcs(f"{name}_fn"),
                needed=["libshared.so"],
                runpath=str(tmp_path),
            )
        catalog = add_paths([str(tmp_path / "one"), str(tmp_path / "two")])
        resolved = resolve_recursive(catalog, SearchConfig(default_dirs=()))
        assert [os.path.basename(e.path) for e in resolved.entries] == [
            "one",
            "two",
            "libshared.so",
        ]

    def test_unresolved_reported_once_and_continues(self, tmp_path):
        write_elf(str(tmp_path / "libgood.so"), symbols=exported_funcs("g"), soname="libgood.so")
        app = tmp_path / "app"
        write_elf(
            str(app),
            symbols=exported_funcs("m"),
            needed=["libmissing.so", "libgood.so"],
            runpath=str(tmp_path),
        )
        resolved = resolve_recursive(add_paths([str(app)]), SearchConfig(default_dirs=()))
        assert len(resolved.unresolved) == 1
        missing = resolved.unresolved[0]
        assert missing.soname == "libmissing.so"
        assert missing.dependent == os.path.realpath(str(app))
        assert [os.path.basename(e.path) for e in resolved.entries] == ["app", "libgood.so"]

    def test_unparseable_dependency_reported(self, tmp_path):
        bad = tmp_path / "libbad.so"
        bad.write_bytes(b"\x7fELF\x01\x01\x01")  # magic then garbage
        app = tmp_path / "app"
        write_elf(str(app), needed=["libbad.so"], runpath=str(tmp_path))
        resolved = resolve_recursive(add_paths([str(app)]), SearchConfig(default_dirs=()))
        assert len(resolved.unresolved) == 1
        assert "truncated" in resolved.unresolved[0].reason

    def test_dependency_with_a_needed_offset_past_dynstr_reported(self, tmp_path):
        """Such a dependency fails like any malformed one: it is reported,
        the rest of the closure resolves, and given explicitly it is a read
        error."""
        bad = tmp_path / "libbad.so"
        write_elf(str(bad), symbols=exported_funcs("b"), soname="libbad.so")
        dynamic = reader.load_elf(str(bad)).section_named(".dynamic")
        data = bytearray(bad.read_bytes())
        struct.pack_into("<qQ", data, dynamic.offset, reader.DT_NEEDED, 10**6)
        bad.write_bytes(data)
        good = tmp_path / "libgood.so"
        write_elf(str(good), symbols=exported_funcs("g"), soname="libgood.so")
        app = tmp_path / "app"
        write_elf(
            str(app),
            symbols=exported_funcs("m"),
            needed=["libbad.so", "libgood.so"],
            runpath=str(tmp_path),
        )
        resolved = resolve_recursive(add_paths([str(app)]), SearchConfig(default_dirs=()))
        assert [os.path.basename(e.path) for e in resolved.entries] == ["app", "libgood.so"]
        [missing] = resolved.unresolved
        assert (missing.soname, missing.dependent) == ("libbad.so", os.path.realpath(str(app)))
        with pytest.raises(reader.Malformed) as raised:
            reader.load_elf(str(bad))
        assert missing.reason == str(raised.value)
        assert "NEEDED string offset 1000000 past table end" in missing.reason
        explicit = add_paths([str(bad), str(good)])
        assert explicit.read_errors == ((str(bad), missing.reason),)
        assert explicit.paths == (os.path.realpath(str(good)),)

    def test_idempotent(self, dep_tree):
        catalog = add_paths([str(dep_tree / "app")])
        once = resolve_recursive(catalog, SearchConfig(default_dirs=()))
        twice = resolve_recursive(once, SearchConfig(default_dirs=()))
        assert once.entries == twice.entries
        assert once.unresolved == twice.unresolved

    def test_closure_independent_of_input_order(self, dep_tree):
        write_elf(
            str(dep_tree / "other"),
            symbols=exported_funcs("other_fn"),
            needed=["libB.so"],
            runpath=str(dep_tree / "libs2"),
        )
        cfg = SearchConfig(default_dirs=())
        forward = resolve_recursive(
            add_paths([str(dep_tree / "app"), str(dep_tree / "other")]), cfg
        )
        backward = resolve_recursive(
            add_paths([str(dep_tree / "other"), str(dep_tree / "app")]), cfg
        )
        assert set(forward.paths) == set(backward.paths)

    def test_every_recursive_entry_reachable(self, dep_tree):
        catalog = add_paths([str(dep_tree / "app")])
        resolved = resolve_recursive(catalog, SearchConfig(default_dirs=()))
        from elfdb import reader

        reachable = set()
        frontier = [e.object for e in resolved.entries if e.provenance == Provenance.EXPLICIT]
        by_soname = {}
        for e in resolved.entries:
            soname = reader.dynamic_string(e.object, reader.DT_SONAME)
            if soname:
                by_soname[soname] = e
            by_soname.setdefault(os.path.basename(e.path), e)
        while frontier:
            obj = frontier.pop()
            for soname in reader.needed_libraries(obj):
                entry = by_soname.get(soname)
                if entry and entry.path not in reachable:
                    reachable.add(entry.path)
                    frontier.append(entry.object)
        for e in resolved.entries:
            if e.provenance == Provenance.RECURSIVE:
                assert e.path in reachable

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            resolve_recursive(corpus.CorpusCatalog())


class TestSearchOrder:
    def test_runpath_disables_rpath(self, tmp_path):
        rdir = tmp_path / "rpath_dir"
        ndir = tmp_path / "runpath_dir"
        rdir.mkdir()
        ndir.mkdir()
        write_elf(str(rdir / "libx.so"), symbols=exported_funcs("from_rpath"), soname="libx.so")
        write_elf(str(ndir / "libx.so"), symbols=exported_funcs("from_runpath"), soname="libx.so")
        app = tmp_path / "app"
        write_elf(
            str(app),
            needed=["libx.so"],
            rpath=str(rdir),
            runpath=str(ndir),
        )
        resolved = resolve_recursive(add_paths([str(app)]), SearchConfig(default_dirs=()))
        assert resolved.paths[1] == os.path.realpath(str(ndir / "libx.so"))

    def test_rpath_beats_library_path_without_runpath(self, tmp_path):
        rdir = tmp_path / "rpath_dir"
        ldir = tmp_path / "ld_dir"
        rdir.mkdir()
        ldir.mkdir()
        write_elf(str(rdir / "libx.so"), symbols=exported_funcs("one"), soname="libx.so")
        write_elf(str(ldir / "libx.so"), symbols=exported_funcs("two"), soname="libx.so")
        app = tmp_path / "app"
        write_elf(str(app), needed=["libx.so"], rpath=str(rdir))
        cfg = SearchConfig(ld_library_path=(str(ldir),), default_dirs=())
        resolved = resolve_recursive(add_paths([str(app)]), cfg)
        assert resolved.paths[1] == os.path.realpath(str(rdir / "libx.so"))

    def test_library_path_beats_runpath(self, tmp_path):
        ndir = tmp_path / "runpath_dir"
        ldir = tmp_path / "ld_dir"
        ndir.mkdir()
        ldir.mkdir()
        write_elf(str(ndir / "libx.so"), symbols=exported_funcs("one"), soname="libx.so")
        write_elf(str(ldir / "libx.so"), symbols=exported_funcs("two"), soname="libx.so")
        app = tmp_path / "app"
        write_elf(str(app), needed=["libx.so"], runpath=str(ndir))
        cfg = SearchConfig(ld_library_path=(str(ldir),), default_dirs=())
        resolved = resolve_recursive(add_paths([str(app)]), cfg)
        assert resolved.paths[1] == os.path.realpath(str(ldir / "libx.so"))

    def test_parent_rpath_reaches_grandchild(self, tmp_path):
        # libA has no paths of its own; libB resolves via app's RPATH
        libdir = tmp_path / "libs"
        libdir.mkdir()
        write_elf(str(libdir / "libB.so"), symbols=exported_funcs("b"), soname="libB.so")
        write_elf(
            str(libdir / "libA.so"),
            symbols=exported_funcs("a"),
            soname="libA.so",
            needed=["libB.so"],
        )
        app = tmp_path / "app"
        write_elf(str(app), needed=["libA.so"], rpath=str(libdir))
        resolved = resolve_recursive(add_paths([str(app)]), SearchConfig(default_dirs=()))
        assert [os.path.basename(p) for p in resolved.paths] == ["app", "libA.so", "libB.so"]

    def test_origin_substitution(self, tmp_path):
        write_elf(str(tmp_path / "liborigin.so"), symbols=exported_funcs("o"), soname="liborigin.so")
        app = tmp_path / "app"
        write_elf(str(app), needed=["liborigin.so"], runpath="$ORIGIN")
        resolved = resolve_recursive(add_paths([str(app)]), SearchConfig(default_dirs=()))
        assert len(resolved.entries) == 2

    def test_from_environment_copies_library_path(self, monkeypatch):
        monkeypatch.setenv("LD_LIBRARY_PATH", "/one:/two::/three")
        cfg = SearchConfig.from_environment()
        assert cfg.ld_library_path == ("/one", "/two", "/three")
