"""Every public record is a read-only value: the constructions callers use
work, equal fields make equal records, and no attribute can be assigned."""

import pytest

from elfdb import analyses, corpus, disasm, engine, reader

from conftest import RUBY_LIKE

# Record name -> a function building one from a parsed ruby_like.so, with
# the keyword constructions callers use.
RECORDS = {
    "ElfIdent": lambda obj: obj.header.ident,
    "ElfHeader": lambda obj: obj.header,
    "Section": lambda obj: obj.section_named(".dynsym"),
    "Segment": lambda obj: obj.segments[0],
    "SymbolTable": lambda obj: obj.symbol_tables[0],
    "DynamicEntry": lambda obj: reader.DynamicEntry(ordinal=0, tag_code=reader.DT_NULL, value=0),
    "ElfObject": lambda obj: obj,
    "UnresolvedDependency": lambda obj: corpus.UnresolvedDependency(
        soname="libm.so.6", dependent=obj.path
    ),
    "CorpusCatalog": lambda obj: corpus.CorpusCatalog(),
    "SearchConfig": lambda obj: corpus.SearchConfig(default_dirs=()),
    "QueryResult": lambda obj: engine.QueryResult(columns=("n",), rows=((1,),)),
    "ExportSummary": lambda obj: engine.ExportSummary(tables=7, rows=1, per_table={"elf_headers": 1}),
    "HistogramReport": lambda obj: analyses.HistogramReport(
        columns=("bucket", "files"), rows=(("0-9", 1),), buckets=(("0-9", 1),)
    ),
    "Decoded": lambda obj: disasm.DEFAULT_DECODER.decode(b"\x90", 0, 0),
}


@pytest.fixture(scope="module")
def ruby_like():
    return reader.load_elf(RUBY_LIKE)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_a_read_only_value(name, ruby_like):
    record = RECORDS[name](ruby_like)
    assert type(record).__name__ == name
    fields = [getattr(record, field) for field in record._fields]
    # The positional constructor takes the fields in order.
    assert type(record)(*fields) == record
    for field in (record._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, record._fields[0])
    assert [getattr(record, field) for field in record._fields] == fields


def test_keyword_constructions_keep_their_defaults():
    assert reader.DynamicEntry(ordinal=0, tag_code=reader.DT_NULL, value=0).string is None
    assert corpus.CorpusCatalog().entries == ()
    assert corpus.SearchConfig(default_dirs=()).ld_library_path == ()
    assert corpus.UnresolvedDependency("libm.so.6", "/app").reason == "not found"
    assert analyses.HistogramReport(columns=(), rows=()).buckets == ()


def test_records_of_other_types_are_unequal():
    rows = (("0-9", 1),)
    result = engine.QueryResult(columns=("bucket", "files"), rows=rows)
    histogram = analyses.HistogramReport(columns=result.columns, rows=rows)
    assert result != histogram
    assert result == engine.QueryResult(columns=result.columns, rows=rows)
    assert histogram != analyses.HistogramReport(result.columns, rows, buckets=rows)
