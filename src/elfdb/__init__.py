"""elfdb: ELF object files as a relational database.

Parse single files or whole-system corpora, query them with SQL through an
in-process SQLite session, export snapshots to standard SQLite files, walk
shared-library dependency closures, and run canned binary-hygiene analyses.
"""

from .analyses import (
    AnalysisReport,
    HistogramReport,
    UnknownPath,
    count_symbols,
    diff_symbols,
    interposition_audit,
    python_extension_check,
    runpath,
    symbol_histogram,
)
from .corpus import (
    CatalogEntry,
    CorpusCatalog,
    CorpusError,
    Provenance,
    SearchConfig,
    UnresolvedDependency,
    add_paths,
    resolve_recursive,
)
from .demangle import demangle
from .engine import (
    ExportAborted,
    ExportSummary,
    QueryResult,
    RegistrationFailure,
    Session,
    SqlError,
    StrategyMode,
    TableStrategy,
    WriteRejected,
    register,
)
from .model import derive_export_import, string_rows, symbol_rows
from .reader import (
    DynamicEntry,
    ElfHeader,
    ElfIdent,
    ElfObject,
    Malformed,
    NotElf,
    RawSymbol,
    Section,
    Segment,
    SymbolTableKind,
    load_elf,
    needed_libraries,
    open_elf,
    resolve_symbol_version,
)

__version__ = "0.1.0"

# The benchmark harness is not needed to parse or query, so `elfdb.bench`
# loads on the first lookup of one of its names (PEP 562).
_BENCH_NAMES = frozenset(
    ("BenchResult", "GeneratedElfSpec", "Manifest", "Pipeline", "generate_elf", "run_benchmark")
)


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        from . import bench

        value = globals()[name] = getattr(bench, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisReport",
    "BenchResult",
    "CatalogEntry",
    "CorpusCatalog",
    "CorpusError",
    "DynamicEntry",
    "ElfHeader",
    "ElfIdent",
    "ElfObject",
    "ExportAborted",
    "ExportSummary",
    "GeneratedElfSpec",
    "HistogramReport",
    "Malformed",
    "Manifest",
    "NotElf",
    "Pipeline",
    "Provenance",
    "QueryResult",
    "RawSymbol",
    "RegistrationFailure",
    "SearchConfig",
    "Section",
    "Segment",
    "Session",
    "SqlError",
    "StrategyMode",
    "SymbolTableKind",
    "TableStrategy",
    "UnknownPath",
    "UnresolvedDependency",
    "WriteRejected",
    "add_paths",
    "count_symbols",
    "demangle",
    "derive_export_import",
    "diff_symbols",
    "generate_elf",
    "interposition_audit",
    "load_elf",
    "needed_libraries",
    "open_elf",
    "python_extension_check",
    "register",
    "resolve_recursive",
    "resolve_symbol_version",
    "run_benchmark",
    "runpath",
    "string_rows",
    "symbol_rows",
    "symbol_histogram",
]
