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
    WriteRejected,
    register,
)
from .model import derive_export_import
from .reader import (
    DynamicEntry,
    ElfHeader,
    ElfIdent,
    ElfObject,
    Malformed,
    NotElf,
    Section,
    Segment,
    SymbolTableKind,
    load_elf,
    needed_libraries,
    open_elf,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CatalogEntry",
    "CorpusCatalog",
    "CorpusError",
    "DynamicEntry",
    "ElfHeader",
    "ElfIdent",
    "ElfObject",
    "ExportAborted",
    "ExportSummary",
    "HistogramReport",
    "Malformed",
    "NotElf",
    "Provenance",
    "QueryResult",
    "RegistrationFailure",
    "SearchConfig",
    "Section",
    "Segment",
    "Session",
    "SqlError",
    "StrategyMode",
    "SymbolTableKind",
    "UnknownPath",
    "UnresolvedDependency",
    "WriteRejected",
    "add_paths",
    "count_symbols",
    "demangle",
    "derive_export_import",
    "diff_symbols",
    "interposition_audit",
    "load_elf",
    "needed_libraries",
    "open_elf",
    "python_extension_check",
    "register",
    "resolve_recursive",
    "runpath",
    "symbol_histogram",
]
