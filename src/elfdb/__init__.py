"""elfdb: ELF object files as a relational database.

Parse single files or whole-system corpora, query them with SQL through an
in-process SQLite session, export snapshots to standard SQLite files, walk
shared-library dependency closures, and run canned binary-hygiene analyses.

The package is a lazy namespace (PEP 562): `import elfdb` loads no
submodule, and a name of `__all__` or a submodule is imported on its first
lookup, so a command loads only the modules it runs.
"""

import sys

__version__ = "0.1.0"

# The submodule that defines each public name.
_DEFINED_IN = {
    "analyses": (
        "AnalysisReport", "HistogramReport", "UnknownPath", "count_symbols", "diff_symbols",
        "interposition_audit", "python_extension_check", "runpath", "symbol_histogram",
    ),
    "corpus": (
        "CatalogEntry", "CorpusCatalog", "CorpusError", "SearchConfig", "UnresolvedDependency",
        "add_paths", "resolve_recursive",
    ),
    "cxxabi": ("demangle",),
    "engine": (
        "ExportAborted", "ExportSummary", "QueryResult", "RegistrationFailure", "Session",
        "SqlError", "StrategyMode", "WriteRejected", "register",
    ),
    "model": ("derive_export_import",),
    "reader": (
        "DynamicEntry", "ElfHeader", "ElfIdent", "ElfObject", "FileChanged", "FileIdentity",
        "Malformed", "NotElf", "Section", "Segment", "SymbolTableKind", "load_elf",
        "needed_libraries", "open_elf",
    ),
}
_MODULE_OF = {name: module for module, names in _DEFINED_IN.items() for name in names}
_SUBMODULES = ("analyses", "bench", "cli", "corpus", "cxxabi", "disasm", "engine", "model", "reader")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The builtin rather than importlib.import_module, whose imports
    # `-X importtime` does not list.
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name in _MODULE_OF:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
