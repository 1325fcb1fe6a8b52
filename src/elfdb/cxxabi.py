"""Itanium-ABI symbol demangling as a total function.

`demangle` calls `__cxa_demangle` from the host C++ runtime, which it
finds and loads via ctypes on the first "_Z" name (so a run that demangles
nothing never imports ctypes); when no runtime is present, or a name does
not decode, the input is returned unchanged.  Only "_Z"-prefixed names are
ever touched.  A name with an embedded NUL is left as it is, since C would
read only the part before the NUL.

The call is kept lean because it runs once per mangled symbol: no
`argtypes` conversion, a NULL status pointer (the ABI allows it; a NULL
result then means failure) and one `c_char_p` read of the result before
it is freed.
"""

from __future__ import annotations

from typing import Optional

# (__cxa_demangle, free, c_char_p) once probed; () when no runtime was found.
_runtime: Optional[tuple] = None


def _load_runtime() -> tuple:
    import ctypes
    import ctypes.util

    for lib_name in ("stdc++", "c++"):
        path = ctypes.util.find_library(lib_name)
        if path is None:
            continue
        try:
            fn = ctypes.CDLL(path).__cxa_demangle
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_void_p
        free = ctypes.CDLL(None).free
        # Without argtypes a pointer argument is passed as a C int.
        free.argtypes = [ctypes.c_void_p]
        return fn, free, ctypes.c_char_p
    return ()


def demangle(name: str) -> str:
    """Demangled form of `name`, or `name` itself when not decodable.

    Total: never raises.  Names without the "_Z" prefix pass through
    untouched regardless of the runtime's availability.
    """
    global _runtime
    if not name.startswith("_Z") or "\0" in name:
        return name
    if _runtime is None:
        _runtime = _load_runtime()
    if not _runtime:
        return name
    fn, free, c_char_p = _runtime
    try:
        encoded = name.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        # A lone surrogate outside surrogateescape's U+DC80-U+DCFF: no name
        # read from a file holds one, but a caller's string may.
        return name
    buf = fn(encoded, None, None, None)
    if not buf:
        return name
    try:
        return c_char_p(buf).value.decode("utf-8", "backslashreplace") or name
    finally:
        free(buf)
