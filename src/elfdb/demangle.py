"""Itanium-ABI symbol demangling as a total function.

The default decoder is `__cxa_demangle` from the host C++ runtime, loaded
via ctypes on the first "_Z" name (so a run that demangles nothing never
imports ctypes); when no runtime is present, or a name does not decode, the
input is returned unchanged.  Only "_Z"-prefixed names are ever touched.
The default decoder leaves a name with an embedded NUL as it is, since C
would read only the part before the NUL.

The call is kept lean because it runs once per mangled symbol: no
`argtypes` conversion, a NULL status pointer (the ABI allows it; a NULL
result then means failure) and one `c_char_p` read of the result before
it is freed.
"""

from __future__ import annotations

from typing import Callable, Optional

Decoder = Callable[[str], Optional[str]]

_cached_decoder: Optional[Decoder] = None
_probed = False


def _load_cxa_decoder() -> Optional[Decoder]:
    import ctypes
    import ctypes.util

    for lib_name in ("stdc++", "c++"):
        path = ctypes.util.find_library(lib_name)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path)
            fn = lib.__cxa_demangle
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_void_p
        free = ctypes.CDLL(None).free
        # Without argtypes a pointer argument is passed as a C int.
        free.argtypes = [ctypes.c_void_p]
        c_char_p = ctypes.c_char_p

        def decode(name: str) -> Optional[str]:
            if "\0" in name:
                return None
            buf = fn(name.encode("utf-8", "surrogateescape"), None, None, None)
            if not buf:
                return None
            try:
                return c_char_p(buf).value.decode("utf-8", "backslashreplace")
            finally:
                free(buf)

        return decode
    return None


def default_decoder() -> Optional[Decoder]:
    """The process-wide decoder, probed once; None when unavailable."""
    global _cached_decoder, _probed
    if not _probed:
        _cached_decoder = _load_cxa_decoder()
        _probed = True
    return _cached_decoder


def demangle(name: str) -> str:
    """Demangled form of `name`, or `name` itself when not decodable.

    Total: never raises.  Names without the "_Z" prefix pass through
    untouched regardless of decoder availability.
    """
    if not name.startswith("_Z"):
        return name
    decoder = _cached_decoder if _probed else default_decoder()
    if decoder is None:
        return name
    try:
        decoded = decoder(name)
    except Exception:
        return name
    return decoded if decoded else name
