"""Toolchain discovery and cached compilation of the generated kernel.

One shared object holds both entries of the translation unit:
:func:`load_kernel` hands out the cycle loop (``repro_run``) and
:func:`load_functional` the functional run (``repro_functional``).

The kernel C source (:func:`repro.uarch.compiled.emit.kernel_source`) is
compiled at most once per source digest: the shared object is cached under
a digest-named path, so repeated processes (workers, test runs) reuse the
artifact and only the very first use of a new kernel pays the compile.

Everything here fails *silently*: no toolchain, a compiler error, a
load error — any of them makes :func:`load_kernel` return None, which the
backend reports as "unavailable" and the pipeline falls back to the python
reference loop.  Set ``REPRO_NO_CC=1`` to force that path (the CI leg that
proves the fallback works runs the whole suite under it).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

#: Environment switch that makes the toolchain look absent.
ENV_NO_CC = "REPRO_NO_CC"
#: Override for the shared-object cache directory.
ENV_CACHE_DIR = "REPRO_KERNEL_CACHE"

#: Compiler candidates, tried in order.
_COMPILERS = ("cc", "gcc", "clang")

#: Memoised load result: [tried, repro_run or None, repro_functional or None].
_cached: list = [False, None, None]


def toolchain() -> str | None:
    """Path of a usable C compiler, or None (also None under REPRO_NO_CC)."""
    if os.environ.get(ENV_NO_CC):
        return None
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> str:
    """Directory holding compiled kernel shared objects."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _compile(cc: str, source: str, digest: str) -> str | None:
    """Compile ``source`` into the cache; returns the .so path or None."""
    directory = cache_dir()
    so_path = os.path.join(directory, f"kernel-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(directory, exist_ok=True)
        c_path = os.path.join(directory, f"kernel-{digest}.c")
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        # Compile to a private name and rename into place so concurrent
        # workers never load a half-written object.
        tmp_path = f"{so_path}.{os.getpid()}.tmp"
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp_path, c_path],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp_path, so_path)
        return so_path
    except Exception:
        return None


def _load() -> None:
    """Compile (once per source digest) and load both entries into
    :data:`_cached`; either stays None when anything fails."""
    _cached[0] = True
    cc = toolchain()
    if cc is None:
        return
    try:
        from repro.uarch.compiled.emit import kernel_source

        source = kernel_source()
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:20]
        so_path = _compile(cc, source, digest)
        if so_path is None:
            return
        library = ctypes.CDLL(so_path)
        entries = (library.repro_run, library.repro_functional)
        for entry in entries:
            entry.argtypes = [
                ctypes.POINTER(ctypes.c_int64),
                ctypes.POINTER(ctypes.c_void_p),
                ctypes.POINTER(ctypes.c_ubyte),
            ]
            entry.restype = ctypes.c_int64
        _cached[1:] = entries
    except Exception:
        _cached[1:] = [None, None]


def load_kernel():
    """The compiled ``repro_run`` entry point, or None when unavailable.

    The result is memoised for the process (including the None case), so
    the cost of a missing toolchain is one ``shutil.which`` scan.
    """
    if not _cached[0]:
        _load()
    return _cached[1]


def load_functional():
    """The compiled ``repro_functional`` entry point, or None when
    unavailable (memoised with :func:`load_kernel`)."""
    if not _cached[0]:
        _load()
    return _cached[2]


def reset_cache() -> None:
    """Forget the memoised load result (tests toggle REPRO_NO_CC)."""
    _cached[:] = [False, None, None]
