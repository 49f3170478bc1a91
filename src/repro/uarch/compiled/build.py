"""Toolchain discovery and cached compilation of the generated kernel.

One shared object holds both entries of the translation unit:
:func:`load_kernel` hands out the cycle loop (``repro_run``) and
:func:`load_functional` the functional run (``repro_functional``).

The kernel C source (:func:`repro.uarch.compiled.emit.kernel_source`) is
compiled at most once per source digest: the shared object is cached under
a digest-named path, so repeated processes (workers, test runs) reuse the
artifact and only the very first use of a new kernel pays the compile.

Only a missing toolchain is quiet: with no C compiler on the path, or
``REPRO_NO_CC=1`` set, :func:`load_kernel` returns None, the backend
reports itself unavailable and ``compiled`` resolves to the python
reference loop (the CI leg that proves the fallback works runs under
``REPRO_NO_CC``).  With a compiler present, a kernel that fails to compile
or load raises :class:`KernelBuildError` from every loader, carrying the
compiler's error output; the failure is memoised like a success.
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

#: Lines of the compiler's error output a :class:`KernelBuildError` keeps.
_STDERR_TAIL = 20

#: Memoised load result: [tried, repro_run or None, repro_functional or
#: None, the build failure's message or None].
_cached: list = [False, None, None, None]


class KernelBuildError(RuntimeError):
    """A C toolchain is present, but the kernel did not compile or load."""


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


def _compile(cc: str, source: str, digest: str) -> str:
    """Compile ``source`` into the cache and return the .so path.

    Raises :class:`subprocess.CalledProcessError` when the compiler
    rejects the source.
    """
    directory = cache_dir()
    so_path = os.path.join(directory, f"kernel-{digest}.so")
    if os.path.exists(so_path):
        return so_path
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


def _load() -> list:
    """Compile (once per source digest) and load both entries: ``[repro_run,
    repro_functional, None]``, ``[None, None, None]`` with no toolchain, or
    ``[None, None, message]`` when the kernel fails to build or load."""
    cc = toolchain()
    if cc is None:
        return [None, None, None]
    try:
        from repro.uarch.compiled.emit import kernel_source

        source = kernel_source()
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:20]
        library = ctypes.CDLL(_compile(cc, source, digest))
        entries = [library.repro_run, library.repro_functional]
    except Exception as error:
        detail = str(error)
        if isinstance(error, subprocess.CalledProcessError):
            stderr = error.stderr.decode("utf-8", "replace").splitlines()
            detail = "\n".join(stderr[-_STDERR_TAIL:]) or detail
        return [None, None,
                f"the compiled kernel failed to build or load with {cc}:\n"
                f"{detail}\nSet {ENV_NO_CC}=1 to run on the python backend "
                f"instead"]
    for entry in entries:
        entry.argtypes = [
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_void_p),
            ctypes.POINTER(ctypes.c_ubyte),
        ]
        entry.restype = ctypes.c_int64
    return [*entries, None]


def _entry(index: int):
    """Memoised entry ``index`` of :data:`_cached`, loading on first use
    (one list assignment, so a concurrent caller never sees a half-done
    load)."""
    if not _cached[0]:
        _cached[:] = [True, *_load()]
    if _cached[3] is not None:
        raise KernelBuildError(_cached[3])
    return _cached[index]


def load_kernel():
    """The compiled ``repro_run`` entry point, or None when no toolchain is
    found; raises :class:`KernelBuildError` when one is but the kernel
    does not build.

    The result is memoised for the process (including the None case and
    the failure), so the cost of a missing toolchain is one
    ``shutil.which`` scan.
    """
    return _entry(1)


def load_functional():
    """The compiled ``repro_functional`` entry point (memoised with
    :func:`load_kernel`, which says when it is None or raises)."""
    return _entry(2)


def reset_cache() -> None:
    """Forget the memoised load result (tests toggle REPRO_NO_CC)."""
    _cached[:] = [False, None, None, None]
