"""Toolchain discovery and cached compilation of the generated kernel.

One shared object holds the entries, each ``(int64_t *sc, int64_t **pt,
uint8_t *)``: the cycle loop (:func:`load_kernel`), the functional run, the
critical-path walk and the records' static-column gather (the last two run
through :func:`call`).

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

#: The library's entries, in :data:`_cached` order.
_ENTRIES = ("repro_run", "repro_functional", "repro_critpath", "repro_gather")

#: Memoised load result: [tried, one entry or None per :data:`_ENTRIES`,
#: the build failure's message or None].
_cached: list = [False, *[None] * len(_ENTRIES), None]


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
    """Compile (once per source digest) and load every entry: ``[*entries,
    None]``, all None with no toolchain, or the entries None and the
    message last when the kernel fails to build or load."""
    missing = [None] * len(_ENTRIES)
    cc = toolchain()
    if cc is None:
        return [*missing, None]
    try:
        from repro.uarch.compiled.emit import kernel_source

        source = kernel_source()
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:20]
        library = ctypes.CDLL(_compile(cc, source, digest))
        entries = [getattr(library, name) for name in _ENTRIES]
    except Exception as error:
        detail = str(error)
        if isinstance(error, subprocess.CalledProcessError):
            stderr = error.stderr.decode("utf-8", "replace").splitlines()
            detail = "\n".join(stderr[-_STDERR_TAIL:]) or detail
        return [*missing,
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
    if _cached[-1] is not None:
        raise KernelBuildError(_cached[-1])
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


def load_critpath():
    """The compiled ``repro_critpath`` entry point (see :func:`load_kernel`)."""
    return _entry(3)


def load_gather():
    """The compiled ``repro_gather`` entry point (see :func:`load_kernel`)."""
    return _entry(4)


def call(entry, scalars: list[int], columns) -> list[int]:
    """Run ``entry`` on ``scalars`` and ``columns``; the scalars after."""
    from repro.uarch.compiled.marshal import address_of

    block = (ctypes.c_int64 * len(scalars))(*scalars)
    entry(block, (ctypes.c_void_p * len(columns))(*map(address_of, columns)),
          None)
    return block[:]


def reset_cache() -> None:
    """Forget the memoised load result (tests toggle REPRO_NO_CC)."""
    _cached[:] = [False, *[None] * len(_ENTRIES), None]
