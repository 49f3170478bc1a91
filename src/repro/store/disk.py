"""The directory-rooted result store (the ``$REPRO_CACHE_DIR`` tier).

A :class:`DiskStore` is a :class:`~repro.store.sqlite.SqliteStore` whose
database is ``<root>/store.sqlite3`` — the file ``repro store-serve``
opens by default — and whose locator is the root path itself, so a plain
directory path names it everywhere a store travels (``--cache-dir``,
``cache=`` arguments, pool tasks and fleet cells).
"""

from __future__ import annotations

import os
import sqlite3
import warnings
from pathlib import Path

from repro.store.sqlite import SqliteStore

#: Environment variable overriding the default store root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback store root when the environment variable is unset.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro-reno"


def default_cache_root() -> Path:
    """The active store root: ``$REPRO_CACHE_DIR`` or the home-dir default."""
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else DEFAULT_CACHE_DIR


class DiskStore(SqliteStore):
    """The result store in the database ``<root>/store.sqlite3``.

    A root that cannot be created, or a database there that cannot be
    opened, degrades to one ``RuntimeWarning`` and an in-memory database:
    the run finishes, without persistence (and in-process, since the
    store then exists only in this process).
    """

    #: Database file name under the root.
    DATABASE = "store.sqlite3"

    def __init__(self, root: str | Path | None = None):
        """Open the store rooted at ``root`` (default: the env-driven root)."""
        self.root = Path(root) if root is not None else default_cache_root()
        try:
            super().__init__(self.root / self.DATABASE)
        except (OSError, sqlite3.Error) as error:
            warnings.warn(
                f"simulation cache at {self.root} is not writable ({error}); "
                f"results will not be cached", RuntimeWarning, stacklevel=2)
            super().__init__(":memory:")

    @property
    def locator(self) -> str:
        """The root path (``sqlite://:memory:`` once degraded)."""
        return str(self.root) if isinstance(self.path, Path) else super().locator

    # Own entries rather than inherited ones: perfbench/spans.py wraps each
    # tier class's own get/put/claim, so a DiskStore call is timed once.
    get = SqliteStore.get
    put = SqliteStore.put
    claim = SqliteStore.claim
