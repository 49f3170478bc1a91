"""``repro.store`` — the shared content-addressed result store.

One protocol (:class:`~repro.store.base.ResultStore`), two
implementations:

* :class:`~repro.store.sqlite.SqliteStore` — one sqlite database file
  shared by every process on a host, with optional LRU eviction, TTL and
  a size cap; :class:`~repro.store.disk.DiskStore` is the same store
  rooted at a directory (``<root>/store.sqlite3``, default
  ``$REPRO_CACHE_DIR``);
* :class:`~repro.store.http.HTTPStore` — the client for ``python -m
  repro store-serve``, with bearer-token auth and exactly-once
  conditional puts, so fleet workers need no shared filesystem.

Stores travel through the engine as *locator* strings
(:func:`~repro.store.base.open_store` /
:func:`~repro.store.base.store_locator`): a directory path,
``sqlite://<path>``, or ``http(s)://host:port``.  See ``docs/store.md``.
"""

from repro.store.base import (
    CACHE_FORMAT_VERSION,
    STORE_ENV,
    ResultStore,
    StoreStats,
    decode_payload,
    encode_payload,
    open_store,
    store_locator,
)
from repro.store.disk import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    DiskStore,
    default_cache_root,
)
from repro.store.http import HTTPStore, StoreAuthError, StoreError, StoreServer, make_store_server
from repro.store.schema import (
    AUTH_HEADER,
    AUTH_SCHEME,
    STORE_SCHEMA_VERSION,
    TOKEN_ENV,
)
from repro.store.sqlite import SqliteStore

__all__ = [
    "AUTH_HEADER",
    "AUTH_SCHEME",
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "DiskStore",
    "HTTPStore",
    "ResultStore",
    "STORE_ENV",
    "STORE_SCHEMA_VERSION",
    "SqliteStore",
    "StoreAuthError",
    "StoreError",
    "StoreServer",
    "StoreStats",
    "TOKEN_ENV",
    "decode_payload",
    "default_cache_root",
    "encode_payload",
    "make_store_server",
    "open_store",
    "store_locator",
]
