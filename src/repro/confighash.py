"""Shared configuration-hashing helper for the experiment cache.

Both :class:`repro.uarch.config.MachineConfig` and
:class:`repro.core.config.RenoConfig` derive their cache digests here so the
key material can never silently diverge between the two config types.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict

#: Fields that are report labels with no effect on simulation results.
LABEL_FIELDS = ("name",)

#: How many config digests one process keeps.
DIGEST_SLOTS = 1024

#: ``(type, repr, exclude) -> digest``, oldest first.
_digests: dict[tuple, str] = {}
_digests_lock = threading.Lock()


def _reset_digests_lock() -> None:
    # A fork child inherits the lock in whatever state another parent
    # thread left it; the memo's dict itself is always consistent.
    global _digests_lock
    _digests_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_digests_lock)


def dataclass_digest(config, exclude: tuple[str, ...] = LABEL_FIELDS) -> str:
    """Stable SHA-256 over a config dataclass's behavioural fields.

    ``exclude`` names fields (labels) to leave out of the key material, so
    two configurations differing only in label share a digest — and thus a
    cache entry.

    Computed once per process for each ``(type(config), repr(config),
    exclude)``.  The memo is keyed by ``repr``, not by the dataclass's
    ``==``: ``1 == True == 1.0``, but their JSON, and so their digests,
    differ.
    """
    key = (type(config), repr(config), exclude)
    with _digests_lock:
        digest = _digests.get(key)
        if digest is None:
            fields = asdict(config)
            for field_name in exclude:
                fields.pop(field_name, None)
            payload = json.dumps(fields, sort_keys=True).encode()
            digest = hashlib.sha256(payload).hexdigest()
            if len(_digests) >= DIGEST_SLOTS:
                del _digests[next(iter(_digests))]
            _digests[key] = digest
    return digest
