"""Canonical payload digests and the frozen reference set.

A payload digest hashes the payload's *values* — dataclass fields in
declaration order, array dtype/shape/bytes, floats bit for bit — so it
is the same for a payload computed in-process, merged from shards or
unpickled from a worker.  Pickle bytes are not: they depend on object
sharing, which differs between those paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional

import numpy as np

#: Frozen per-cell digests, keyed by digest group, then seed.
FROZEN_PATH = os.path.join(os.path.dirname(__file__), "digests.json")


def payload_digest(payload: Any) -> str:
    """SHA-256 (hex) of the payload's canonical encoding."""
    hasher = hashlib.sha256()
    _feed(hasher, payload)
    return hasher.hexdigest()


def _feed(h: "hashlib._Hash", value: Any) -> None:
    if value is None or isinstance(value, bool):
        h.update(f"{value!r};".encode())
    elif isinstance(value, str):
        encoded = value.encode()
        h.update(f"str:{len(encoded)}:".encode() + encoded)
    elif isinstance(value, int):
        h.update(f"int:{value};".encode())
    elif isinstance(value, float):
        h.update(f"float:{value.hex()};".encode())
    elif isinstance(value, bytes):
        h.update(f"bytes:{len(value)}:".encode() + value)
    elif isinstance(value, np.ndarray):
        h.update(f"ndarray:{value.dtype.str}:{value.shape}:".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        h.update(f"np:{value.dtype.str}:".encode() + value.tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}:{len(value)}[".encode())
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, (set, frozenset)):
        # Iteration order of a set is not a value: hash its members'
        # digests in sorted order.
        h.update(f"{type(value).__name__}:{len(value)}{{".encode())
        for member in sorted(payload_digest(item) for item in value):
            h.update(member.encode())
        h.update(b"}")
    elif isinstance(value, dict):
        h.update(f"dict:{len(value)}{{".encode())
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"{type(value).__qualname__}(".encode())
        for field in dataclasses.fields(value):
            h.update(f"{field.name}=".encode())
            _feed(h, getattr(value, field.name))
        h.update(b")")
    else:
        # An unknown type would hash by identity or not at all; a
        # digest that silently ignored fields could not catch drift.
        raise TypeError(f"no canonical encoding for {type(value)!r}")


def load_frozen() -> Dict[str, Any]:
    with open(FROZEN_PATH) as handle:
        return json.load(handle)


def frozen_digests(
    group: str, seed: int, sizes: Dict[str, Any]
) -> Optional[Dict[str, str]]:
    """``{cell_id: digest}`` frozen for this group and seed, or None.

    Digests are only valid for the sizes they were frozen at, so a
    size mismatch also yields None (``test_perfbench`` keeps the two
    in step).
    """
    entry = load_frozen()["groups"].get(group)
    if entry is None or entry.get("sizes") != sizes:
        return None
    return entry["seeds"].get(str(seed))
