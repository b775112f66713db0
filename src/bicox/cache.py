"""Versioned binary serialization of group tables.

Layout (version 2): an 8-byte magic, a little-endian header (version,
type string, rank, order, the full Coxeter matrix, length width), then
flat arrays (lengths as 8-bit when the maximum length fits, else 32-bit;
left and right multiplication as 32-bit ids; descent sets as n-bit masks
padded to whole bytes), and a trailing SHA-256 of everything before it.
Serialization is deterministic, so a round trip is bit-identical.

Version 1 files still load.  Their header also holds the longest-element
id, which must be the last id, and an inverse table follows the right
multiplication; no command reads it, so the loader skips it unchecked.

The blob is written and hashed part by part, straight from the table's
arrays, so saving a table holds no copy of the whole blob; loading hashes
and parses the file's bytes in place and copies only into the new table.
A sealed blob with ids out of range or out of length order, or with a
length distribution other than the Poincare polynomial's, is malformed.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .coxeter import (
    LENGTH_DTYPE,
    CoxeterMatrix,
    GroupTable,
    classify,
    layer_bounds,
    poincare_coefficients,
)
from .errors import CacheError, InternalCheckError, NotFiniteError

MAGIC = b"BICOXGT\x00"
VERSION = 2


def _mask_dtype(n: int) -> str:
    width = (n + 7) // 8
    if width == 1:
        return "<u1"
    if width == 2:
        return "<u2"
    raise CacheError(f"rank {n} masks not supported by the cache format")


def _parts(table: GroupTable) -> list:
    """The blob as a list of bytes-like parts, the last one the SHA-256 of
    all the others.

    Id arrays are passed as ``<i4`` views of the table's own int32 arrays,
    so the file holds the in-memory bytes of each id.
    """
    name = table.system.canonical_name.encode()
    n = table.rank
    len_width = 1 if int(table.length.max()) < 256 else 4
    mask_dtype = _mask_dtype(n)
    parts = [
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<H", len(name)),
        name,
        struct.pack("<IQ", n, table.order),
    ]
    for row in table.system.matrix.entries:
        parts.append(struct.pack(f"<{n}I", *row))
    parts.append(struct.pack("<B", len_width))
    parts.append(table.length.astype("<u1" if len_width == 1 else "<u4"))
    for ids in (table.left_mult, table.right_mult):
        parts.append(np.ascontiguousarray(ids, dtype="<i4"))
    for masks in (table.des_left, table.des_right):
        parts.append(np.ascontiguousarray(masks, dtype=mask_dtype))
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    parts.append(digest.digest())
    return parts


def deserialize(blob: bytes) -> GroupTable:
    if len(blob) < len(MAGIC) + 38 or blob[: len(MAGIC)] != MAGIC:
        raise CacheError("not a group table cache file")
    body = memoryview(blob)[:-32]
    if hashlib.sha256(body).digest() != blob[-32:]:
        raise CacheError("cache checksum mismatch")
    offset = len(MAGIC)

    def take(fmt):
        nonlocal offset
        size = struct.calcsize(fmt)
        values = struct.unpack_from(fmt, body, offset)
        offset += size
        return values

    def array(dtype, count, shape=None):
        nonlocal offset
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
        offset += arr.nbytes
        return arr if shape is None else arr.reshape(shape)

    try:
        (version,) = take("<I")
        if version not in (1, VERSION):
            raise CacheError(f"unsupported cache version {version}")
        (name_len,) = take("<H")
        offset += name_len  # the name is display metadata; the matrix is authoritative
        n, order = take("<IQ")
        rows = [take(f"<{n}I") for _ in range(n)]
        if version == 1 and (longest := take("<I")[0]) != order - 1:
            raise CacheError(f"malformed cache file: longest-element id {longest} is not the last")
        (len_width,) = take("<B")
        if len_width not in (1, 4):
            raise CacheError(f"malformed cache file: length width byte {len_width} is not 1 or 4")
        length = array(f"<u{len_width}", order).astype(LENGTH_DTYPE)
        left = array("<i4", order * n, (order, n)).astype(np.int32)
        right = array("<i4", order * n, (order, n)).astype(np.int32)
        if version == 1:
            offset += 4 * order  # the inverse table
        mask_dtype = _mask_dtype(n)
        des_left = array(mask_dtype, order).astype(np.uint16)
        des_right = array(mask_dtype, order).astype(np.uint16)
        if offset != len(body):
            raise CacheError("cache file has trailing or missing data")
        system = classify(CoxeterMatrix(rows))
        if system.order != order:
            raise CacheError("cached order disagrees with the stored matrix")
        # A sealed blob can still hold ids and masks that would index out of range.
        for ids in (left, right):
            if ids.min() < 0 or ids.max() >= order:  # ids >= 2**31 read negative
                raise CacheError("malformed cache file: element id out of range")
        if max(des_left.max(), des_right.max()) >= 1 << n:
            raise CacheError("malformed cache file: descent mask wider than the rank")
        table = GroupTable(  # which checks that ids are sorted by length from e
            system=system,
            order=int(order),
            length=length,
            left_mult=left,
            right_mult=right,
            des_left=des_left,
            des_right=des_right,
        )
        # Every walk down the table visits each length up to the last, so
        # that must be the positive-root count before the layers are cut.
        poincare = poincare_coefficients(system.components)
        if length[-1] != len(poincare) - 1 or not np.array_equal(
            np.diff(layer_bounds(table)), poincare
        ):
            raise CacheError("malformed cache file: lengths are not the Poincare polynomial's")
        return table
    except (struct.error, ValueError, OverflowError, NotFiniteError, InternalCheckError) as err:
        raise CacheError(f"malformed cache file: {err}") from err


def cache_path(cache_dir: str | Path, canonical_name: str) -> Path:
    return Path(cache_dir) / f"{canonical_name}.gt"


def save_table(table: GroupTable, cache_dir: str | Path) -> Path:
    path = cache_path(cache_dir, table.system.canonical_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write a sibling temporary file and rename it over the target, so a
    # crash or a concurrent writer never leaves a truncated cache file.
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as out:
            out.writelines(_parts(table))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_table(path: str | Path) -> GroupTable:
    path = Path(path)
    if not path.exists():
        raise CacheError(f"no cache file at {path}")
    return deserialize(path.read_bytes())
