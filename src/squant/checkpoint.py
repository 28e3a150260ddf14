"""Binary model checkpoints.

Layout: 4 magic bytes, uint32 LE format version, uint32 LE header length,
UTF-8 JSON header (config echo, named tensor index, calibration state),
then concatenated C-order little-endian float32 tensor payloads.

A checkpoint holds what the run needs and nothing else: the recipe it was
trained under, its float32 parameters and, for a student, its frozen
activation scales. A teacher has no calibration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

MAGIC = b"SQCK"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed, truncated, or version-incompatible checkpoint file."""


@dataclass
class Checkpoint:
    config: dict
    params: dict
    calibration: dict | None = None


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _index_entry(entry) -> tuple:
    """(name, shape, byte offset) of one tensor index entry."""
    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(_is_count(d) for d in entry["shape"])
        and _is_count(entry.get("offset"))
    ):
        raise CheckpointError(f"malformed tensor index entry {entry!r}")
    return entry["name"], tuple(entry["shape"]), entry["offset"]


def _tensor_index(params: dict) -> list:
    index = []
    offset = 0
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float32)
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    return index


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    index = _tensor_index(ckpt.params)
    header = {
        "config": ckpt.config,
        "tensors": index,
        "calibration": ckpt.calibration,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.uint32(VERSION).astype("<u4").tobytes())
        f.write(np.uint32(len(blob)).astype("<u4").tobytes())
        f.write(blob)
        for entry in index:
            arr = np.asarray(ckpt.params[entry["name"]], dtype=np.float32)
            f.write(np.ascontiguousarray(arr).astype("<f4").tobytes())


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise CheckpointError("truncated header")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    body = 12 + hlen
    if len(raw) < body:
        raise CheckpointError("truncated header")
    try:
        header = json.loads(raw[12:body].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"unreadable header: {e}") from e
    if not (isinstance(header, dict) and isinstance(header.get("config"), dict) and isinstance(header.get("tensors"), list)):
        raise CheckpointError("header needs a 'config' object and a 'tensors' list")
    calibration = header.get("calibration")
    if not (calibration is None or isinstance(calibration, dict)):
        raise CheckpointError("header 'calibration' must be an object or null")
    params, spans = {}, []
    for entry in header["tensors"]:
        name, shape, offset = _index_entry(entry)
        if name in params:
            raise CheckpointError(f"tensor {name!r} is listed twice")
        start, end = body + offset, body + offset + 4 * math.prod(shape)  # Python ints: no overflow
        if len(raw) < end:
            raise CheckpointError(f"truncated payload for tensor {name!r}")
        try:
            params[name] = np.frombuffer(raw[start:end], dtype="<f4").astype(np.float32).reshape(shape)
        except (ValueError, OverflowError) as e:  # a zero-size shape whose other dims numpy cannot hold
            raise CheckpointError(f"tensor {name!r} has an unusable shape {list(shape)}: {e}") from e
        spans.append((start, end, name))
    last = body
    for start, end, name in sorted(spans):
        if start < last:
            raise CheckpointError(f"payload of tensor {name!r} overlaps another")
        last = max(last, end)
    if last != len(raw):
        raise CheckpointError(f"{len(raw) - last} bytes after the last tensor payload")
    return Checkpoint(config=header["config"], params=params, calibration=calibration)
