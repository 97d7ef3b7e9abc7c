"""Binary checkpoints: a JSON manifest followed by raw little-endian blobs.

Layout: 4-byte magic, uint32 format version, uint64 header length, UTF-8
JSON header, then tensor bytes at the offsets the header declares. The
header carries the full run configuration, the vocabulary and tag names,
so a checkpoint alone reproduces the preprocessing and decode setup.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .config import ValidationError
from .model import CaptionerModel

MAGIC = b"ACPK"
FORMAT_VERSION = 1
_DTYPE = "<f8"
_ITEMSIZE = np.dtype(_DTYPE).itemsize
_HEADER_KEYS = ("kind", "config", "vocab", "tags", "tensors")
_ENTRY_KEYS = ("name", "shape", "dtype", "offset")


@dataclass
class Checkpoint:
    kind: str                      # "caption" | "tagging"
    config: dict
    vocab: list[str] | None
    tags: list[str] | None
    tensors: dict[str, np.ndarray]
    epoch: int | None = None
    optimizer: dict[str, np.ndarray] = field(default_factory=dict)
    optimizer_step: int = 0


def model_state(model: CaptionerModel) -> dict[str, np.ndarray]:
    return {name: p.data for name, p in model.named_parameters()}


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write `ckpt` to `path` atomically: a write that fails leaves any
    previous file whole."""
    entries = []
    offset = 0
    blobs = []
    for group, tensors in (("", ckpt.tensors), ("opt.", ckpt.optimizer)):
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype=_DTYPE)
            entries.append({
                "name": group + name,
                "shape": list(arr.shape),
                "dtype": _DTYPE,
                "offset": offset,
            })
            blobs.append(arr.tobytes())
            offset += arr.nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "kind": ckpt.kind,
        "config": ckpt.config,
        "vocab": ckpt.vocab,
        "tags": ckpt.tags,
        "epoch": ckpt.epoch,
        "optimizer_step": ckpt.optimizer_step,
        "tensors": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    write_atomic(path, MAGIC, struct.pack("<I", FORMAT_VERSION),
                 struct.pack("<Q", len(header_bytes)), header_bytes, *blobs)


def _words(value) -> bool:
    """None or a list of strings: a vocabulary or tag list."""
    return value is None or (isinstance(value, list)
                             and all(isinstance(v, str) for v in value))


def _count(value) -> bool:
    """None or an integer: an epoch or step count."""
    return value is None or (isinstance(value, int) and not isinstance(value, bool))


def _tensor_entry(path, entry, body_size: int) -> tuple[str, tuple[int, ...], int]:
    """(name, shape, offset) of a header tensor entry that fits the body."""
    if not isinstance(entry, dict) or any(k not in entry for k in _ENTRY_KEYS):
        raise ValidationError(f"{path}: tensor entry lacks one of {list(_ENTRY_KEYS)}")
    name, shape, start = entry["name"], entry["shape"], entry["offset"]
    if entry["dtype"] != _DTYPE:
        raise ValidationError(
            f"{path}: tensor {name!r} has dtype {entry['dtype']!r}, expected {_DTYPE!r}")
    if not (isinstance(name, str) and isinstance(shape, list)
            and all(isinstance(n, int) and n >= 0 for n in shape)
            and isinstance(start, int) and start >= 0):
        raise ValidationError(f"{path}: tensor {name!r} has a bad name, shape or offset")
    if start + _ITEMSIZE * math.prod(shape) > body_size:
        raise ValidationError(
            f"{path}: tensor {name!r} (shape {shape} at offset {start}) runs past "
            f"the {body_size}-byte body")
    return name, tuple(shape), start


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, checking the header against the file. Tensors are
    read-only views of the file's bytes, so consumers copy what they keep."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValidationError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise ValidationError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<IQ", raw, 4)
    if version > FORMAT_VERSION:
        raise ValidationError(
            f"{path}: checkpoint format version {version} is newer than the "
            f"supported version {FORMAT_VERSION}")
    if 16 + header_len > len(raw):
        raise ValidationError(
            f"{path}: truncated checkpoint (header of {header_len} bytes runs "
            f"past the end of the file)")
    try:
        header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON
        raise ValidationError(f"{path}: unreadable checkpoint header ({exc})") from None
    if (not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS)
            or not isinstance(header["tensors"], list)):
        raise ValidationError(f"{path}: checkpoint header lacks one of {list(_HEADER_KEYS)}")
    if not (isinstance(header["kind"], str) and isinstance(header["config"], dict)
            and all(_words(header[k]) for k in ("vocab", "tags"))
            and _count(header.get("epoch")) and _count(header.get("optimizer_step"))):
        raise ValidationError(f"{path}: checkpoint header has a field of the wrong type")
    body = memoryview(raw)[16 + header_len:]
    tensors: dict[str, np.ndarray] = {}
    optimizer: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        name, shape, start = _tensor_entry(path, entry, len(body))
        arr = np.frombuffer(body, dtype=_DTYPE, count=math.prod(shape),
                            offset=start).reshape(shape)
        if name.startswith("opt."):
            optimizer[name[4:]] = arr
        else:
            tensors[name] = arr
    return Checkpoint(
        kind=header["kind"], config=header["config"], vocab=header["vocab"],
        tags=header["tags"], tensors=tensors, epoch=header.get("epoch"),
        optimizer=optimizer, optimizer_step=header.get("optimizer_step") or 0)


def load_model_state(model: CaptionerModel, tensors: dict[str, np.ndarray],
                     prefix: str | None = None) -> list[str]:
    """Load stored tensors into the model, validating shapes. With a prefix,
    only matching parameters are touched. A trainable parameter gets a copy
    of the stored values; a placeholder (an inference model built with seed
    None) becomes the stored array itself, so a loaded checkpoint's
    read-only view serves. Returns the loaded names."""
    loaded = []
    for name, param in model.named_parameters():
        if prefix is not None and not name.startswith(prefix):
            continue
        if name not in tensors:
            raise ValueError(f"checkpoint is missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != param.data.shape:
            raise ValueError(
                f"shape mismatch for tensor {name!r}: checkpoint has "
                f"{arr.shape}, model expects {param.data.shape}")
        if param.requires_grad:
            param.data[...] = arr
        else:
            param.data = arr
        loaded.append(name)
    return loaded
