"""Whole-file writes: a reader sees the old file or the new one, never part."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, *chunks) -> None:
    """Write `chunks` (bytes-like objects) to a temporary file beside `path`,
    then rename it over `path`: a failed write leaves any previous file whole
    and no temporary."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
