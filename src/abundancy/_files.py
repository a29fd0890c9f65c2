"""Atomic file writes shared by every module that writes an output file."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it over path.

    A failed write or rename removes the temp file and leaves whatever was
    at path before untouched. No fsync: this guards against a crash of
    the process, not of the machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
