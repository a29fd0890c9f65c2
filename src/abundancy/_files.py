"""Atomic file writes, the one JSON writer, and the int-length check,
shared by every module that writes an output file."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Iterable

from .errors import BudgetError


def write_atomic(path: str | Path, data: bytes | Iterable[bytes]) -> None:
    """Write data, bytes or pieces of bytes in turn, to a temp file beside
    path, then rename it over path.

    A failed write or rename removes the temp file and leaves whatever was
    at path before untouched. No fsync: this guards against a crash of
    the process, not of the machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            if isinstance(data, bytes):
                fh.write(data)
            else:
                fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write obj atomically as sorted, indented, ASCII JSON and a newline."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    write_atomic(path, text.encode("ascii"))


def refuse_long_ints(values: Iterable[tuple[int, int]], what: str) -> None:
    """Raise BudgetError at the first (n, v) whose v str() cannot write.

    Python refuses to write an int of more decimal digits than
    sys.get_int_max_str_digits() (0: no limit), and so does int() on
    reading one back, so a file holding such a value is refused whole,
    before any of it is written. what names the values, as in "B(2, n)".
    """
    limit = sys.get_int_max_str_digits()
    if limit:
        bound = 10**limit
        for n, v in values:
            if abs(v) >= bound:
                raise BudgetError(
                    f"{what} at n={n} has more than {limit} digits, the "
                    "int-to-string limit of this interpreter "
                    "(sys.get_int_max_str_digits())"
                )
