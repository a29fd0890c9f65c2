"""Bulk tables of B(l, n) for n = 1..N via iterated divisor-sum passes.

Pass r turns t_r into t_{r+1}(m) = sum_{d|m} (m/d)^r t_r(d); starting from
the all-ones table, l-1 passes give B(l, .). Work is O(l N log N).

Values are exact. A fixed-width int64 path is used only when the a-priori
bound (N (ln N + 1))^{l-1} < 2^63 guarantees every intermediate fits
(B(l, n) <= sigma(n)^{l-1} <= (n (ln n + 1))^{l-1}); otherwise the
computation promotes to Python integers automatically.

Tables round-trip through a CSV file (header ``n,value``) plus a JSON
sidecar ``<path>.json`` holding {ell, nmax, format_version, sha256}.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import (
    BudgetError,
    ChecksumMismatch,
    MalformedTable,
    MetadataMismatch,
    TableLoadError,
    VersionMismatch,
)

FORMAT_VERSION = 1
DEFAULT_MAX_NMAX = 50_000_000


@dataclass(frozen=True, eq=False)
class ArithTable:
    """Immutable table of B(ell, n) for n = 1..nmax, 1-based indexing."""

    ell: int
    nmax: int
    values: object = field(repr=False)  # int64 ndarray or tuple of ints
    metadata: dict = field(repr=False)

    def __post_init__(self):
        if isinstance(self.values, np.ndarray):
            self.values.setflags(write=False)
        if self.nmax >= 1 and self[1] != 1:
            raise ValueError("corrupt table: value at n=1 must be 1")

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.nmax:
            raise IndexError(f"n out of range 1..{self.nmax}: {n}")
        return int(self.values[n - 1])

    def __len__(self) -> int:
        return self.nmax

    def values_float(self) -> np.ndarray:
        """Values as float64 (spec for bulk statistics; may round above 2^53)."""
        if isinstance(self.values, np.ndarray):
            return self.values.astype(np.float64)
        return np.array([float(v) for v in self.values], dtype=np.float64)


def _int64_safe(ell: int, nmax: int) -> bool:
    # sigma(n) <= n (ln n + 1) <= n * mult with the bit-length overshoot
    mult = max(nmax.bit_length(), 4)
    return (nmax * mult) ** (ell - 1) < 2**63


def _sieve_exact(ell: int, nmax: int) -> list[int]:
    t = [1] * nmax
    for r in range(1, ell):
        out = [0] * nmax
        for d in range(1, nmax + 1):
            td = t[d - 1]
            q = 1
            for m in range(d, nmax + 1, d):
                out[m - 1] += q**r * td
                q += 1
        t = out
    return t


def sieve_b(ell: int, nmax: int, *, max_nmax: int = DEFAULT_MAX_NMAX) -> ArithTable:
    """Table of B(ell, n), n = 1..nmax. Refuses nmax beyond max_nmax."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if nmax > max_nmax:
        raise BudgetError(
            f"nmax={nmax} exceeds the memory budget ({max_nmax}); "
            "raise max_nmax explicitly to proceed"
        )
    if _int64_safe(ell, nmax):
        t = np.ones(nmax, dtype=np.int64)
        for r in range(1, ell):
            t = _kernels.conv_pass(t, r)
        values: object = t
        dtype = "int64"
    else:
        values = tuple(_sieve_exact(ell, nmax))
        dtype = "object"
    meta = {
        "ell": ell,
        "nmax": nmax,
        "format_version": FORMAT_VERSION,
        "creation": {"algorithm": "divisor-sum passes", "dtype": dtype},
    }
    return ArithTable(ell=ell, nmax=nmax, values=values, metadata=meta)


# ---------------------------------------------------------------------------
# persistence

def _render_csv(table: ArithTable) -> bytes:
    lines = ["n,value"]
    lines.extend(f"{n},{table[n]}" for n in range(1, table.nmax + 1))
    lines.append("")
    return "\n".join(lines).encode("ascii")


def _write_atomic(path: Path, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it over path."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_table(table: ArithTable, path: str | Path) -> None:
    """Write CSV data plus the JSON sidecar <path>.json, each atomically.

    The sidecar is replaced last, so a reader sees either the old pair, the
    new pair, or a new CSV under the old sidecar, which fails its checksum.
    """
    path = Path(path)
    data = _render_csv(table)
    sidecar = {
        "ell": table.ell,
        "nmax": table.nmax,
        "format_version": FORMAT_VERSION,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    _write_atomic(path, data)
    _write_atomic(
        Path(str(path) + ".json"),
        (json.dumps(sidecar, sort_keys=True, indent=2) + "\n").encode("ascii"),
    )


def load_table(
    path: str | Path, *, ell: int | None = None, nmax: int | None = None
) -> ArithTable:
    """Load and validate a saved table.

    Checks, in order: sidecar readable, format_version, sha256 of the data
    file, row shape, and (when given) the caller's expected ell and nmax.
    """
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedTable(f"cannot read sidecar {sidecar_path}: {exc}") from exc
    if sidecar.get("format_version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"format_version {sidecar.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != sidecar.get("sha256"):
        raise ChecksumMismatch(f"sha256 mismatch for {path}")
    file_ell = sidecar.get("ell")
    file_nmax = sidecar.get("nmax")
    if ell is not None and file_ell != ell:
        raise MetadataMismatch(f"table has ell={file_ell}, caller expected ell={ell}")
    if nmax is not None and file_nmax != nmax:
        raise MetadataMismatch(
            f"table has nmax={file_nmax}, caller expected nmax={nmax}"
        )
    lines = data.decode("ascii").split("\n")
    if not lines or lines[0] != "n,value":
        raise MalformedTable("missing 'n,value' header")
    if lines[-1] != "":
        raise MalformedTable("data file not newline-terminated")
    rows = lines[1:-1]
    if len(rows) != file_nmax:
        raise MalformedTable(f"expected {file_nmax} rows, found {len(rows)}")
    out: list[int] = []
    for i, row in enumerate(rows, start=1):
        try:
            n_str, v_str = row.split(",")
            n = int(n_str)
            v = int(v_str)
        except ValueError as exc:
            raise MalformedTable(f"bad row {i}: {row!r}") from exc
        if n != i:
            raise MalformedTable(f"row {i} has n={n}")
        out.append(v)
    if out and max(out) < 2**63:
        values: object = np.array(out, dtype=np.int64)
    else:
        values = tuple(out)
    meta = {
        "ell": file_ell,
        "nmax": file_nmax,
        "format_version": FORMAT_VERSION,
        "creation": {"loaded_from": str(path)},
    }
    return ArithTable(ell=file_ell, nmax=file_nmax, values=values, metadata=meta)


# ---------------------------------------------------------------------------
# cache

def cache_dir() -> Path:
    env = os.environ.get("ABUNDANCY_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "abundancy"


def cached_sieve(ell: int, nmax: int, *, max_nmax: int = DEFAULT_MAX_NMAX) -> ArithTable:
    """sieve_b with a transparent on-disk cache keyed by (ell, nmax)."""
    directory = cache_dir()
    path = directory / f"b_ell{ell}_n{nmax}.csv"
    if path.exists():
        try:
            return load_table(path, ell=ell, nmax=nmax)
        except TableLoadError:
            pass  # stale or corrupt cache entry: recompute below
    table = sieve_b(ell, nmax, max_nmax=max_nmax)
    directory.mkdir(parents=True, exist_ok=True)
    save_table(table, path)
    return table
