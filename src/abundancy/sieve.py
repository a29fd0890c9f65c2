"""Bulk tables of B(l, n) for n = 1..N via iterated divisor-sum passes.

Pass r turns t_r into t_{r+1}(m) = sum_{d|m} (m/d)^r t_r(d); starting from
the all-ones table, l-1 passes give B(l, .). A pass applies the Euler
factor of each prime q <= N, t(kq) += q^r t(k) for k ascending, so the work
is O(l N log log N).

Values are exact. The primes <= N are sieved once per table, and each
pass is one _kernels.conv_pass over an int64 stack with weights q^r at
those primes. When the a-priori bound 3 (bit_length(N) + 1) N^{l-1} < 2^63
guarantees every intermediate fits, since B(l, n) <= (1 + ln n)
zeta(2) ... zeta(l-1) n^{l-1} (_bound proves it), the stack is one row of
values and has no modulus. Otherwise it has one row of residues per prime
p_i, weights mod p_i too, and each value is rebuilt from its k residues
by Garner's mixed-radix CRT into a Python int. Each prime satisfies
p^2 (2 isqrt(N) + 2) < 2^63 (24 bits at N = 5e7, 26 at 2e5), which is
more than a pass needs: a slot takes one product below p^2 per prime
dividing it, fewer than log2(N) + 1, before it is reduced mod p. The
primes' product exceeds the bound 2^8-fold, and every value's top Garner
digit is checked against the bound, so a corrupt residue raises
ArithmeticError instead of yielding a wrong value.

Tables round-trip through a CSV file (header ``n,value``) plus a JSON
sidecar ``<path>.json`` holding {ell, nmax, format_version, sha256}. Both
are written atomically; the CSV is rendered, hashed and written RUN rows at
a time. An int64 table is rendered in bulk NumPy passes: n and each value
are split into 4-digit groups, each group becomes its ASCII in one lookup,
and the leading zeros are dropped. A table of Python ints is rendered by
%-formatting. The loader parses a file in the canonical form save_table
writes in bulk NumPy passes too (separator positions, then np.fromstring,
512 KiB a step), and any other file row by row; the checks, and the typed
errors they raise, are the same on both paths.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Iterator

import numpy as np

from . import _kernels
from ._files import refuse_long_ints, write_atomic, write_json
from .core import _prime_array
from .errors import (
    DEFAULT_MAX_NMAX,
    BudgetError,
    ChecksumMismatch,
    MalformedTable,
    MetadataMismatch,
    VersionMismatch,
)

FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class ArithTable:
    """Immutable table of B(ell, n) for n = 1..nmax, 1-based indexing."""

    ell: int
    nmax: int
    values: object = field(repr=False)  # int64 ndarray or tuple of ints
    metadata: dict = field(repr=False)

    def __post_init__(self):
        if len(self.values) != self.nmax:
            raise ValueError(
                f"table of nmax={self.nmax} given {len(self.values)} values"
            )
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


def _bound(ell: int, nmax: int) -> int:
    """3 (bit_length(nmax) + 1) nmax^(ell-1): at least every B(ell, n) with
    n <= nmax, and every number the int64 passes form on the way.

    Lemma: B(ell, n) <= sigma_{-1}(n) zeta(2) ... zeta(ell-1) n^(ell-1)
    < 3 (1 + ln n) n^(ell-1).
    Proof: B(ell, n) sums prod_r f_r^(ell-r) over the ordered factorizations
    f_1 ... f_ell = n. Divided by n^(ell-1) = prod_r f_r^(ell-1), a term is
    prod_{r>=2} f_r^-(r-1), and f_1 is fixed by the others. Keep f_2 | n and
    drop the constraint on f_3, ..., f_ell: each f_r then runs over all
    positive integers, which gives sigma_{-1}(n) zeta(2) ... zeta(ell-1).
    Then sigma_{-1}(n) = sum_{d|n} 1/d <= H_n <= 1 + ln n, and the product
    of zeta(j) over all j >= 2 is 2.2948... < 3. In integers: n < 2^b for
    b = bit_length(n) and ln 2 < 1, so ln n < b; the bound grows with n,
    so its value at nmax covers every n <= nmax.

    Mid-pass safety of the int64 path: pass r turns B(r, .) into
    B(r+1, .), and B(r+1, m) <= B(ell, m) since a pass keeps its d = m term
    t_r(m) with weight 1. The pass applies one prime's Euler factor at a
    time; after any set S of primes, slot m holds the sum of the terms
    (m/d)^r t_r(d) with every prime of m/d in S, a sub-sum of the pass's
    terms. Every term is non-negative, so that is at most the slot's final
    value, and so is each product q^r t(k) added to slot m = kq, itself a
    sub-sum of the terms of m. Every weight q^r <= nmax^(ell-1) is below
    the bound too. The moduli and the CRT's corruption check read the same
    bound.
    """
    return 3 * (nmax.bit_length() + 1) * nmax ** (ell - 1)


def _int64_safe(ell: int, nmax: int) -> bool:
    return _bound(ell, nmax) < 2**63


def _prime_bits(nmax: int) -> int:
    """Widest b with 2^(2b) (2 isqrt(nmax) + 2) <= 2^63.

    A slot holds a residue below p and takes one product below p^2 per
    prime dividing it, fewer than log2(nmax) + 1 <= 2 isqrt(nmax) + 1 of
    them, before the pass reduces it mod p; primes below 2^b keep that sum
    in int64, with room to spare.
    """
    slots = 2 * math.isqrt(nmax) + 2
    return (63 - (slots - 1).bit_length()) // 2


@cache
def _window_primes(bits: int, window: int) -> tuple[int, ...]:
    """The primes in [hi - RUN, hi), hi = 2^bits - window RUN, descending,
    sieved with the primes up to sqrt(hi). Kept for the process, since
    every residue table of a width reads the same windows from the top."""
    hi = (1 << bits) - window * _kernels.RUN
    lo = hi - _kernels.RUN  # well above every small prime
    small = _prime_array(math.isqrt(hi))
    mask = np.ones(_kernels.RUN, dtype=bool)
    for s, first in zip(small.tolist(), ((-lo) % small).tolist()):
        mask[first::s] = False
    return tuple(reversed((np.flatnonzero(mask) + lo).tolist()))


def _moduli(ell: int, nmax: int) -> list[int]:
    """The largest primes below 2^_prime_bits(nmax), descending, whose
    product exceeds _bound(ell, nmax) * 2^8."""
    bits = _prime_bits(nmax)
    need = _bound(ell, nmax) << 8
    primes: list[int] = []
    prod = 1
    for window in itertools.count():
        for c in _window_primes(bits, window):
            primes.append(c)
            prod *= c
            if prod > need:
                return primes


def _crt(res: np.ndarray, primes: list[int], bound: int) -> tuple[int, ...]:
    """Values in [0, bound] from their residues, by Garner's mixed-radix CRT.

    res[i] holds the values mod primes[i]. Value x has the digits v_i of
    x = v_0 + v_1 P_1 + ... + v_{k-1} P_{k-1}, P_i = p_0 ... p_{i-1}, so
    v_i = (x - (v_0 + ... + v_{i-1} P_{i-1})) P_i^-1 mod p_i. The digits are
    found in int64 and the values built as Python ints, RUN columns at a
    time. The primes' product exceeds the bound 2^8-fold, so a top digit past
    bound // P_{k-1} means a residue was wrong: ArithmeticError.
    """
    k = len(primes)
    col = np.array(primes, dtype=np.int64)[:, None]
    # radix[i, j] = P_j mod p_i for j < i, and inv[i] = P_i^-1 mod p_i
    radix = np.zeros((k, k), dtype=np.int64)
    inv = []
    for i, p in enumerate(primes):
        P = 1
        for j in range(i):
            radix[i, j] = P
            P = P * primes[j] % p
        inv.append(pow(P, -1, p))
    top = bound // math.prod(primes[:-1])
    # terms of a digit's dot product summed before a reduction, each < p^2
    group = (1 << 62) // max(primes) ** 2
    # two digits make one int64 word, v_i + v_{i+1} p_i < p_i p_{i+1}, which
    # halves the Python-int steps
    word_radix = [a * b for a, b in zip(primes[0::2], primes[1::2])]
    values: list[int] = []
    for lo in range(0, res.shape[1], _kernels.RUN):
        x = res[:, lo : lo + _kernels.RUN]
        v = np.empty_like(x)
        for i, p in enumerate(primes):
            s = np.zeros(x.shape[1], dtype=np.int64)
            for j in range(0, i, group):
                j_hi = min(i, j + group)
                s = (s + radix[i, j:j_hi] @ v[j:j_hi]) % p
            v[i] = (x[i] - s) % p * inv[i] % p
        bad = np.flatnonzero(v[-1] > top)
        if bad.size:
            raise ArithmeticError(
                f"residues at n={lo + int(bad[0]) + 1} rebuild a value past the "
                f"bound {bound}: the residue stack is corrupt"
            )
        words = v[0::2].copy()
        words[: k // 2] += v[1::2] * col[0 : k - 1 : 2]
        run = words[-1].tolist()
        for j in range(len(words) - 2, -1, -1):
            r = word_radix[j]
            run = [a * r + b for a, b in zip(run, words[j].tolist())]
        values.extend(run)
    return tuple(values)


def sieve_b(ell: int, nmax: int, *, max_nmax: int = DEFAULT_MAX_NMAX) -> ArithTable:
    """Table of B(ell, n), n = 1..nmax. Refuses nmax beyond max_nmax."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if nmax > max_nmax:
        raise BudgetError(
            f"nmax={nmax} exceeds the memory budget ({max_nmax}); "
            "raise max_nmax explicitly to proceed"
        )
    creation = {"algorithm": "divisor-sum passes"}
    # one row of values, or one row of residues per prime
    moduli = None if _int64_safe(ell, nmax) else _moduli(ell, nmax)
    p = None if moduli is None else np.array(moduli, dtype=np.int64)[:, None]
    t = np.ones((1 if p is None else len(p), nmax), dtype=np.int64)
    primes = _prime_array(nmax)
    plan = _kernels.conv_plan(primes, nmax)
    w = np.ones((len(t), len(primes)), dtype=np.int64)
    for r in range(1, ell):
        w *= primes  # q^r from q^(r-1)
        if p is not None:
            w %= p
        t = _kernels.conv_pass(t, w, plan, p)
    del w, plan, primes  # not needed while the values are built
    if moduli is None:
        values = t[0]
        creation["dtype"] = "int64"
    else:
        values = _crt(t, moduli, _bound(ell, nmax))
        creation.update(dtype="object", primes=len(moduli))
    meta = {
        "ell": ell,
        "nmax": nmax,
        "format_version": FORMAT_VERSION,
        "creation": creation,
    }
    return ArithTable(ell=ell, nmax=nmax, values=values, metadata=meta)


# ---------------------------------------------------------------------------
# persistence

_HEADER = b"n,value\n"
_ROW = "%d,%d\n"
_GROUP = 10_000  # one group of 4 decimal digits
# comma, comma and minus, and newline as uint32 words, NUL-padded
_COMMA, _COMMA_MINUS, _NEWLINE = np.frombuffer(
    b",\0\0\0,-\0\0\n\0\0\0", dtype=np.uint32
).tolist()


@cache
def _group_ascii() -> np.ndarray:
    """The ASCII of each group 0..9999 as a uint32 word, in 3 tables of 10^4.

    Table 0 has all four digits, for a group below a nonzero group. Table 1
    has the group's leading zeros as NUL, for the top group of a number;
    table 2 too, but keeps the units digit, for a number's only group, so
    that 0 renders as "0".
    """
    g = np.arange(_GROUP)
    ascii_ = np.empty((3, _GROUP, 4), dtype=np.uint8)
    for j in range(4):  # j-th digit from the right
        digit = 48 + g // 10**j % 10
        lead = g < 10**j
        ascii_[0, :, 3 - j] = digit
        ascii_[1, :, 3 - j] = np.where(lead, 0, digit)
        ascii_[2, :, 3 - j] = np.where(lead & (j > 0), 0, digit)
    return ascii_.view(np.uint32).ravel()


def _put_digits(words: np.ndarray, x: np.ndarray) -> None:
    """Write the digits of each uint64 x, 4 per word, right-aligned into
    the columns of words; every column left of the top digit turns NUL."""
    table = _group_ascii()
    last = words.shape[1] - 1
    for j in range(last, -1, -1):
        q = x // _GROUP
        idx = x - q * _GROUP
        idx += (q == 0) * np.uint64(2 * _GROUP if j == last else _GROUP)
        np.take(table, idx, out=words[:, j])
        x = q


def _groups(x: int) -> int:
    # 4-digit groups in the decimal digits of x >= 0
    return -(-len(str(x)) // 4)


def _render_csv(table: ArithTable) -> Iterator[bytes]:
    """The data file's bytes in pieces: the header, then one piece per run
    of RUN rows "n,value" and a newline. An int64 table is rendered by
    _render_int64, any other by %-formatting.
    """
    yield _HEADER
    values = table.values
    int64 = isinstance(values, np.ndarray) and values.dtype == np.int64
    for start in range(0, table.nmax, _kernels.RUN):
        run = values[start : start + _kernels.RUN]
        yield _render_int64(run, start) if int64 else _render_rows(run, start)


def _render_int64(run: np.ndarray, start: int) -> bytes:
    """The rows of n = start+1, start+2, ... and the int64 values in run.

    Each row is laid out in uint32 words: the groups of n, "," or ",-",
    the groups of |value|, a newline, with as many groups as the run's
    largest n and |value| need. Leading zeros are written as NUL and
    deleted, with the words' padding, by one bytes.translate.
    """
    k = len(run)
    neg = run < 0
    mag = run.view(np.uint64).copy()
    np.negative(mag, out=mag, where=neg)  # |-2^63| = 2^63 fits uint64
    gn, gv = _groups(start + k), _groups(int(mag.max()))
    words = np.empty((k, gn + gv + 2), dtype=np.uint32)
    _put_digits(words[:, :gn], np.arange(start + 1, start + k + 1, dtype=np.uint64))
    words[:, gn] = np.where(neg, _COMMA_MINUS, _COMMA)
    _put_digits(words[:, gn + 1 : -1], mag)
    words[:, -1] = _NEWLINE
    return words.tobytes().translate(None, b"\0")


def _render_rows(run, start: int) -> bytes:
    # One %-format call renders a run of rows: the cells alternate n, value.
    cells = [0] * (2 * len(run))
    cells[0::2] = range(start + 1, start + 1 + len(run))
    cells[1::2] = run
    return (_ROW * len(run) % tuple(cells)).encode("ascii")


def save_table(table: ArithTable, path: str | Path) -> None:
    """Write CSV data plus the JSON sidecar <path>.json, each atomically.

    The data is rendered, hashed and written a run of rows at a time. The
    sidecar is replaced last, so a reader sees either the old pair, the
    new pair, or a new CSV under the old sidecar, which fails its checksum.
    A value too long for str() raises BudgetError before either is written.
    """
    path = Path(path)
    if not isinstance(table.values, np.ndarray):  # int64 has 19 digits at most
        refuse_long_ints(enumerate(table.values, 1), f"B({table.ell}, n)")
    digest = hashlib.sha256()

    def pieces():
        for piece in _render_csv(table):
            digest.update(piece)
            yield piece

    write_atomic(path, pieces())
    write_json(Path(str(path) + ".json"), {
        "ell": table.ell,
        "nmax": table.nmax,
        "format_version": FORMAT_VERSION,
        "sha256": digest.hexdigest(),
    })


def _read_sidecar(sidecar_path: Path) -> dict:
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedTable(f"cannot read sidecar {sidecar_path}: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise MalformedTable(f"sidecar {sidecar_path} is not a JSON object")
    if sidecar.get("format_version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"format_version {sidecar.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    for key in ("ell", "nmax"):
        value = sidecar.get(key)
        if type(value) is not int or value < 1:
            raise MalformedTable(
                f"sidecar {sidecar_path}: {key} must be a positive integer, "
                f"got {value!r}"
            )
    return sidecar


# Bytes of a data file parsed per bulk step, cut back to a row's end; a
# canonical row has at most 38.
_PARSE_CHUNK = 32 * _kernels.RUN
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")


def _parse_canonical(data: bytes, nmax: int) -> np.ndarray | None:
    """The values of a canonical int64 data file, parsed in bulk, else None.

    Canonical: the header, then rows n,value for n = 1..nmax, each of
    1 to 18 digits, each row ending in a newline. This is what save_table
    writes for values below 10^18. Anything else (signs, spaces, blank
    lines, a third column, a wrong n, a longer value) returns None. What
    it accepts passes load_table's whole-file checks: only digits, commas
    and newlines (ASCII), the header first, chunks that end at newlines
    and cover the file, and nmax rows.

    The header is checked once; the rest of the file is taken in chunks of
    about _PARSE_CHUNK bytes that end at a newline, and no pass reads the
    whole file. In each chunk, no byte may lie above "9", the bytes below
    "0" must alternate comma, newline with a field of 1 to 18 digits before
    each; np.fromstring then reads the fields, newlines turned to commas,
    and n must count on from the last chunk. Every temporary is bounded by
    the chunk. A canonical row takes at least 4 bytes, "1,1\n", so an nmax
    the file cannot hold returns None before nmax values are allocated.
    """
    if not data.startswith(_HEADER) or 4 * nmax > len(data) - len(_HEADER):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    values = np.empty(nmax, dtype=np.int64)
    done = 0
    pos = len(_HEADER)
    while pos < len(data):
        end = data.rfind(b"\n", pos, pos + _PARSE_CHUNK) + 1
        if end == 0:
            return None
        text = raw[pos:end]
        # Below "0" only the separators checked here may occur, and above
        # "9" nothing, so the fields are digits alone, which np.fromstring
        # and int() read alike.
        seps = np.flatnonzero(text < ord("0"))
        widths = np.diff(seps, prepend=-1) - 1
        rows = len(seps) // 2
        if (
            text.max() > ord("9")
            or len(seps) % 2
            or done + rows > nmax
            or np.any(text[seps[0::2]] != ord(","))
            or np.any(text[seps[1::2]] != ord("\n"))
            or widths.min() < 1
            or widths.max() > 18
        ):
            return None
        cells = np.fromstring(
            data[pos : end - 1].translate(_NEWLINE_TO_COMMA), dtype=np.int64, sep=","
        ).reshape(rows, 2)
        if not np.array_equal(cells[:, 0], np.arange(done + 1, done + rows + 1)):
            return None
        values[done : done + rows] = cells[:, 1]
        done += rows
        pos = end
    return values if done == nmax else None


def _parse_rows(data: bytes) -> np.ndarray | tuple[int, ...]:
    """Row-by-row parse of any data file; the source of every row error."""
    out: list[int] = []
    for i, row in enumerate(data.decode("ascii").split("\n")[1:-1], start=1):
        try:
            n_str, v_str = row.split(",")
            n = int(n_str)
            v = int(v_str)
        except ValueError as exc:
            raise MalformedTable(f"bad row {i}: {row!r}") from exc
        if n != i:
            raise MalformedTable(f"row {i} has n={n}")
        out.append(v)
    if -(2**63) <= min(out) and max(out) < 2**63:  # nmax >= 1: out is not empty
        return np.array(out, dtype=np.int64)
    return tuple(out)


def load_table(
    path: str | Path, *, ell: int | None = None, nmax: int | None = None
) -> ArithTable:
    """Load and validate a saved table.

    Checks, in order: sidecar readable, a JSON object, format_version,
    positive integer ell and nmax (all before the data file is read);
    sha256 of the data file; the caller's expected ell and nmax (when
    given); ASCII bytes, header, trailing newline, row count, and each
    row's shape and n. A file the bulk NumPy parse accepts has met every
    check on the data; any other goes through them in that order, then a
    row loop, so a rejected file gets the same error either way.
    """
    path = Path(path)
    sidecar = _read_sidecar(Path(str(path) + ".json"))
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != sidecar.get("sha256"):
        raise ChecksumMismatch(f"sha256 mismatch for {path}")
    file_ell = sidecar["ell"]
    file_nmax = sidecar["nmax"]
    if ell is not None and file_ell != ell:
        raise MetadataMismatch(f"table has ell={file_ell}, caller expected ell={ell}")
    if nmax is not None and file_nmax != nmax:
        raise MetadataMismatch(
            f"table has nmax={file_nmax}, caller expected nmax={nmax}"
        )
    values = _parse_canonical(data, file_nmax)
    if values is None:
        if not data.isascii():
            raise MalformedTable(f"non-ASCII bytes in {path}")
        if not (data.startswith(_HEADER) or data == _HEADER[:-1]):
            raise MalformedTable("missing 'n,value' header")
        if not data.endswith(b"\n"):
            raise MalformedTable("data file not newline-terminated")
        # every line ends in a newline, so the lines after the header are rows
        rows = data.count(b"\n") - 1
        if rows != file_nmax:
            raise MalformedTable(f"expected {file_nmax} rows, found {rows}")
        values = _parse_rows(data)
    meta = {
        "ell": file_ell,
        "nmax": file_nmax,
        "format_version": FORMAT_VERSION,
        "creation": {"loaded_from": str(path)},
    }
    return ArithTable(ell=file_ell, nmax=file_nmax, values=values, metadata=meta)

