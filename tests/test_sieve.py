import hashlib
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abundancy import _kernels, sieve
from abundancy.bvalues import b_via_multiplicativity, b_via_recursion
from abundancy.errors import (
    BudgetError,
    ChecksumMismatch,
    MalformedTable,
    MetadataMismatch,
    VersionMismatch,
)
from abundancy.sieve import (
    ArithTable,
    _parse_canonical,
    load_table,
    save_table,
    sieve_b,
)


def test_sieve_matches_recursion():
    for ell in (1, 2, 3, 4):
        t = sieve_b(ell, 200)
        for n in range(1, 201):
            assert t[n] == b_via_recursion(ell, n), (ell, n)


def test_sieve_ell2_known_values(table2):
    assert table2[1] == 1
    assert table2[6] == 12
    assert table2[1_000_000] == 2480437


def test_indexing_contract():
    t = sieve_b(2, 10)
    assert len(t) == 10
    with pytest.raises(IndexError):
        t[0]
    with pytest.raises(IndexError):
        t[11]


def test_values_are_read_only():
    t = sieve_b(2, 10)
    assert isinstance(t.values, np.ndarray)
    with pytest.raises(ValueError):
        t.values[0] = 99


def test_exact_path_promotion():
    # _bound(ell, nmax) >= 2^63 forces the residue path to Python ints;
    # the resulting values genuinely exceed int64 at the top of this range
    t = sieve_b(20, 10)
    assert isinstance(t.values, tuple)
    assert t[10] > 2**63
    for n in range(1, 11):
        assert t[n] == b_via_recursion(20, n)
    # the exact passes cross run boundaries of both kernel loops
    t = sieve_b(6, 20_000)
    assert isinstance(t.values, tuple)
    assert t.metadata["creation"]["dtype"] == "object"
    assert all(type(v) is int for v in t.values)
    for n in (1, 2, 9_973, _kernels.RUN, _kernels.RUN + 1, 19_999, 20_000):
        assert t[n] == b_via_recursion(6, n)


def test_exact_passes_agree_with_int64_sieve(monkeypatch):
    # where int64 is safe, the residue passes and the CRT give the same
    # table; nmax crosses run boundaries of both kernel loops
    nmax = 2 * _kernels.RUN + 7
    ref = sieve_b(3, nmax)
    assert ref.metadata["creation"]["dtype"] == "int64"
    monkeypatch.setattr(sieve, "_int64_safe", lambda ell, nmax: False)
    t = sieve_b(3, nmax)
    assert t.metadata["creation"]["dtype"] == "object"
    assert t.metadata["creation"]["primes"] >= 2
    assert t.values == tuple(ref.values.tolist())


def test_int64_path_reaches_tables_the_bound_admits(monkeypatch):
    # 3 (18 + 1) (2e5)^3 < 2^63, so (4, 2e5) runs in int64, and the forced
    # residue path gives the same table
    ref = sieve_b(4, 200_000)
    assert ref.metadata["creation"]["dtype"] == "int64"
    monkeypatch.setattr(sieve, "_int64_safe", lambda ell, nmax: False)
    t = sieve_b(4, 200_000)
    assert t.metadata["creation"]["dtype"] == "object"
    assert t.values == tuple(ref.values.tolist())


# highly abundant n, where B(ell, n)/n^(ell-1) is largest for its size
HIGHLY_ABUNDANT = (1, 2, 6, 12, 60, 360, 2520, 5040, 55440, 720720, 1441440,
                   4324320, 21621600, 367567200, 6983776800)


@pytest.mark.parametrize("ell", range(2, 12))
def test_bound_holds_at_highly_abundant_n(ell):
    for n in (*HIGHLY_ABUNDANT, 2**40, 3**25):
        assert b_via_multiplicativity(ell, n) <= sieve._bound(ell, n), n


@pytest.mark.parametrize("ell,nmax", [(3, 55440), (4, 200_000), (5, 20_000),
                                      (6, 3000), (20, 10), (200, 100)])
def test_bound_covers_sieved_tables(ell, nmax):
    assert max(sieve_b(ell, nmax).values) <= sieve._bound(ell, nmax)


@settings(max_examples=40, deadline=None)
@given(ell=st.integers(4, 30), nmax=st.integers(1, 3 * _kernels.RUN),
       picks=st.lists(st.integers(1, 3 * _kernels.RUN), max_size=4))
def test_residue_path_matches_recursion(ell, nmax, picks):
    # forced past _int64_safe, so small tables take the residue path too
    with mock.patch.object(sieve, "_int64_safe", return_value=False):
        t = sieve_b(ell, nmax)
    assert t.metadata["creation"]["dtype"] == "object"
    assert all(type(v) is int for v in t.values)
    run_edges = (_kernels.RUN, _kernels.RUN + 1, 2 * _kernels.RUN + 1)
    for n in {1, 2, nmax, *run_edges, *picks}:
        if n <= nmax:
            assert t[n] == b_via_recursion(ell, n), (ell, nmax, n)


def _width_classes():
    # _prime_bits depends on nmax only through isqrt(nmax), and the bound
    # grows with nmax, so each isqrt class is checked at its largest nmax
    top = sieve.DEFAULT_MAX_NMAX
    return [min((s + 1) ** 2 - 1, top) for s in range(1, math.isqrt(top) + 1)]


def test_prime_width_rule_for_every_nmax():
    for nmax in _width_classes():
        bits = sieve._prime_bits(nmax)
        slots = 2 * math.isqrt(nmax) + 2
        # a pass's largest sum of products fits int64, and one bit more would not
        assert (2**bits - 1) ** 2 * slots < 2**63, nmax
        assert 2 ** (2 * bits + 2) * slots > 2**63, nmax
    assert sieve._prime_bits(200_000) == 26
    assert sieve._prime_bits(sieve.DEFAULT_MAX_NMAX) == 24


def test_prime_count_rule():
    # for each prime width, the first and last nmax of that width
    classes = _width_classes()
    ends = {}
    for nmax in [1, *classes]:
        ends.setdefault(sieve._prime_bits(nmax), []).append(nmax)
    for bits, ns in ends.items():
        for nmax in (ns[0], ns[-1]):
            for ell in (2, 4, 5, 30, 300):
                primes = sieve._moduli(ell, nmax)
                assert primes == sorted(set(primes), reverse=True)
                assert all(p < 2**bits for p in primes)
                need = sieve._bound(ell, nmax) << 8
                assert math.prod(primes) > need, (ell, nmax)
                assert math.prod(primes[:-1]) <= need, (ell, nmax)


def _is_prime(n):
    # Miller-Rabin with bases 2, 3, 5, 7: exact below 3,215,031,751
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@pytest.mark.parametrize("ell,nmax", [(20, 10), (300, 48), (4, 200_000)])
def test_moduli_are_the_largest_primes_below_the_width(ell, nmax):
    primes = sieve._moduli(ell, nmax)
    below = [c for c in range(2 ** sieve._prime_bits(nmax) - 1, primes[-1] - 1, -1)
             if _is_prime(c)]
    assert primes == below


def test_corrupt_residue_stack_raises():
    ell, nmax = 6, 3000
    primes = sieve._moduli(ell, nmax)
    bound = sieve._bound(ell, nmax)
    vals = [b_via_recursion(ell, n) for n in (1, 2, 720, 2999, 3000)]
    res = np.array([[v % p for v in vals] for p in primes], dtype=np.int64)
    assert sieve._crt(res, primes, bound) == tuple(vals)
    for i in range(len(primes)):
        for j in range(len(vals)):
            bad = res.copy()
            bad[i, j] = (bad[i, j] + 1) % primes[i]
            with pytest.raises(ArithmeticError, match=f"n={j + 1}"):
                sieve._crt(bad, primes, bound)


def test_int64_path_top_of_range():
    # ell=3 at nmax=10^6 stays on int64: values near (n ln n)^2 ~ 2e14
    t = sieve_b(3, 1000)
    assert isinstance(t.values, np.ndarray)
    assert t[1000] == b_via_recursion(3, 1000)


def test_budget_refusal():
    with pytest.raises(BudgetError):
        sieve_b(2, 10**9)
    # explicit raise is honored
    t = sieve_b(2, 1001, max_nmax=10_000)
    assert t[1001] == b_via_recursion(2, 1001)


def test_corrupt_table_rejected():
    with pytest.raises(ValueError):
        ArithTable(ell=2, nmax=3, values=(2, 3, 4), metadata={})


@pytest.mark.parametrize("values, nmax", [
    (np.array([1, 3, 4]), 5),
    (np.array([1, 3, 4, 7]), 2),
    ((1, 3, 4), 5),
    ((1, 3, 4, 7), 2),
])
def test_values_must_number_nmax(values, nmax):
    # a short table would be saved under a sidecar claiming nmax rows
    with pytest.raises(ValueError, match=f"nmax={nmax} given {len(values)} values"):
        ArithTable(ell=2, nmax=nmax, values=values, metadata={})


def test_save_load_round_trip(tmp_path):
    t = sieve_b(3, 50)
    path = tmp_path / "b3.csv"
    save_table(t, path)
    back = load_table(path, ell=3, nmax=50)
    assert all(back[n] == t[n] for n in range(1, 51))
    sidecar = json.loads((tmp_path / "b3.csv.json").read_text())
    assert set(sidecar) == {"ell", "nmax", "format_version", "sha256"}
    assert sidecar["ell"] == 3 and sidecar["nmax"] == 50


def test_save_table_failed_replace_keeps_old_table(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 30), path)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_table(sieve_b(3, 40), path)
    monkeypatch.undo()
    back = load_table(path)
    assert (back.ell, back.nmax) == (2, 30)
    assert back[30] == 72
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.csv.json"]


def test_save_load_bignum_round_trip(tmp_path):
    t = sieve_b(20, 10)
    path = tmp_path / "b20.csv"
    save_table(t, path)
    back = load_table(path)
    assert isinstance(back.values, tuple)
    assert back[10] == t[10]


def test_load_rejects_wrong_metadata(tmp_path):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 20), path)
    with pytest.raises(MetadataMismatch):
        load_table(path, ell=3)
    with pytest.raises(MetadataMismatch):
        load_table(path, nmax=21)


def test_load_rejects_tampered_data(tmp_path):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 20), path)
    raw = path.read_text()
    path.write_text(raw.replace("6,12", "6,13", 1))
    with pytest.raises(ChecksumMismatch):
        load_table(path)


def test_load_rejects_version_and_shape(tmp_path):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 5), path)
    side = tmp_path / "t.csv.json"

    meta = json.loads(side.read_text())
    meta["format_version"] = 99
    side.write_text(json.dumps(meta))
    with pytest.raises(VersionMismatch):
        load_table(path)

    # checksum is over the data bytes, so shape attacks need a fresh sidecar
    def reseal():
        m = json.loads(side.read_text())
        m["format_version"] = 1
        m["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        side.write_text(json.dumps(m))

    path.write_text("x,y\n1,1\n")
    reseal()
    with pytest.raises(MalformedTable):
        load_table(path)

    path.write_text("n,value\n1,1\n2,3")  # no trailing newline
    reseal()
    with pytest.raises(MalformedTable):
        load_table(path)

    path.write_text("n,value\n1,1\n")  # row count disagrees with nmax=5
    reseal()
    with pytest.raises(MalformedTable):
        load_table(path)

    path.write_text("n,value\n1,1\n3,4\n2,3\n4,7\n5,6\n")  # n out of order
    reseal()
    with pytest.raises(MalformedTable):
        load_table(path)


def _seal(path, data: bytes, ell=2, nmax=5):
    path.write_bytes(data)
    side = {"ell": ell, "nmax": nmax, "format_version": 1,
            "sha256": hashlib.sha256(data).hexdigest()}
    (path.parent / (path.name + ".json")).write_text(json.dumps(side))


def _render_reference(table) -> bytes:
    lines = ["n,value"] + [f"{n},{table[n]}" for n in range(1, table.nmax + 1)]
    return ("\n".join(lines) + "\n").encode("ascii")


# nmax at the run edges and where n gains a digit or a 4-digit group
_NMAX_EDGES = (1, 2, 9, 10, 11, 99, 100, 101, 9_999, 10_000, 10_001,
               _kernels.RUN - 1, _kernels.RUN, _kernels.RUN + 1)
_EXTREMES = (-(2**63), -(2**63) + 1, -(10**18), -1, 0, 9, 10, 9_999, 10_000,
             10**18 - 1, 10**18, 2**63 - 1)
# 0, then the least and the largest int64 value of d digits, d = 1..19
_LEAST = np.array([0] + [10 ** (d - 1) for d in range(2, 20)], dtype=np.int64)
_MOST = np.array([10**d - 1 for d in range(1, 19)] + [2**63 - 1], dtype=np.int64)


@st.composite
def _int64_tables(draw, nmax=st.one_of(st.sampled_from(_NMAX_EDGES),
                                       st.integers(1, 40))):
    """int64 tables with values[0] == 1: random values of up to a drawn
    number of digits, negative at a drawn rate, and a few picked values."""
    nmax = draw(nmax)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    digits = rng.integers(0, draw(st.integers(1, 19)), size=nmax)
    values = rng.integers(_LEAST[digits], _MOST[digits], endpoint=True)
    negative = rng.random(nmax) < draw(st.sampled_from([0.0, 0.01, 0.5]))
    values[negative] *= -1
    picks = st.tuples(st.integers(0, nmax - 1),
                      st.sampled_from(_EXTREMES) | st.integers(-(2**63), 2**63 - 1))
    for i, v in draw(st.lists(picks, max_size=4)):
        values[i] = v
    values[0] = 1
    return ArithTable(ell=2, nmax=nmax, values=values, metadata={})


# a row of up to 38 bytes always fits 40; 97 cuts some chunks mid-table
_CHUNKS = st.sampled_from([40, 97, sieve._PARSE_CHUNK])


@pytest.mark.filterwarnings("error")  # no input may warn
@settings(max_examples=80, deadline=None, derandomize=True)
@given(table=_int64_tables(), chunk=_CHUNKS)
def test_int64_tables_save_as_the_reference_and_load_back(tmp_path_factory, table,
                                                          chunk):
    path = tmp_path_factory.mktemp("t") / "t.csv"
    save_table(table, path)
    data = path.read_bytes()
    assert data == _render_reference(table)
    with mock.patch.object(sieve, "_PARSE_CHUNK", chunk):
        back = load_table(path, ell=2, nmax=table.nmax)
        bulk = _parse_canonical(data, table.nmax)
    assert back.values.dtype == np.int64
    assert np.array_equal(back.values, table.values)
    # the bulk pass takes every file of values in 0..10^18 - 1, no other
    canonical = bool(np.all((table.values >= 0) & (table.values < 10**18)))
    assert (bulk is not None) == canonical


def _mutate(raw: bytes, draw) -> bytes:
    # a separator of a row, or any byte, half the time each; a separator
    # swapped for the other keeps the count of both
    seps = [i for i in range(8, len(raw)) if raw[i] in b",\n"]
    i = draw(st.sampled_from(seps) | st.integers(0, len(raw) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if kind == "delete":
        return raw[:i] + raw[i + 1 :]
    if kind == "duplicate":
        return raw[: i + 1] + raw[i:]
    byte = draw(st.sampled_from(b",\n") | st.sampled_from(b"0123456789-+ \r.x\xe9"))
    return raw[:i] + bytes([byte]) + raw[i + 1 :]


def _outcome(load, path):
    try:
        values = load(path).values
    except Exception as exc:
        return type(exc)
    if isinstance(values, np.ndarray):
        return values.dtype, values.tolist()
    return values


@pytest.mark.filterwarnings("error")  # no input may warn
@settings(max_examples=400, deadline=None, derandomize=True)
@given(table=_int64_tables(nmax=st.integers(1, 12)), chunk=_CHUNKS, data=st.data())
def test_mutated_canonical_files_read_as_the_row_loop_reads_them(
    tmp_path_factory, table, chunk, data
):
    raw = _mutate(_render_reference(table), data.draw)
    try:
        rows = sieve._parse_rows(raw)
    except Exception:
        rows = None
    with mock.patch.object(sieve, "_PARSE_CHUNK", chunk):
        bulk = _parse_canonical(raw, table.nmax)
        if bulk is not None:
            assert isinstance(rows, np.ndarray) and bulk.dtype == np.int64
            assert np.array_equal(bulk, rows)
        path = tmp_path_factory.mktemp("m") / "t.csv"
        _seal(path, raw, nmax=table.nmax)
        got = _outcome(load_table, path)
    with mock.patch.object(sieve, "_parse_canonical", return_value=None):
        assert got == _outcome(load_table, path)


def test_save_load_round_trip_across_run_boundary(tmp_path):
    nmax = _kernels.RUN + 3
    t = sieve_b(2, nmax)
    path = tmp_path / "b2.csv"
    save_table(t, path)
    assert path.read_bytes() == _render_reference(t)
    assert _parse_canonical(path.read_bytes(), nmax) is not None  # C path
    back = load_table(path, ell=2, nmax=nmax)
    assert isinstance(back.values, np.ndarray) and back.values.dtype == np.int64
    assert np.array_equal(back.values, t.values)


def test_save_load_bignum_round_trip_across_run_boundary(tmp_path):
    # ell = 20 tables hold values beyond int64; these are made up, since
    # the loader checks the file, not the arithmetic
    nmax = _kernels.RUN + 3
    values = (1,) + tuple(2**70 + 3 * n for n in range(2, nmax + 1))
    t = ArithTable(ell=20, nmax=nmax, values=values, metadata={})
    path = tmp_path / "b20.csv"
    save_table(t, path)
    assert path.read_bytes() == _render_reference(t)
    back = load_table(path, ell=20, nmax=nmax)
    assert isinstance(back.values, tuple)
    assert back.values == values


@pytest.mark.parametrize("body", [
    b"1,1\n2,3\n\n4,7\n",             # blank line
    b"1,1\n2,3\n  \n4,7\n",           # whitespace-only line
    b"1,1\n2,3\n3,4\n4,7,9\n",        # third column on one row
    b"1,1,0\n2,3,0\n3,4,0\n4,7,0\n",  # third column on every row
    b"1,1\n3,4\n2,3\n4,7\n",          # n out of order
    b"1,1\n2,3\n3,4\n5,7\n",          # n skips a value
    b"1,1\n2,3\r3,4\n4,7\n",          # carriage return inside a row
    b"1,1\n2,3\n3,\n4,7\n",           # empty value
    b"1,1\n2,3\n3,4.0\n4,7\n",        # float value
    b"1,1\n2,3\n3,4e0\n4,7\n",        # a letter in a value
])
def test_load_rejects_malformed_rows(tmp_path, body):
    path = tmp_path / "t.csv"
    _seal(path, b"n,value\n" + body, nmax=4)
    with pytest.raises(MalformedTable):
        load_table(path)


def test_load_counts_rows_before_sizing_the_values(tmp_path):
    # a resealed sidecar with a huge nmax is refused by the row count,
    # before an array of nmax values is allocated
    path = tmp_path / "t.csv"
    _seal(path, b"n,value\n1,1\n2,3\n3,4\n", nmax=10**12)
    with pytest.raises(MalformedTable, match="expected 1000000000000 rows, found 3"):
        load_table(path)


def test_load_accepts_what_the_row_loop_accepts(tmp_path):
    # not what save_table writes, but int() reads these, and always has
    path = tmp_path / "t.csv"
    data = b"n,value\n1,1\n2, 3\n03,+4\n4,7 \n"
    _seal(path, data, nmax=4)
    assert _parse_canonical(data, 4) is None  # row loop
    back = load_table(path)
    assert isinstance(back.values, np.ndarray)
    assert back.values.tolist() == [1, 3, 4, 7]


def test_load_picks_int64_only_within_its_range(tmp_path):
    # below -2^63 the row loop keeps Python ints; -2^63 itself is int64
    path = tmp_path / "t.csv"
    _seal(path, b"n,value\n1,1\n2,-99999999999999999999\n", nmax=2)
    back = load_table(path)
    assert isinstance(back.values, tuple)
    assert back.values == (1, -99999999999999999999)
    _seal(path, b"n,value\n1,1\n2,-9223372036854775808\n", nmax=2)
    back = load_table(path)
    assert isinstance(back.values, np.ndarray) and back.values.dtype == np.int64
    assert back[2] == -(2**63)


def test_load_rejects_non_ascii_data(tmp_path):
    path = tmp_path / "t.csv"
    _seal(path, "n,value\n1,1\n2,3\u00e9\n".encode("utf-8"), nmax=2)
    with pytest.raises(MalformedTable, match="non-ASCII"):
        load_table(path)


def test_load_rejects_a_canonical_file_with_an_extra_row(tmp_path):
    # a file the bulk parse would accept but for its last row
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 1000), path)
    data = path.read_bytes() + b"1001,2340\n"
    _seal(path, data, nmax=1000)
    with pytest.raises(MalformedTable, match="expected 1000 rows, found 1001"):
        load_table(path)


def test_load_rejects_a_high_byte_in_a_canonical_file(tmp_path):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 1000), path)
    data = bytearray(path.read_bytes())
    data[data.index(b"\n500,") + 5] = 0x80
    _seal(path, bytes(data), nmax=1000)
    with pytest.raises(MalformedTable, match="non-ASCII bytes"):
        load_table(path)


@pytest.mark.parametrize("sidecar", [
    "[]", '"table"', "3", "null",
    '{"format_version": 1, "ell": 2}',
    '{"format_version": 1, "ell": "2", "nmax": 5}',
    '{"format_version": 1, "ell": 2, "nmax": 0}',
    '{"format_version": 1, "ell": 0, "nmax": 5}',
    '{"format_version": 1, "ell": 2, "nmax": -5}',
    '{"format_version": 1, "ell": 2, "nmax": 5.0}',
    '{"format_version": 1, "ell": 2, "nmax": true}',
    b'{"format_version": 1, "ell": "\xff", "nmax": 5}',
])
def test_load_rejects_malformed_sidecar_before_reading_data(tmp_path, sidecar):
    # the data file does not exist: reading it would raise FileNotFoundError
    side = tmp_path / "t.csv.json"
    if isinstance(sidecar, bytes):
        side.write_bytes(sidecar)
    else:
        side.write_text(sidecar)
    with pytest.raises(MalformedTable):
        load_table(tmp_path / "t.csv")


def test_missing_sidecar(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("n,value\n1,1\n")
    with pytest.raises(MalformedTable):
        load_table(path)
