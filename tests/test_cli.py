"""Cache round trips and the command-line front end."""

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bicox
from bicox.cache import MAGIC, _parts, deserialize, load_table, save_table, serialize
from bicox.cli import FACE_BUDGET, ORACLE_GATE, main, run_verification
from bicox.complexes import TABLE_GATE, face_count
from bicox.coxeter import (
    DEFAULT_BUDGET, classify, classify_spec, count_text, descent_walk, parabolic,
)
from bicox.errors import CacheError, InternalCheckError

from conftest import build


# --- cache ---------------------------------------------------------------


def test_cache_round_trip(tmp_path, a3):
    path = save_table(a3, tmp_path)
    loaded = load_table(path)
    assert loaded.order == a3.order
    assert loaded.longest == a3.longest
    assert loaded.system.canonical_name == "A3"
    for field in ("length", "left_mult", "right_mult", "inverse", "des_left", "des_right"):
        assert np.array_equal(getattr(loaded, field), getattr(a3, field))
    # deterministic and bit-identical after a round trip
    blob = path.read_bytes()
    assert serialize(loaded) == blob
    assert serialize(a3) == blob


def test_cache_detects_corruption(tmp_path, a3):
    path = save_table(a3, tmp_path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError):
        load_table(path)


def test_cache_rejects_garbage():
    with pytest.raises(CacheError):
        deserialize(b"not a cache file at all")


def seal(body):
    return bytes(body) + hashlib.sha256(bytes(body)).digest()


def malformed_blobs(a2):
    """Blobs with a valid digest whose contents are malformed."""
    body = bytearray(serialize(a2)[:-32])
    order_at = len(MAGIC) + 4 + 2 + len("A2") + 4
    missing_rows = MAGIC + struct.pack("<IH", 1, 2) + b"A2" + struct.pack("<IQ", 50, 6)
    inflated_order = body.copy()
    struct.pack_into("<Q", inflated_order, order_at, 10**6)
    bad_matrix = body.copy()
    struct.pack_into("<I", bad_matrix, order_at + 8, 5)  # m(0,0) = 5
    return [seal(missing_rows), seal(inflated_order), seal(bad_matrix)]


def test_malformed_cache_raises_cache_error(tmp_path, a2, capsys):
    for blob in malformed_blobs(a2):
        with pytest.raises(CacheError):
            deserialize(blob)
        (tmp_path / "A2.gt").write_bytes(blob)
        assert run(tmp_path, "build", "--type", "A2") == 2
        assert "malformed cache file" in capsys.readouterr().err


def out_of_range_blobs(a2):
    """Sealed A2 blobs whose ids or masks lie outside the table."""
    body = bytearray(serialize(a2)[:-32])
    n, order = a2.rank, a2.order
    longest_at = len(MAGIC) + 4 + 2 + len("A2") + 4 + 8 + 4 * n * n
    left_at = longest_at + 5 + order  # past longest, length width and lengths
    inverse_at = left_at + 8 * order * n
    des_left_at = inverse_at + 4 * order
    patches = [
        ("<I", longest_at, 10**6),
        ("<I", left_at, order),
        ("<I", inverse_at, 2**32 - 1),
        ("<B", des_left_at, 1 << n),
    ]
    blobs = []
    for fmt, at, value in patches:
        bad = body.copy()
        struct.pack_into(fmt, bad, at, value)
        blobs.append(seal(bad))
    return blobs


def test_out_of_range_cache_contents_raise_cache_error(tmp_path, a2, capsys):
    for blob in out_of_range_blobs(a2):
        with pytest.raises(CacheError, match="malformed cache file"):
            deserialize(blob)
        (tmp_path / "A2.gt").write_bytes(blob)
        assert run(tmp_path, "build", "--type", "A2") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed cache file")
        assert "Traceback" not in err


def relengthened_blobs(b3):
    """Sealed B3 blobs whose lengths still rise weakly from e's 0: the last
    raised to 100,000, which no check after the loader reads, and the last
    element of layer 4 moved up to layer 5."""
    last = b3.length.copy()
    last[-1] = 100_000
    moved = b3.length.copy()
    moved[np.flatnonzero(moved == 4)[-1]] = 5
    return [b"".join(_parts(dataclasses.replace(b3, length=length))) for length in (last, moved)]


def test_lengths_off_the_poincare_polynomial_raise_cache_error(tmp_path, b3, capsys):
    for blob in relengthened_blobs(b3):
        with pytest.raises(CacheError, match="malformed cache file"):
            deserialize(blob)
        (tmp_path / "B3.gt").write_bytes(blob)
        assert run(tmp_path, "verify", "--type", "B3") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed cache file")
        assert captured.err.count("\n") == 1 and captured.out == ""


def descent_flipped_blob(a2):
    """A sealed A2 blob in which s1 has no left descent."""
    body = bytearray(serialize(a2)[:-32])
    s1 = a2.generator_id(0)
    body[len(body) - 2 * a2.order + s1] ^= 1  # bit s1 of Des_L(s1)
    return seal(body)


def test_left_descent_missing_raises_internal_error(tmp_path, a2, capsys):
    """The descent walk stops with an internal error instead of looping."""
    blob = descent_flipped_blob(a2)
    with pytest.raises(InternalCheckError, match="element 1 is not e but has no left descent"):
        descent_walk(deserialize(blob))
    (tmp_path / "A2.gt").write_bytes(blob)
    assert run(tmp_path, "export", "--type", "A2", "--what", "hasse") == 1
    assert capsys.readouterr().err.startswith("internal error:")


def relabelled_blob(table, new_to_old):
    """A sealed blob of ``table`` with element ``new_to_old[k]`` renamed k:
    the same group, every entry consistent, in another id order."""
    old = np.asarray(new_to_old)
    new = np.empty_like(old)
    new[old] = np.arange(len(old))
    renamed = types.SimpleNamespace(
        system=table.system, rank=table.rank, order=table.order, longest=int(new[table.longest]),
        length=table.length[old], des_left=table.des_left[old], des_right=table.des_right[old],
        **{name: new[getattr(table, name)[old]] for name in ("left_mult", "right_mult", "inverse")},
    )
    return b"".join(_parts(renamed))


def test_cache_with_ids_out_of_length_order_is_malformed(tmp_path, a3, capsys):
    """A3 with s1 and a length-2 element swapped, e still at id 0: the
    contingency model would read one-line words not yet filled, so the
    loader refuses the blob."""
    new_to_old = np.arange(a3.order)
    k = int(np.flatnonzero(a3.length == 2)[-1])
    new_to_old[[1, k]] = k, 1
    (tmp_path / "A3.gt").write_bytes(relabelled_blob(a3, new_to_old))
    for argv in (["verify"], ["export", "--what", "contingency"]):
        assert run(tmp_path, *argv, "--type", "A3") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: malformed cache file: ids are not weakly sorted by length\n"
        assert captured.out == ""


def corrupted(table, kind, seed):
    """``table`` with one seeded corruption: for ``des_left`` or
    ``des_right`` one descent bit flipped on an element other than e, for
    ``left_mult`` or ``right_mult`` two entries of one column swapped."""
    rng = np.random.default_rng(seed)
    entries = getattr(table, kind).copy()
    s = int(rng.integers(table.rank))
    if kind.startswith("des_"):
        entries[rng.integers(1, table.order)] ^= 1 << s
    else:
        x, y = rng.choice(table.order, 2, replace=False)
        entries[[x, y], s] = entries[[y, x], s]
    return dataclasses.replace(table, **{kind: entries})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["des_left", "des_right", "right_mult", "left_mult"])
def test_hostile_tables_fail_a_check_without_a_traceback(kind, seed, tmp_path, a3, capsys):
    """A3 with one seeded corruption runs through the table of
    representatives and every check: at least one line FAILs, and only
    the BicoxError family is raised.  Resealed as a cache file, ``bicox
    verify`` exits with a documented code and prints no traceback."""
    bad = corrupted(a3, kind, seed)
    statuses = [status for _, status, _ in run_verification(bad)]
    assert "FAIL" in statuses
    (tmp_path / "A3.gt").write_bytes(b"".join(_parts(bad)))
    code = run(tmp_path, "verify", "--type", "A3")
    captured = capsys.readouterr()
    assert code in (1, 2) and "Traceback" not in captured.out + captured.err
    assert code == 2 or "\nFAIL " in captured.out


def test_failed_save_keeps_earlier_file(tmp_path, a3, monkeypatch):
    path = tmp_path / "A3.gt"
    path.write_bytes(b"earlier")

    def fail(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_table(a3, tmp_path)
    assert path.read_bytes() == b"earlier"
    assert os.listdir(tmp_path) == ["A3.gt"]


WRITER = """
import sys, time
from pathlib import Path
from bicox.cache import save_table
from bicox.coxeter import build_group, classify_spec
table = build_group(classify_spec("B5"))
cache, name = Path(sys.argv[1]), sys.argv[2]
(cache / f"ready-{name}").touch()
while not (cache / "go").exists():
    time.sleep(0.001)
for _ in range(20):
    save_table(table, cache)
"""


def test_concurrent_writers_leave_one_whole_file(tmp_path):
    """Two processes saving the same table at once leave a loadable file,
    and a reader never sees a partly written one."""
    env = dict(os.environ, PYTHONPATH=str(Path(bicox.__file__).parents[1]))
    writers = [
        subprocess.Popen([sys.executable, "-c", WRITER, str(tmp_path), name], env=env)
        for name in ("a", "b")
    ]
    table = build("B5")
    path = tmp_path / "B5.gt"
    deadline = time.monotonic() + 120
    try:
        while not all((tmp_path / f"ready-{name}").exists() for name in ("a", "b")):
            assert all(w.poll() is None for w in writers), "a writer exited early"
            assert time.monotonic() < deadline, "writers never became ready"
            time.sleep(0.001)
        (tmp_path / "go").touch()
        while any(w.poll() is None for w in writers):
            assert time.monotonic() < deadline, "writers did not finish"
            if path.exists():
                assert load_table(path).order == table.order
        assert [w.returncode for w in writers] == [0, 0]
    finally:
        for w in writers:
            w.kill()
    assert path.read_bytes() == serialize(table)
    assert load_table(path).order == table.order
    assert sorted(os.listdir(tmp_path)) == ["B5.gt", "go", "ready-a", "ready-b"]


BLOBS = [serialize(build(spec)) for spec in ("A2", "B3")]


@st.composite
def mutated_blobs(draw):
    """A valid A2 or B3 blob with bytes flipped, cut off or appended, and
    resealed with a fresh digest or left with the old one."""
    blob = draw(st.sampled_from(BLOBS))
    sealed = draw(st.booleans())
    data = bytearray(blob[:-32] if sealed else blob)
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "flip":
        for at in draw(st.sets(st.integers(0, len(data) - 1), min_size=1, max_size=4)):
            data[at] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    else:
        data += draw(st.binary(min_size=1, max_size=64))
    return seal(data) if sealed else bytes(data), sealed


@settings(deadline=None, max_examples=300)
@given(mutated_blobs())
def test_mutated_blobs_raise_only_cache_error(case):
    blob, sealed = case
    try:
        deserialize(blob)
    except CacheError:
        return
    # Only a resealed blob can load: the digest covers every byte, but the
    # type string it covers is display metadata.
    assert sealed


def test_tables_are_read_only(tmp_path):
    built = build("A3")  # not the shared fixture, which a write would corrupt
    loaded = load_table(save_table(built, tmp_path))
    for table in (built, loaded):
        for field in ("length", "left_mult", "right_mult", "inverse", "des_left", "des_right"):
            with pytest.raises(ValueError):
                getattr(table, field)[0] = 1


def test_cache_reducible_type(tmp_path):
    table = build("A2xA1")
    loaded = load_table(save_table(table, tmp_path))
    assert loaded.system.canonical_name == "A2xA1"
    assert loaded.order == 12


# --- CLI -----------------------------------------------------------------


def run(tmp_path, *argv):
    return main(list(argv) + ["--cache-dir", str(tmp_path)])


def test_build_and_cache_hit(tmp_path, capsys):
    assert run(tmp_path, "build", "--type", "A3") == 0
    assert "built A3: order 24" in capsys.readouterr().out
    assert (tmp_path / "A3.gt").exists()
    assert run(tmp_path, "build", "--type", "A3") == 0
    assert "cached A3" in capsys.readouterr().out


def test_build_affine_rejected(tmp_path, capsys):
    assert run(tmp_path, "build", "--type", "A1~") == 2
    assert "not of finite type" in capsys.readouterr().err


def test_build_capacity(tmp_path, capsys):
    assert run(tmp_path, "build", "--type", "A4", "--budget", "50") == 3
    assert run(tmp_path, "build", "--type", "E8", "--allow-heavy") == 3


def test_build_rank_17_refused_before_enumerating(tmp_path, capsys, monkeypatch):
    import bicox.coxeter

    def never(system):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(bicox.coxeter, "_root_permutations", never)
    assert run(tmp_path, "build", "--type", "x".join(["A1"] * 17)) == 3
    assert "rank 17" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_heavy_gate(tmp_path, capsys):
    assert run(tmp_path, "build", "--type", "E7", "--budget", "100") == 3
    err = capsys.readouterr().err
    assert "--allow-heavy" in err


def test_corrupt_cache_reported(tmp_path, capsys):
    assert run(tmp_path, "build", "--type", "A2") == 0
    path = tmp_path / "A2.gt"
    path.write_bytes(path.read_bytes()[:-5])
    assert run(tmp_path, "build", "--type", "A2") == 2
    assert "checksum" in capsys.readouterr().err


def test_verify_a2(tmp_path, capsys):
    assert run(tmp_path, "verify", "--type", "A2") == 0
    out = capsys.readouterr().out
    assert "PASS shelling" in out
    assert "PASS contingency-isomorphism  (all 33 faces, 84 cover edges)\n" in out
    assert "FAIL" not in out


def test_verify_json(tmp_path, capsys):
    assert run(tmp_path, "verify", "--type", "B2", "--format", "json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 8
    statuses = {check["name"]: check["status"] for check in report["checks"]}
    assert statuses["gamma-reconstruction"] == "PASS"
    assert statuses["shelling"] == "PASS"
    assert "FAIL" not in statuses.values()


def test_verify_rank4_runs_shelling(tmp_path, capsys):
    assert run(tmp_path, "verify", "--type", "D4") == 0
    out = capsys.readouterr().out
    assert "PASS shelling  (all 192 facets)" in out
    assert "PASS double-quotient-oracle  (all 256 subset pairs)" in out


def test_verify_b5_runs_double_quotient_oracle(tmp_path, capsys):
    """4^5 subset pairs x 3840 elements is under the oracle's cost gate."""
    assert run(tmp_path, "verify", "--type", "B5") == 0
    assert "PASS double-quotient-oracle  (all 1024 subset pairs)" in capsys.readouterr().out


def test_verify_skips_what_is_over_its_gate(tmp_path, capsys):
    """One gate on the bytes of the table, 4^n x |W| entries of the
    narrowest unsigned type, bounds the complex: A6 (20643840 uint16
    entries) is under it, with every line PASS, and D4xD4 (2415919104
    uint16 entries) over it, with the complex SKIP and the report ending
    there.  The double-quotient oracle, which reads no table of
    representatives, still runs on D4xD4 under its own gate."""
    assert run(tmp_path, "verify", "--type", "A6", "--format", "json") == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 17 and {c["status"] for c in checks} == {"PASS"}
    assert checks[6] == {
        "name": "double-quotient-oracle",
        "status": "PASS",
        "detail": "all 4096 subset pairs",
    }
    assert run(tmp_path, "verify", "--type", "D4xD4", "--format", "json") == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    gate = "D4xD4 has 4831838208 table bytes, over the budget of 1342177280"
    assert checks[6:] == [
        {"name": "double-quotient-oracle", "status": "PASS", "detail": "all 65536 subset pairs"},
        {"name": "complex", "status": "SKIP", "detail": gate},
    ]
    assert {c["status"] for c in checks[:6]} == {"PASS"}


def test_verify_skips_the_oracle_over_its_own_gate(tmp_path, capsys, monkeypatch):
    """With the oracle's gate below A3's 4^3 x 24 multiply-adds, its line
    is SKIP with the gate's text, and every complex line still runs."""
    import bicox.cli

    assert run(tmp_path, "verify", "--type", "A3") == 0
    clean = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(bicox.cli, "ORACLE_GATE", 4**3 * 24 - 1)
    assert run(tmp_path, "verify", "--type", "A3") == 0
    lines = capsys.readouterr().out.splitlines()
    oracle = clean.index("PASS double-quotient-oracle  (all 64 subset pairs)")
    assert lines[oracle] == (
        "SKIP double-quotient-oracle  (A3 has 1536 oracle multiply-adds, over the budget of 1535)"
    )
    assert lines[:oracle] + lines[oracle + 1 :] == clean[:oracle] + clean[oracle + 1 :]
    assert len(lines) == 19 and lines[-1].startswith("PASS contingency-isomorphism")


@pytest.mark.parametrize(
    "spec",
    [
        "A1", "A3", "H3", "A4", "F4", "B5", "I2(7)", "A1xA1xA1xA1xA1xA1xA1xA1", "D4xD4",
        "A1xB2xI2(5)xI2(5)", "A1xA1xA1xA1xA1xA1xI2(5)",
    ],
)
def test_no_check_is_lost_to_the_table_gate(spec, tables):
    """The per-J closures of the former double-quotient oracle closed 2^n
    times the sum over J of [W : W_J] entries, from the classified
    parabolic orders: at most the 4^n x |W| entries of the table.  A group
    that the oracle's old gate (4,000,000 closed entries) or the complex's
    old face budget (500,000) admitted is under the table gate, in bytes of
    the narrowest unsigned type.  So is every table of at most 2^28
    entries, the gate's old count, as none holds over 4 bytes an entry.
    The last two groups are the
    largest tables under each old gate among the products of rank at most
    8 and order at most 10^7 of A1-A8, B2-B7, D4-D8, E6, E7, F4, H3, H4 and
    I2(m), m in 5-10, 12, 20, 50, 100, 1000 and 10000; past rank 8, A1^9
    already has 5^9 faces and 6^9 closed entries."""
    table = tables(spec)
    system, n = table.system, table.rank

    def index(gens):
        sub = [s for s in range(n) if gens >> s & 1]
        return system.order // parabolic(system, sub).order if sub else system.order

    closed, entries = (1 << n) * sum(map(index, range(1 << n))), 4**n * table.order
    assert closed <= entries
    size = entries * np.min_scalar_type(table.order - 1).itemsize
    if closed <= 4_000_000 or face_count(table) <= FACE_BUDGET:
        assert size <= TABLE_GATE
    assert (1 << 28) * 4 <= TABLE_GATE


def test_oracle_gate_admits_e7_and_every_table_under_the_table_gate():
    """The oracle's 4^n x |W| multiply-adds are the entries of the table,
    at most its bytes, so every group under the table gate is under the
    oracle's gate; so is E7, whose 4^7 x 2,903,040 is over the table gate."""
    assert TABLE_GATE <= ORACLE_GATE
    e7 = 4**7 * classify_spec("E7").order
    assert 4 * e7 > TABLE_GATE and e7 <= ORACLE_GATE


def test_verify_classifies_its_type_once(tmp_path, capsys, monkeypatch):
    """``bicox verify`` hands its classified system to the table lookup, so
    the spec is classified once, from an empty cache and from a warm one."""
    import bicox.cli

    calls = []

    def counted(matrix):
        calls.append(matrix)
        return classify(matrix)

    monkeypatch.setattr(bicox.cli, "classify", counted)
    for _ in range(2):
        calls.clear()
        assert run(tmp_path, "verify", "--type", "A2") == 0
        assert len(calls) == 1
    assert capsys.readouterr().out.count("PASS contingency-isomorphism") == 2


def test_verify_counts_subset_pairs_against_the_budget(tmp_path, capsys, monkeypatch):
    """A1^16 has 65,536 elements and 4^16 subset pairs: refused (exit 3)
    before any flag table, as is A1^3 with a budget of 4^3 - 1."""
    import bicox.cli

    def never(table):
        raise AssertionError("flag table started")

    with monkeypatch.context() as patched:
        patched.setattr(bicox.cli, "flag_f", never)
        assert run(tmp_path, "verify", "--type", "x".join(["A1"] * 16)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith(" has 4294967296 subset pairs, over the budget of 10000000\n")
        assert run(tmp_path, "verify", "--type", "A1xA1xA1", "--budget", "63") == 3
        assert "64 subset pairs" in capsys.readouterr().err
    assert run(tmp_path, "verify", "--type", "A1xA1xA1", "--budget", "64") == 0


def test_refused_verify_builds_and_caches_nothing(tmp_path, capsys):
    """The 4^16 subset pairs of A1^16 are counted before the table is read
    or built, so the refused command leaves the cache directory empty."""
    assert run(tmp_path, "verify", "--type", "x".join(["A1"] * 16)) == 3
    assert "4294967296 subset pairs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_refuses_elements_before_subset_pairs(tmp_path, capsys):
    """A16 is over both limits; the element refusal comes first."""
    assert run(tmp_path, "verify", "--type", "A16") == 3
    assert capsys.readouterr().err.endswith("elements; pass --allow-heavy to build it\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_passes_weak_order_on_a_large_dihedral_group(tmp_path, capsys):
    """Weak order is derived from whole-table checks, with no order limit:
    I2(10001) has order 20002."""
    assert run(tmp_path, "verify", "--type", "I2(10001)") == 0
    out = capsys.readouterr().out
    assert "PASS weak-order-monotone  (all 80017 faces)" in out
    assert "SKIP" not in out


def test_verify_failed_shelling_names_both_facets(tmp_path, capsys, monkeypatch):
    import bicox.cli

    def w0_first(table):
        return [table.longest] + [w for w in range(table.order) if w != table.longest]

    monkeypatch.setattr(bicox.cli, "length_order", w0_first)
    assert run(tmp_path, "verify", "--type", "A2") == 1
    out = capsys.readouterr().out
    assert "FAIL shelling  (first mismatch at facet 1, first impure at facet 2)" in out
    monkeypatch.setattr(bicox.cli, "length_order", lambda table: list(range(table.order))[::-1])
    assert run(tmp_path, "verify", "--type", "A2") == 1
    out = capsys.readouterr().out
    assert "FAIL shelling  (first mismatch at facet 1, first impure at facet none)" in out


def test_verify_keeps_report_when_oracle_trips(tmp_path, a2, capsys):
    """The double-quotient oracle's mismatch on a corrupt table is one FAIL
    line, and every check after it still reports."""
    assert run(tmp_path / "clean", "verify", "--type", "A2") == 0
    clean = capsys.readouterr().out
    (tmp_path / "A2.gt").write_bytes(descent_flipped_blob(a2))
    assert run(tmp_path, "verify", "--type", "A2") == 1
    captured = capsys.readouterr()
    assert captured.err == ""  # no traceback, no internal-error line
    out = captured.out
    assert (
        "FAIL double-quotient-oracle  (double quotient count mismatch for I=1, J=0: "
        "descent filter 4, permutation characters 3)"
    ) in out
    assert "FAIL contingency-isomorphism  (element 1 is not e but has no left descent)" in out

    def checks_from_oracle_on(report):
        names = [line.split()[1] for line in report.splitlines()[1:]]
        return names[names.index("double-quotient-oracle") :]

    assert checks_from_oracle_on(out) == checks_from_oracle_on(clean)


@pytest.mark.parametrize(
    "failing, lines",
    [
        ("verify_pseudomanifold",
         ["FAIL pseudomanifold  (all 6 facets)", "PASS boolean-intervals  (all 33 faces)",
          "FAIL thin  (all 33 faces)", "PASS weak-order-monotone  (all 33 faces)"]),
        ("verify_boolean",
         ["FAIL boolean-intervals  (all 33 faces)", "PASS pseudomanifold  (all 6 facets)",
          "FAIL thin  (all 33 faces)", "FAIL weak-order-monotone  (all 33 faces)"]),
        ("verify_wall_rows",
         ["PASS boolean-intervals  (all 33 faces)", "PASS thin  (all 33 faces)",
          "FAIL weak-order-monotone  (all 33 faces)"]),
    ],
    ids=["pseudomanifold", "boolean", "wall-rows"],
)
def test_verify_thin_follows_its_two_checks(failing, lines, tmp_path, capsys, monkeypatch):
    """Thin is derived from boolean and pseudomanifold, and weak order from
    boolean and the wall rows: a failing part fails what is derived from
    it, while the other parts still pass."""
    import bicox.cli

    monkeypatch.setattr(bicox.cli, failing, lambda cx: False)
    assert run(tmp_path, "verify", "--type", "A2") == 1
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in lines)


def test_verify_records_failed_complex_build(tmp_path, capsys, monkeypatch):
    import bicox.cli

    class Unbuildable:
        @staticmethod
        def build(table):
            raise InternalCheckError("face count mismatch")

    monkeypatch.setattr(bicox.cli, "TwoSidedComplex", Unbuildable)
    assert run(tmp_path, "verify", "--type", "A2") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAIL complex  (face count mismatch)"
    assert lines[-2].split()[1] == "double-quotient-oracle"


def test_verify_reports_coverage(tmp_path, capsys):
    assert run(tmp_path, "verify", "--type", "D4", "--format", "json") == 0
    details = {c["name"]: c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("boolean-intervals", "balanced-coloring", "weak-order-monotone", "thin"):
        assert details[name] == "all 4569 faces"
    assert details["sigma-embedding"] == "all 865^2 ideal pairs"
    assert details["pseudomanifold"] == "all 192 facets"


def test_verify_reports_enumerative_coverage(tmp_path, capsys):
    assert run(tmp_path, "verify", "--type", "F4", "--format", "json") == 0
    details = {c["name"]: c["detail"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert details["inclusion-exclusion"] == "all 256 subset pairs"
    assert details["reciprocity"] == "all 256 subset pairs"
    assert details["eulerian-from-flag"] == "all 25 cells"
    assert details["eulerian-symmetries"] == "all 25 cells"
    assert details["gamma-reconstruction"] == "9 unknowns, all 25 cells"
    assert details["gamma-nonnegative"] == "all 9 coefficients"


def test_tables_text(tmp_path, capsys):
    assert run(tmp_path, "tables", "--type", "D4") == 0
    out = capsys.readouterr().out
    assert "78" in out
    assert "gamma table" in out


def test_tables_json(tmp_path, capsys):
    assert run(tmp_path, "tables", "--type", "A3", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eulerian"][1][1] == 10
    assert payload["gamma"]["grid"] == [[1, 0], [0, 7], [0, 1]]


def test_tables_csv(tmp_path, capsys):
    assert run(tmp_path, "tables", "--type", "A2", "--format", "csv") == 0
    out = capsys.readouterr().out
    assert "descents,0,1,2" in out
    assert "1,0,4,0" in out


@pytest.mark.parametrize(
    "spec, text",
    [
        ("A1", "A1: order 2\ntwo-sided Eulerian matrix:\n1 0\n0 1\n"),
        ("A1xA1", "A1xA1: order 4\ntwo-sided Eulerian matrix:\n1 0 0\n0 2 0\n0 0 1\n"),
    ],
)
def test_tables_rank_one_components(tmp_path, capsys, spec, text):
    assert run(tmp_path, "tables", "--type", spec) == 0
    assert capsys.readouterr().out.startswith(text)


def test_tables_leave_the_cache_alone(tmp_path, capsys):
    assert run(tmp_path, "tables", "--type", "B3") == 0
    assert not list(tmp_path.iterdir())
    assert run(tmp_path, "build", "--type", "A2") == 0
    path = tmp_path / "A2.gt"
    path.write_bytes(path.read_bytes()[:-5])  # a corrupt file that build reports
    corrupt = path.read_bytes()
    assert run(tmp_path, "tables", "--type", "A2") == 0
    assert path.read_bytes() == corrupt
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A2.gt"]


def test_tables_gates_apply_to_parabolic_tables(tmp_path, capsys):
    assert run(tmp_path, "tables", "--type", "A4", "--budget", "50") == 0  # through A3
    assert run(tmp_path, "tables", "--type", "E8", "--budget", "100000") == 3
    assert "D7 has 322560 elements, over the budget of 100000" in capsys.readouterr().err
    assert run(tmp_path, "tables", "--type", "B10") == 3
    assert "A3xB6 has 1105920 elements; pass --allow-heavy" in capsys.readouterr().err
    assert run(tmp_path, "tables", "--type", "E8", "--budget", "2000", "--allow-heavy") == 3
    assert "E8 over D7 has 2160 cosets, over the budget of 2000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, err",
    [
        ([], "I2(100000000) has 200000000 roots; pass --allow-heavy"),
        (["--allow-heavy"], "I2(100000000) has 200000000 roots, over the budget of 10000000"),
    ],
)
def test_tables_gates_apply_to_roots(tmp_path, capsys, monkeypatch, flags, err):
    """A dihedral W_J is only A1: the 2m roots and m cosets are the work."""
    import bicox.cli
    import bicox.coxeter
    import bicox.enumeration

    def never(system):
        raise AssertionError("enumeration started")

    for module in (bicox.coxeter, bicox.enumeration):
        monkeypatch.setattr(module, "_root_permutations", never)
    monkeypatch.setattr(bicox.cli, "build_group", never)
    assert run(tmp_path, "tables", "--type", "I2(100000000)", *flags) == 3
    assert err in capsys.readouterr().err


def test_tables_rank_17_refused_before_enumerating(tmp_path, capsys, monkeypatch):
    import bicox.cli
    import bicox.coxeter
    import bicox.enumeration

    def never(system):
        raise AssertionError("enumeration started")

    for module in (bicox.coxeter, bicox.enumeration):
        monkeypatch.setattr(module, "_root_permutations", never)
    monkeypatch.setattr(bicox.cli, "build_group", never)
    assert run(tmp_path, "tables", "--type", "x".join(["A1"] * 17)) == 3
    assert "rank 17" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, code",
    [("A99999", 3), ("A17", 3), ("A15~xA1", 3), ("E9", 2), ("I2(1)", 2), ("A2~", 2),
     ("G2~", 2), ("B3xA0", 2), ("x", 2), ("H(4)", 2), ("I2(99999999)", 3), ("D8", 3)],
)
def test_fuzzed_specs_exit_cleanly(tmp_path, capsys, spec, code):
    """Malformed, infinite, over-rank and over-budget type strings end with
    a one-line error and exit 2 or 3, from every command."""
    for command in ("build", "verify", "tables", "export --what hasse"):
        assert run(tmp_path, *command.split(), "--type", spec, "--budget", "100") == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not list(tmp_path.iterdir())


# The most decimal digits this Python converts an int to; 0 means no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "command", [("tables",), ("build",), ("verify",), ("tables", "--allow-heavy")]
)
def test_capacity_refusal_of_a_count_past_the_digit_limit(tmp_path, capsys, command):
    """A 4300-digit dihedral bond gives counts that Python will not convert
    to decimal; the refusal is still one error line and exit 3."""
    assert run(tmp_path, *command, "--type", f"I2({'9' * 4300})") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err[-200:]
    if 0 < DIGIT_LIMIT < 4301:
        assert "a 4301-digit number of" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command", [("build",), ("verify",), ("export", "--what", "hasse")]
)
def test_budget_is_checked_before_the_cache_path(tmp_path, capsys, command):
    """Past the heavy gate, a group over the budget is refused (exit 3)
    before its cache file is looked up: this one's name is too long for a
    file name."""
    assert run(tmp_path, *command, "--type", f"I2({'9' * 4300})", "--allow-heavy") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err[-200:]
    assert "over the budget of 10000000" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("digits", [1, 4300, 4301, 4302, 6000])
def test_count_text_names_the_digits_of_a_count_too_long_to_print(digits):
    for count in (10 ** (digits - 1), 2 * 10 ** (digits - 1) + 7, 10**digits - 1):
        text = count_text(count, "roots")
        if 0 < DIGIT_LIMIT < digits:
            assert text == f"a {digits}-digit number of roots"
        else:
            assert text == f"{count} roots"


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_budget_must_be_positive(tmp_path, capsys, budget):
    for command in ("tables", "build"):
        with pytest.raises(SystemExit) as exit_info:
            run(tmp_path, command, "--type", "A4", "--budget", budget)
        assert exit_info.value.code == 2
        assert f"--budget: must be positive, got {budget}" in capsys.readouterr().err


def test_export_hasse(tmp_path, capsys):
    assert run(tmp_path, "export", "--type", "A2", "--what", "hasse") == 0
    dot = capsys.readouterr().out
    assert dot.count("label=") == 33
    assert "(12|e|12)" in dot


def test_export_sigma(tmp_path, capsys):
    assert run(tmp_path, "export", "--type", "A2", "--what", "sigma") == 0
    assert capsys.readouterr().out.count("label=") == 13


def test_export_contingency_json(tmp_path, capsys):
    code = run(
        tmp_path, "export", "--type", "A2", "--what", "contingency", "--format", "json"
    )
    assert code == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 33
    assert entries[0] == {"face": "(12|e|12)", "table": [[3]]}


def test_export_contingency_dot(tmp_path, capsys):
    code = run(tmp_path, "export", "--type", "A1", "--what", "contingency")
    assert code == 0
    dot = capsys.readouterr().out
    assert dot.count("label=") == 5
    assert '[[2]]' in dot


@pytest.mark.parametrize("what", ["hasse", "sigma"])
def test_export_refuses_json_for_diagrams(what, tmp_path, capsys):
    assert run(tmp_path, "export", "--type", "A1", "--what", what, "--format", "json") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --what {what} is exported as DOT only, not json\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "spec, argv, labels",
    [
        # A2's classical complex: (0, e, S) at rank 2, six vertices, six edges
        ("A2", ["--what", "sigma", "--min-rank", "3", "--max-rank", "3"], 6),
        ("A2", ["--what", "sigma", "--min-rank", "3"], 12),
        ("A2", ["--what", "sigma", "--max-rank", "2"], 1),
        # A1's five faces have ranks 0, 1, 1, 2, 2
        ("A1", ["--what", "contingency", "--max-rank", "1"], 3),
    ],
)
def test_export_keeps_the_rank_range(spec, argv, labels, tmp_path, capsys):
    assert run(tmp_path, "export", "--type", spec, *argv) == 0
    assert capsys.readouterr().out.count("label=") == labels


def test_export_contingency_json_keeps_the_rank_range(tmp_path, capsys):
    """The facets (0, w, 0), rank 4 in A2, are the top of the rank order."""
    argv = ["--what", "contingency", "--format", "json"]
    assert run(tmp_path, "export", "--type", "A2", *argv, "--min-rank", "4") == 0
    facets = json.loads(capsys.readouterr().out)
    assert len(facets) == 6 and all(entry["face"].startswith("(-|") for entry in facets)
    assert run(tmp_path, "export", "--type", "A2", *argv) == 0
    assert json.loads(capsys.readouterr().out)[-6:] == facets


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--min-rank", "5", "--max-rank", "1"], "--max-rank 1 is below --min-rank 5"),
        (["--max-rank", "-1"], "--max-rank -1 is below --min-rank 0"),
        (["--min-rank", "-3"], "--min-rank must be nonnegative, got -3"),
        (["--min-rank", "-3", "--max-rank", "2"], "--min-rank must be nonnegative, got -3"),
    ],
)
@pytest.mark.parametrize("what", ["hasse", "sigma", "contingency"])
def test_export_refuses_a_rank_range_that_selects_nothing(what, argv, err, tmp_path, capsys):
    assert run(tmp_path, "export", "--type", "A1", "--what", what, *argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_export_refuses_only_a_rank_range_that_selects_nothing(tmp_path, capsys):
    """A1's five faces have ranks 0 to 2: ranks 0 to 9 keep them all, 2 to 2
    keeps the facets, and 2 to 1 is refused."""
    hasse = ["export", "--type", "A1", "--what", "hasse"]
    assert run(tmp_path, *hasse, "--max-rank", "9") == 0
    assert capsys.readouterr().out.count("label=") == 5
    assert run(tmp_path, *hasse, "--min-rank", "2", "--max-rank", "2") == 0
    assert capsys.readouterr().out.count("label=") == 2
    assert run(tmp_path, *hasse, "--min-rank", "2", "--max-rank", "1") == 2


# SHA-256 of the export output, recorded before the complex stored packed faces.
EXPORT_GOLDENS = [
    ("A1", "hasse", "dot", "7766e8c97d8e93a8d58861ab9829d9c7770214d392a5180dbf357fbd99146cbf"),
    ("A2", "hasse", "dot", "7b33896c333bda6bcac5ea18a91f108ff809e86cd16bab7b77cef3f7248799bb"),
    ("A3", "hasse", "dot", "6e2dd2ad32cb605d2618b5fc47084d1f963df930d705b2f6f2f45e671d19f116"),
    ("B3", "hasse", "dot", "e0ddada07b608253b753c2a26b053252a8adadca56a98e3f99997e69d96ed882"),
    ("A3", "sigma", "dot", "d37b27781bac6b0a9e8ffc2c57722b02b85194611cd5b3578bd0783bd7023830"),
    ("A3", "contingency", "json", "3281a16538c408a74bed08dcbeb375a38d3c8e1b8683f6a95b695699aa8f4311"),
    ("A3", "contingency", "dot", "f9f6a82de39830463f6c6c6bf61cf53279da9bc832f07ebd0ebce6ee19ace7df"),
]


@pytest.mark.parametrize("spec, what, fmt, digest", EXPORT_GOLDENS)
def test_export_matches_golden(spec, what, fmt, digest, tmp_path, capsys):
    assert run(tmp_path, "export", "--type", spec, "--what", what, "--format", fmt) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# SHA-256 of the contingency export, recorded while it drew one face at a
# time: the drawing of whole arrays of packed faces prints the same bytes.
RANKS_2_TO_4 = ("--min-rank", "2", "--max-rank", "4")
CONTINGENCY_GOLDENS = [
    ("A3", "json", RANKS_2_TO_4, "71cc8be58aba4e7684c7552ae09d5a246289fbca6703aba99c2ac6a976422442"),
    ("A3", "dot", RANKS_2_TO_4, "be08c0d4929ca3f7b524f536b03648c50e789fff8f145c5962356116a4214c75"),
    ("A4", "json", (), "5e95513da75edf614070db3482f6bb2ba857b1fc4723c3213f7d0e027e4c84e9"),
    ("A4", "dot", (), "7f2911aef7059cab940cb8db14d3d68979f503679039a1934f44370eaf66f85e"),
    ("A4", "json", RANKS_2_TO_4, "867a293ac821b22e8a932d886184ee7d8af3c08942aec9bded44cdfc0e0db9fe"),
    ("A4", "dot", RANKS_2_TO_4, "db9699032a993933ddb302c8dec1a4110772da0a5be643106bb761e5df1f7271"),
]


@pytest.mark.parametrize("spec, fmt, ranks, digest", CONTINGENCY_GOLDENS)
def test_contingency_export_matches_golden(spec, fmt, ranks, digest, tmp_path, capsys):
    argv = ["export", "--type", spec, "--what", "contingency", "--format", fmt, *ranks]
    assert run(tmp_path, *argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Exit code and SHA-256 of ``verify --format json`` per group, recorded
# before the embedding check read right-coset minima.
VERIFY_GOLDENS = [
    ("A1", 0, "fb281a0a9d8031ccb53fe778dcf7334749047b966a82d99f9257d1316ca75932"),
    ("A2", 0, "835a6659d983858938781dcf79a255a92f658b71752e3e26090104f84b517cad"),
    ("A3", 0, "2b0a6858f4d6c9cf08817f6072dae9efaa321c2aa0779e042fc452e3e26d66d0"),
    ("B3", 0, "31a31b53d6f990d27b6549626f8b6968f70e62781432161c9d5ca862248edd13"),
    ("H3", 0, "cebb13f0140ae30b0a657c1dfc4b987073d33a75d2950768eb15ac2231ea8b81"),
    ("A4", 0, "093ce421e23d7299f0f8aa1d405b6b602fad3659caaacddf2990f37e09fb32a3"),
    ("B4", 0, "67e3d94ac172132dd8df45401949143e2bc03b2f2cdea7822869d0cfeab32110"),
    ("D4", 0, "39c4ff59fc81998239eaa3029b5ad4a499790c59511546a67e0b0f08ba2d7cdd"),
    ("F4", 0, "92af9d7ec5adff611a3f07760d6c8bdb815eb06cf4b5535e163807e19ef378ac"),
    ("A1xA1xA1xA1", 0, "af9a3d4371d257a6e4f375905a732fc8074fcc81559a1837a52520fade03a54f"),
    ("I2(5)xA1", 0, "c1fb2d83bf368fb91294c7ff5aa32fbc81e18d8accb72bef3abc25df399c05af"),
]


@pytest.mark.parametrize("spec, code, digest", VERIFY_GOLDENS)
def test_verify_json_matches_golden(spec, code, digest, tmp_path, capsys):
    assert run(tmp_path, "verify", "--type", spec, "--format", "json") == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_export_over_face_budget_exits_3(tmp_path, capsys):
    assert run(tmp_path, "export", "--type", "A6", "--what", "hasse") == 3
    assert "over the budget of 500000" in capsys.readouterr().err


def test_export_counts_faces_before_building_a_table(tmp_path, capsys, monkeypatch):
    """Export's face limit is read from the descent sets: A6's 546,193
    faces are refused before any table of minimal representatives."""
    import bicox.complexes

    def never(table):
        raise AssertionError("table of minimal representatives started")

    monkeypatch.setattr(bicox.complexes, "minimal_rep_table", never)
    assert run(tmp_path, "export", "--type", "A6", "--what", "hasse") == 3
    assert capsys.readouterr().err == "error: A6 has 546193 faces, over the budget of 500000\n"


def test_export_to_file(tmp_path, capsys):
    out_file = tmp_path / "a2.dot"
    code = run(
        tmp_path, "export", "--type", "A2", "--what", "hasse", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().count("label=") == 33


def test_out_into_missing_directory(tmp_path, capsys):
    out_file = tmp_path / "missing" / "x.txt"
    assert run(tmp_path, "tables", "--type", "A2", "--out", str(out_file)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cache_dir_is_a_file(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    assert main(["build", "--type", "A2", "--cache-dir", str(not_a_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_export_contingency_wrong_type(tmp_path, capsys):
    assert run(tmp_path, "export", "--type", "B2", "--what", "contingency") == 2


def test_export_contingency_checks_the_type_before_the_complex(tmp_path, capsys):
    """D6's complex is over the face budget; the type is refused first."""
    assert run(tmp_path, "export", "--type", "D6", "--what", "contingency") == 2
    assert "irreducible type-A group, got D6" in capsys.readouterr().err


def test_bad_spec(tmp_path, capsys):
    assert run(tmp_path, "build", "--type", "Q5") == 2


@pytest.mark.parametrize("spec", ["A\u0663", "A\uff13", "I2(\u0663)", "A3\n", "A3xx", "xA3"])
def test_non_ascii_digits_and_empty_factors_exit_2(tmp_path, capsys, spec):
    for command in ("verify", "tables"):
        assert run(tmp_path, command, "--type", spec) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse type spec {spec!r}"), err
    assert not list(tmp_path.iterdir())


def test_main_builds_its_parser_once_and_shares_no_options(tmp_path, capsys, monkeypatch):
    """Options of one call are gone in the next, from one parser built on
    the first call; a usage error still exits 2."""
    import bicox.cli

    seen = []
    get_factorization = bicox.cli.get_factorization
    monkeypatch.setattr(
        bicox.cli, "get_factorization", lambda args: seen.append(vars(args).copy())
        or get_factorization(args)
    )
    bicox.cli.make_parser.cache_clear()
    out = tmp_path / "a2.txt"
    flags = ["--allow-heavy", "--budget", "50", "--out", str(out)]
    assert run(tmp_path, "tables", "--type", "A2", *flags) == 0
    assert run(tmp_path, "tables", "--type", "A2") == 0
    assert capsys.readouterr().out == out.read_text()
    first, second = seen
    assert (first["allow_heavy"], first["budget"], first["out"]) == (True, 50, str(out))
    assert (second["allow_heavy"], second["budget"], second["out"]) == (False, DEFAULT_BUDGET, None)
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, "tables", "--budget", "50")  # --type is missing
    assert exit_info.value.code == 2
    assert "--type" in capsys.readouterr().err
    assert bicox.cli.make_parser.cache_info().misses == 1


def test_deterministic_exports(tmp_path, capsys):
    run(tmp_path, "export", "--type", "A2", "--what", "hasse")
    first = capsys.readouterr().out
    run(tmp_path, "export", "--type", "A2", "--what", "hasse")
    assert capsys.readouterr().out == first


def test_cache_dir_env_override(tmp_path, monkeypatch, capsys):
    from bicox.cli import default_cache_dir

    monkeypatch.setenv("BICOX_CACHE_DIR", str(tmp_path / "env-cache"))
    assert default_cache_dir() == tmp_path / "env-cache"
    assert main(["build", "--type", "A2"]) == 0
    assert (tmp_path / "env-cache" / "A2.gt").exists()
