"""Molecule file round-trips, dataset splitting and target statistics."""

import numpy as np
import pytest

from mxmnet import fixtures
from mxmnet.data import (
    Dataset,
    Molecule,
    ParseError,
    load_atomrefs,
    load_manifest,
    load_molecule,
    parse_molecule,
    save_molecule,
    serialize_molecule,
    split_dataset,
    subtract_atomrefs,
    target_stats,
)


def test_round_trip_fixtures():
    for m in (fixtures.water(), fixtures.dihydrogen(), fixtures.methane()):
        again = parse_molecule(serialize_molecule(m))
        assert again == m


def test_round_trip_random_molecules():
    rng = np.random.default_rng(21)
    for trial in range(30):
        m = fixtures.random_molecule(rng)
        m.targets["u0"] = float(rng.standard_normal())
        assert parse_molecule(serialize_molecule(m)) == m


def test_round_trip_keeps_awkward_floats():
    m = Molecule(
        [1, 1],
        [[0.1 + 0.2, 1.0 / 3.0, -0.0], [1e-17, 2.0**-40, 12345.6789012345678]],
        targets={"u0": 0.1 + 0.2},
    )
    again = parse_molecule(serialize_molecule(m))
    assert np.array_equal(again.coords, m.coords)
    assert again.targets["u0"] == m.targets["u0"]


def test_parse_accepts_crlf():
    text = serialize_molecule(fixtures.water()).replace("\n", "\r\n")
    assert parse_molecule(text) == fixtures.water()


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_molecule("abc\nu0=1\n")
    assert e.value.line == 1

    with pytest.raises(ParseError) as e:
        parse_molecule("1\nu0=\nH 0 0 0\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_molecule("2\nu0=1\nH 0 0 0\nH 1 zz 0\n")
    assert e.value.line == 4

    with pytest.raises(ParseError) as e:
        parse_molecule("1\nu0=1\nQq 0 0 0\n")
    assert e.value.line == 3


def test_parse_rejects_non_finite_targets():
    for v in ("nan", "inf", "-inf", "NaN"):
        with pytest.raises(ParseError) as e:
            parse_molecule(f"1\nu0=1 gap={v}\nH 0 0 0\n")
        assert e.value.line == 2
        assert "gap" in str(e.value)


def test_parse_rejects_short_files_and_bad_bonds():
    with pytest.raises(ParseError):
        parse_molecule("3\nu0=1\nH 0 0 0\nH 1 0 0\n")
    bad_bond = "2\nu0=1\nH 0 0 0\nH 1 0 0\nBONDS\n0 5\n"
    with pytest.raises((ParseError, ValueError)):
        parse_molecule(bad_bond)


def test_molecule_validation():
    with pytest.raises(ValueError):
        Molecule([], [])
    with pytest.raises(ValueError):
        Molecule([1], [[0.0, 0.0, np.inf]])
    with pytest.raises(ValueError):
        Molecule([1, 1], [[0, 0, 0], [1, 0, 0]], bonds=[(0, 0)])
    with pytest.raises(ValueError):
        Molecule([1, 1], [[0, 0, 0], [1, 0, 0]], bonds=[(0, 3)])


def test_molecule_equality_ignores_key():
    a = fixtures.water()
    b = parse_molecule(serialize_molecule(a), key="renamed")
    assert a == b
    assert a.key != b.key


def test_save_and_load(tmp_path):
    m = fixtures.methane()
    path = tmp_path / "ch4.extxyz"
    save_molecule(m, path)
    assert load_molecule(path) == m


def test_manifest_loading(tmp_path):
    mols = fixtures.fixture_set(4)
    manifest = fixtures.write_molecule_dir(mols, tmp_path / "mols")
    ds = load_manifest(manifest)
    assert len(ds) == 4
    assert [m.key for m in ds.molecules] == sorted(
        m.key for m in ds.molecules
    ) or len({m.key for m in ds.molecules}) == 4


def test_manifest_skips_comments(tmp_path):
    save_molecule(fixtures.water(), tmp_path / "w.extxyz")
    mf = tmp_path / "manifest.txt"
    mf.write_text("# a comment\n\nw.extxyz\n")
    ds = load_manifest(mf)
    assert len(ds) == 1


def test_empty_manifest_fails(tmp_path):
    mf = tmp_path / "manifest.txt"
    mf.write_text("# nothing here\n")
    with pytest.raises(ValueError):
        load_manifest(mf)


def _keyed_set(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        m = fixtures.random_molecule(rng)
        m.targets["u0"] = float(rng.standard_normal())
        m.key = f"mol{k:03d}"
        out.append(m)
    return out


def test_split_sizes_8_1_1():
    ds = Dataset(_keyed_set(10))
    out = split_dataset(ds, (0.8, 0.1, 0.1), seed=7)
    assert len(out.split.train) == 8
    assert len(out.split.val) == 1
    assert len(out.split.test) == 1
    all_idx = sorted(out.split.train + out.split.val + out.split.test)
    assert all_idx == list(range(10))


def test_split_is_deterministic():
    ds = Dataset(_keyed_set(24))
    a = split_dataset(ds, seed=5).split
    b = split_dataset(ds, seed=5).split
    assert a.train == b.train and a.val == b.val and a.test == b.test


def test_split_seeds_differ():
    ds = Dataset(_keyed_set(100))
    a = split_dataset(ds, seed=1).split
    b = split_dataset(ds, seed=2).split
    assert a.train != b.train


def test_split_membership_survives_reordering():
    mols = _keyed_set(20, seed=3)
    first = split_dataset(Dataset(mols), seed=9)
    shuffled = list(mols)
    np.random.default_rng(99).shuffle(shuffled)
    second = split_dataset(Dataset(shuffled), seed=9)
    for name in ("train", "val", "test"):
        keys_a = {first.molecules[i].key for i in getattr(first.split, name)}
        keys_b = {second.molecules[i].key for i in getattr(second.split, name)}
        assert keys_a == keys_b


def test_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        split_dataset(Dataset([]), (0.8, 0.1, 0.1))
    ds = Dataset(_keyed_set(4))
    with pytest.raises(ValueError):
        split_dataset(ds, (0.8, 0.3, 0.1))
    with pytest.raises(ValueError):
        split_dataset(ds, (0.8, -0.1, 0.1))
    for bad in ((float("nan"), 0.1, 0.1), (0.8, float("inf"), 0.1), (0.8, 0.1, float("-inf"))):
        with pytest.raises(ValueError, match="bad split fractions"):
            split_dataset(ds, bad)
    with pytest.raises(ValueError):
        ds.subset("train")  # no split attached yet


def test_target_stats_match_two_pass_reference():
    mols = _keyed_set(50, seed=11)
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(50) * 4.0 + 2.0
    for m, v in zip(mols, vals):
        m.targets["u0"] = float(v)
    ds = split_dataset(Dataset(mols), (1.0, 0.0, 0.0), seed=0)
    stats = target_stats(ds, "u0")
    mean = float(np.sum(vals)) / 50
    var = float(np.sum((vals - mean) ** 2)) / 50  # population, not sample
    assert abs(stats.mean - mean) < 1e-12
    assert abs(stats.std - np.sqrt(var)) < 1e-12
    assert stats.n == 50
    assert not stats.degenerate


def test_target_stats_flags_constant_targets():
    mols = _keyed_set(5)
    for m in mols:
        m.targets["u0"] = 3.25
    ds = split_dataset(Dataset(mols), (1.0, 0.0, 0.0), seed=0)
    stats = target_stats(ds, "u0")
    assert stats.std == 0.0
    assert stats.degenerate


def test_target_stats_missing_target_fails():
    mols = _keyed_set(3)
    del mols[1].targets["u0"]
    ds = split_dataset(Dataset(mols), (1.0, 0.0, 0.0), seed=0)
    with pytest.raises(KeyError):
        target_stats(ds, "u0")


def test_target_stats_of_atom_referenced_targets():
    mols = _keyed_set(20, seed=4)
    refs = {z: -0.25 * z for z in range(1, 55)}
    ds = split_dataset(Dataset(mols), (0.5, 0.25, 0.25), seed=1)
    vals = np.array([subtract_atomrefs(m, "u0", refs) for m in ds.subset("train")])
    stats = target_stats(ds, "u0", refs)
    assert stats.n == vals.size == 10
    assert stats.mean == float(vals.mean())
    assert stats.std == float(np.sqrt(np.mean((vals - vals.mean()) ** 2)))
    assert target_stats(ds, "u0", None) == target_stats(ds, "u0")


def test_atomref_subtraction():
    h2 = fixtures.dihydrogen()
    assert h2.targets["u0"] == -1.17
    assert abs(subtract_atomrefs(h2, "u0", {1: -0.5}) - (-0.17)) < 1e-12
    assert subtract_atomrefs(h2, "u0", {1: 0.0}) == h2.targets["u0"]

    w = fixtures.water()
    refs = {1: -0.5, 8: -75.0}
    want = w.targets["u0"] - (2 * -0.5 + -75.0)
    assert abs(subtract_atomrefs(w, "u0", refs) - want) < 1e-12


def test_atomref_missing_element_is_named():
    with pytest.raises(ValueError) as e:
        subtract_atomrefs(fixtures.water(), "u0", {1: -0.5})
    assert "O" in str(e.value)


def test_load_atomrefs(tmp_path):
    path = tmp_path / "refs.txt"
    path.write_text("# element energies\nH -0.5\nO -75.0\n\n")
    refs = load_atomrefs(path)
    assert refs == {1: -0.5, 8: -75.0}
    bad = tmp_path / "bad.txt"
    bad.write_text("H notafloat\n")
    with pytest.raises(ValueError):
        load_atomrefs(bad)
    for value in ("nan", "inf", "-inf"):
        bad.write_text(f"H -0.5\nO {value}\n")
        with pytest.raises(ParseError) as e:
            load_atomrefs(bad)
        assert e.value.line == 2
    # An element given twice.
    bad.write_text("C -1.0\nH -0.5\n\nC -2.0\n")
    with pytest.raises(ParseError, match="element 'C' given twice, lines 1 and 4") as e:
        load_atomrefs(bad)
    assert e.value.line == 4
