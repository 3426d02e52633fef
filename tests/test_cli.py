"""Command-line behavior: config handling, outputs, determinism, exit codes."""

import ctypes
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from mxmnet import cli, fixtures, training
from mxmnet.cli import ConfigError, parse_config, run_bench
from mxmnet.data import (
    Molecule,
    load_atomrefs,
    load_manifest,
    save_molecule,
    split_dataset,
    target_stats,
)
from mxmnet.graph import count_angles, enumerate_angle_triples, neighbor_search, one_hop_rows
from mxmnet.model import (
    ModelConfig,
    ParamStore,
    forward,
    init_params,
    load_checkpoint,
    prepare_inputs,
    save_checkpoint,
)
from mxmnet.training import TrainConfig


def _write_config(path, **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _overfit_manifest(tmp_path, n=8):
    return fixtures.write_molecule_dir(
        fixtures.overfit_set(n, seed=7), tmp_path / "mols"
    )


def _dir_digest(root):
    acc = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        acc.update(name.encode())
        with open(os.path.join(root, name), "rb") as fh:
            acc.update(fh.read())
    return acc.hexdigest()


def test_parse_config_defaults_and_comments(tmp_path):
    cfg = parse_config(
        _write_config(tmp_path / "a.cfg", hidden=16, seed="5  # trailing note")
    )
    assert cfg["hidden"] == 16
    assert cfg["seed"] == 5
    assert cfg["layers"] == 6  # untouched default


def test_parse_config_defaults_are_the_dataclass_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(path)
    model, tcfg = ModelConfig(), TrainConfig(target="u0")
    assert cfg["hidden"] == model.hidden_dim
    assert cfg["layers"] == model.n_layers
    assert cfg["residuals"] == model.n_residuals
    assert cfg["local_rule"] == model.local_rule
    assert cfg["dl"] == model.local_cutoff
    assert cfg["dg"] == model.global_cutoff
    assert cfg["epochs"] == tcfg.epochs
    assert cfg["lr"] == tcfg.base_lr
    assert cfg["batch_group"] == tcfg.batch_group
    assert cfg["seed"] == tcfg.seed
    assert cfg["loss"] == tcfg.loss
    assert cfg["patience"] == tcfg.patience
    assert (cfg["train_frac"], cfg["val_frac"], cfg["test_frac"]) == (0.8, 0.1, 0.1)
    assert cfg["target"] is None and cfg["manifest"] is None and cfg["atomrefs"] is None
    assert cfg["out"] == "mxm_out"
    assert len(cfg) == 19


def test_train_help_lists_the_common_flags(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--help"])
    assert e.value.code == 0
    flags = {tok.strip("[],") for tok in capsys.readouterr().out.split() if tok.startswith("--")}
    assert flags == {
        "--help",
        "--config",
        "--seed",
        "--target",
        "--dg",
        "--dl",
        "--layers",
        "--hidden",
        "--lr",
        "--epochs",
        "--out",
    }


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "b.cfg"
    path.write_text("hidden = 8\nwidth = 9\n")
    with pytest.raises(ConfigError) as e:
        parse_config(path)
    assert "width" in str(e.value)
    assert ":2" in str(e.value)


def test_parse_config_rejects_a_key_given_twice(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("hidden = 8\n# a comment\nlayers = 2\nhidden = 16\n")
    with pytest.raises(ConfigError) as e:
        parse_config(path)
    message = str(e.value)
    assert "'hidden'" in message and "lines 1 and 4" in message
    assert message.startswith(f"{path}:4: ")


def test_parse_config_rejects_bad_values(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("hidden = eight\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    # A config written for the removed global-layer exclusion.
    path.write_text("global_excludes_local = true\n")
    with pytest.raises(ConfigError) as e:
        parse_config(path)
    assert str(e.value) == f"{path}:1: unknown config key 'global_excludes_local'"
    path.write_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_featurize_water_summary(tmp_path, capsys):
    mols_dir = tmp_path / "mols"
    mols_dir.mkdir()
    save_molecule(fixtures.water(), mols_dir / "water.extxyz")
    (mols_dir / "manifest.txt").write_text("water.extxyz\n")
    cfg = _write_config(
        tmp_path / "f.cfg",
        manifest=mols_dir / "manifest.txt",
        out=tmp_path / "out",
    )
    assert cli.main(["featurize", "--config", cfg]) == 0
    line = capsys.readouterr().out.strip()
    assert "N=3" in line and "El=4" in line and "Eg=6" in line
    assert "T2=2" in line and "T1=" not in line
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == [
        "0000_water.graph.txt",
        "0000_water.rbf_global.csv",
        "0000_water.rbf_local.csv",
        "0000_water.sbf_two.csv",
    ]
    graph_lines = (tmp_path / "out" / "0000_water.graph.txt").read_text().splitlines()
    assert all(ln.split()[0] in ("L", "G") for ln in graph_lines)
    rbf_header = (
        (tmp_path / "out" / "0000_water.rbf_local.csv").read_text().splitlines()[0]
    )
    assert rbf_header.startswith("j,i,rbf_01")


def test_featurize_reruns_byte_identical(tmp_path):
    manifest = _overfit_manifest(tmp_path, 4)
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    base = dict(manifest=manifest)
    cfg_a = _write_config(tmp_path / "a.cfg", out=out_a, **base)
    cfg_b = _write_config(tmp_path / "b.cfg", out=out_b, **base)
    assert cli.main(["featurize", "--config", cfg_a]) == 0
    assert cli.main(["featurize", "--config", cfg_b]) == 0
    assert _dir_digest(out_a) == _dir_digest(out_b)


def test_featurize_triple_columns_are_the_enumerated_triples():
    # The CSV node columns come from the features' edge ids; they must be
    # the rows graph.enumerate_angle_triples lists, in its order, and
    # one_hop_rows takes them to its one-hop triples.
    rng = np.random.default_rng(61)
    mols = fixtures.fixture_set() + [fixtures.random_molecule(rng) for _ in range(12)]
    rows = 0
    for rule in ("bonds", "cutoff"):
        cfg = ModelConfig(local_rule=rule)
        for m in mols:
            g, feats = prepare_inputs(m, cfg)
            t = enumerate_angle_triples(g)
            two_hop = cli._triple_nodes(feats)
            assert np.array_equal(two_hop, t.two_hop), (rule, m.key)
            assert np.array_equal(two_hop[one_hop_rows(feats)], t.one_hop), (rule, m.key)
            rows += t.two_hop.shape[0]
    assert rows > 1000


def test_featurize_empty_manifest_fails(tmp_path, capsys):
    (tmp_path / "manifest.txt").write_text("# empty\n")
    cfg = _write_config(
        tmp_path / "e.cfg", manifest=tmp_path / "manifest.txt", out=tmp_path / "out"
    )
    assert cli.main(["featurize", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_featurize_missing_manifest_key(tmp_path, capsys):
    cfg = _write_config(tmp_path / "m.cfg", out=tmp_path / "out")
    assert cli.main(["featurize", "--config", cfg]) == 2
    assert "manifest" in capsys.readouterr().err


def _train_cfg_file(tmp_path, manifest, out, **extra):
    settings = dict(
        manifest=manifest,
        target="u0",
        hidden=8,
        layers=1,
        residuals=1,
        epochs=2,
        batch_group=3,
        train_frac=0.75,
        val_frac=0.25,
        test_frac=0.0,
        out=out,
    )
    settings.update(extra)
    return _write_config(tmp_path / "train.cfg", **settings)


def test_train_writes_expected_outputs(tmp_path, capsys):
    manifest = _overfit_manifest(tmp_path)
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, manifest, out)
    assert cli.main(["train", "--config", cfg]) == 0
    assert "trained 2 epochs" in capsys.readouterr().out

    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "epoch,train_loss,val_mae,lr,seconds"
    assert len(report) == 3

    summary = json.loads((out / "summary.json").read_text())
    assert summary["target"] == "u0"
    assert summary["epochs_run"] == 2
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    assert summary["n_parameters"] == init_params(mcfg, 0).flat.size
    assert os.path.exists(summary["checkpoint"])
    assert summary["train_target_std"] > 0
    assert math.isfinite(summary["peak_rss_mb"]) and summary["peak_rss_mb"] > 0
    for key in ("minor_page_faults", "worker_minor_page_faults"):
        faults = summary[key]
        assert isinstance(faults, int) and not isinstance(faults, bool) and faults >= 0, key
    workers = summary["worker_peak_rss_mb"]
    assert isinstance(workers, float) and math.isfinite(workers) and workers >= 0


def test_train_flag_overrides_beat_config(tmp_path):
    manifest = _overfit_manifest(tmp_path)
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, manifest, out, hidden=16)
    assert cli.main(["train", "--config", cfg, "--hidden", "8"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    assert summary["n_parameters"] == init_params(mcfg, 0).flat.size


def test_train_rejects_bad_target_before_writing(tmp_path, capsys):
    manifest = _overfit_manifest(tmp_path)
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, manifest, out, target="zzz")
    assert cli.main(["train", "--config", cfg]) == 2
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize(
    "command, drop, extra, message",
    [
        # A config written for the removed local-first block order.
        ("train", "", {"order": "global_first"}, "{cfg}:12: unknown config key 'order'"),
        ("train", "target", {}, "a target name is required (config key 'target')"),
        ("train", "manifest", {}, "a manifest path is required (config key 'manifest')"),
        ("eval", "", {}, "split 'test' is empty"),
    ],
)
def test_config_errors_fail_with_one_line(tmp_path, capsys, command, drop, extra, message):
    cfg = _train_cfg_file(tmp_path, _overfit_manifest(tmp_path), tmp_path / "run", **extra)
    if drop:
        path = tmp_path / "train.cfg"
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{ln}\n" for ln in lines if not ln.startswith(f"{drop} =")))
    argv = [command, "--config", cfg]
    if command == "eval":  # the default split, test, has test_frac 0
        ckpt = str(tmp_path / "one.ckpt")
        save_checkpoint(init_params(ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)), ckpt)
        argv += ["--checkpoint", ckpt]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message.format(cfg=cfg)}\n"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_missing_target_error_line_is_the_bare_message(tmp_path, capsys, command):
    # A KeyError's str() is the repr of its message; the line must not be quoted.
    cfg = _train_cfg_file(tmp_path, _overfit_manifest(tmp_path), tmp_path / "run", target="nope")
    argv = [command, "--config", cfg]
    if command == "eval":
        ckpt = str(tmp_path / "one.ckpt")
        save_checkpoint(init_params(ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)), ckpt)
        argv += ["--checkpoint", ckpt, "--split", "train"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: molecule 'fit02.extxyz' has no target 'nope'\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_fails_cleanly(tmp_path, capsys):
    manifest = _overfit_manifest(tmp_path)
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, manifest, out, epochs=5, batch_group=1)
    assert cli.main(["train", "--config", cfg, "--lr", "1e150"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
    assert len(errors) == 1 and "non-finite" in errors[0]
    assert not (out / "model.ckpt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_rerun_keeps_the_previous_checkpoint(tmp_path, capsys, monkeypatch):
    # Six train molecules in one step per epoch: the rerun's first step runs
    # at learning rate 0, so epoch 0 improves on validation and saves the
    # .best file, and the second step diverges.
    manifest = _overfit_manifest(tmp_path)
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, manifest, out, epochs=4, batch_group=6)
    assert cli.main(["train", "--config", cfg]) == 0
    blob = (out / "model.ckpt").read_bytes()
    capsys.readouterr()
    saves = []

    def recorded(store, path):
        saves.append(str(path))
        save_checkpoint(store, path)

    monkeypatch.setattr(training, "save_checkpoint", recorded)
    assert cli.main(["train", "--config", cfg, "--lr", "1e150"]) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.count("\n") == 1 and err.startswith("error: non-finite ")
    assert saves == [str(out / "model.ckpt.best")]
    assert (out / "model.ckpt").read_bytes() == blob
    assert sorted(os.listdir(out)) == ["model.ckpt", "report.csv", "summary.json"]


def test_diverging_train_prints_only_its_error_line(tmp_path):
    # Default split fractions leave 8 molecules no validation split, so the
    # only forward after the last (diverging) Adam step is the final
    # train-error pass.  A subprocess, since pytest would capture numpy's
    # overflow warnings.
    manifest = _overfit_manifest(tmp_path)
    out = tmp_path / "run"
    cfg = _write_config(
        tmp_path / "train.cfg", manifest=manifest, target="u0", residuals=1, out=out
    )
    flags = ["--hidden", "8", "--layers", "1", "--epochs", "2", "--lr", "1e150"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "mxmnet.cli", "train", "--config", cfg, *flags],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: non-finite prediction for molecule ")
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "verify"])
def test_negative_seed_is_named_from_flag_and_file(tmp_path, capsys, command):
    # verify would otherwise report numpy's error as six failed checks.
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, _overfit_manifest(tmp_path), out, seed=-4)
    for flags, seed in ((["--seed", "-1"], -1), ([], -4)):
        assert cli.main([command, "--config", cfg, *flags]) == 2
        assert capsys.readouterr() == ("", f"error: seed must be non-negative, got {seed}\n")
    assert not out.exists()


@pytest.mark.parametrize("lr", ["inf", "nan"])
def test_train_rejects_non_finite_learning_rate(tmp_path, capsys, lr):
    manifest = _overfit_manifest(tmp_path)
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, manifest, out)
    assert cli.main(["train", "--config", cfg, "--lr", lr]) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith("error: base_lr must be positive and finite") and err.count("\n") == 1
    assert not (out / "model.ckpt").exists()


def test_train_reports_differ_by_seed(tmp_path):
    manifest = _overfit_manifest(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = _train_cfg_file(tmp_path, manifest, out_a)
    assert cli.main(["train", "--config", cfg]) == 0
    assert cli.main(["train", "--config", cfg, "--seed", "9", "--out", str(out_b)]) == 0
    mae_a = json.loads((out_a / "summary.json").read_text())["final_train_mae"]
    mae_b = json.loads((out_b / "summary.json").read_text())["final_train_mae"]
    assert mae_a != mae_b


def _strip_seconds(csv_text):
    return [ln.rsplit(",", 1)[0] for ln in csv_text.strip().splitlines()]


def test_train_rerun_is_deterministic(tmp_path):
    manifest = _overfit_manifest(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _train_cfg_file(tmp_path, manifest, out_a)
    assert cli.main(["train", "--config", cfg_a]) == 0
    assert cli.main(["train", "--config", cfg_a, "--out", str(out_b)]) == 0
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
    assert _strip_seconds((out_a / "report.csv").read_text()) == _strip_seconds(
        (out_b / "report.csv").read_text()
    )


def test_eval_matches_reported_train_error(tmp_path, capsys):
    manifest = _overfit_manifest(tmp_path)
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, manifest, out)
    assert cli.main(["train", "--config", cfg]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())

    args = ["eval", "--config", cfg, "--checkpoint", summary["checkpoint"],
            "--split", "train"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out.strip()
    met = json.loads(first)
    assert met["split"] == "train"
    assert abs(met["mae"] - summary["final_train_mae"]) < 1e-10

    assert cli.main(args) == 0
    assert capsys.readouterr().out.strip() == first


def test_train_and_eval_share_the_atom_referenced_target_std(tmp_path, capsys):
    manifest = _overfit_manifest(tmp_path)
    refs_path = tmp_path / "refs.txt"
    refs_path.write_text("H -0.5\nC -38.0\nN -54.6\nO -75.1\nF -99.7\n")
    out = tmp_path / "run"
    cfg = _train_cfg_file(tmp_path, manifest, out, atomrefs=refs_path)
    assert cli.main(["train", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    ds = split_dataset(load_manifest(manifest), (0.75, 0.25, 0.0), 0)
    std = target_stats(ds, "u0", load_atomrefs(refs_path)).std
    assert summary["train_target_std"] == std
    capsys.readouterr()

    args = ["eval", "--config", cfg, "--checkpoint", summary["checkpoint"], "--split", "train"]
    assert cli.main(args) == 0
    met = json.loads(capsys.readouterr().out)
    assert met["std_mae"] == met["mae"] / std


def test_eval_missing_checkpoint_fails(tmp_path, capsys):
    manifest = _overfit_manifest(tmp_path)
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run")
    code = cli.main(
        ["eval", "--config", cfg, "--checkpoint", str(tmp_path / "nope.ckpt")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["train --config", "eval --checkpoint", "manifest line"])
def test_a_directory_in_place_of_a_file_fails_with_one_line(tmp_path, capsys, where):
    manifest = _overfit_manifest(tmp_path)
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run", test_frac=0.25, val_frac=0.0)
    folder = tmp_path / "folder"
    folder.mkdir()
    (tmp_path / "dirs.txt").write_text("folder\n")
    argv = {
        "train --config": ["train", "--config", str(folder)],
        "eval --checkpoint": ["eval", "--config", cfg, "--checkpoint", str(folder)],
        "manifest line": ["featurize", "--config", _write_config(
            tmp_path / "f.cfg", manifest=tmp_path / "dirs.txt", out=tmp_path / "out"
        )],
    }[where]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(folder) in err


@pytest.mark.parametrize("command", ["featurize", "train", "eval"])
def test_featurization_error_names_the_molecule(tmp_path, capsys, command):
    mols = fixtures.overfit_set(8, seed=7)
    mols[5] = Molecule([1, 1], [[0.0, 0.0, 0.0]] * 2, targets={"u0": 0.5}, key="dup")
    manifest = fixtures.write_molecule_dir(mols, tmp_path / "mols")
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run")
    argv = [command, "--config", cfg]
    if command == "eval":
        # every molecule in the evaluated split
        cfg = _train_cfg_file(
            tmp_path, manifest, tmp_path / "run", train_frac=0.0, val_frac=0.0, test_frac=1.0
        )
        ckpt = str(tmp_path / "one.ckpt")
        save_checkpoint(init_params(ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)), ckpt)
        argv = [command, "--config", cfg, "--checkpoint", ckpt]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: molecule 'dup.extxyz': atoms 0 and 1 are at the same position\n"


@pytest.mark.parametrize("entry", ["fit00.extxyz", "./fit00.extxyz"])
def test_a_molecule_file_listed_twice_fails_with_one_line(tmp_path, capsys, entry):
    # Listed twice, the molecule could land in train, val and test at once.
    manifest = _overfit_manifest(tmp_path, n=10)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(f"# again\n{entry}\n")
    cfg = _train_cfg_file(
        tmp_path, manifest, tmp_path / "run", train_frac=0.5, val_frac=0.2, test_frac=0.3
    )
    assert cli.main(["train", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {manifest}:12: molecule file {entry!r} listed twice, lines 1 and 12\n"
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("command", ["train", "featurize", "atomrefs"])
def test_parse_errors_name_their_file(tmp_path, capsys, command):
    manifest = _overfit_manifest(tmp_path)
    base = os.path.dirname(os.path.abspath(manifest))
    extra = {}
    if command == "train":
        bad = os.path.join(base, "fit03.extxyz")
        with open(bad, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[2] = "C 0.0 zz 0.0"
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        want = f"{bad}:3: coordinate is not a float: 'zz'"
    elif command == "featurize":
        bad = os.path.join(base, "fit05.extxyz")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("3\nu0=0.5\nC 0 0 0\nH 1 0 0\n")
        want = f"{bad}:5: body ends before the declared 3 atom lines"
    else:
        bad = tmp_path / "refs.txt"
        bad.write_text("H -0.5\nC\n")
        extra["atomrefs"] = bad
        want = f"{bad}:2: expected 'symbol value', got 'C'"
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run", **extra)
    argv = ["featurize" if command == "featurize" else "train", "--config", cfg]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize("n", [-3, 0, 8, 16, 24])
def test_bench_with_too_few_points_fails_with_one_line(tmp_path, capfd, n):
    assert cli.main(["bench", "--n", str(n), "--out", str(tmp_path / "bench")]) == 2
    err = capfd.readouterr().err  # capfd: LAPACK writes to the descriptor
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if n < 2:
        assert err == f"error: bench needs at least 2 points (--n), got {n}\n"
    else:
        assert re.match(r"error: bench: the \w+ scheme has \d+ fit points \(cutoffs", err)
    assert not (tmp_path / "bench" / "bench.csv").exists()


@pytest.mark.parametrize("rule", ["cutoff", "explicit"])
def test_train_rejects_coincident_atoms_outside_both_layers(tmp_path, capsys, rule):
    # Under the cutoff rule, or explicit bonds that skip the pair, a
    # zero-distance pair is in neither layer; it must still fail loudly.
    # The covalent rule's case is test_featurization_error_names_the_molecule.
    mols = fixtures.overfit_set(8, seed=7)
    bonds = [(0, 2), (1, 2)] if rule == "explicit" else None
    coords = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    mols[3] = Molecule([6, 6, 1], coords, bonds=bonds, targets={"u0": 0.5}, key="same")
    manifest = fixtures.write_molecule_dir(mols, tmp_path / "mols")
    extra = {"local_rule": "cutoff"} if rule == "cutoff" else {}
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run", **extra)
    assert cli.main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "error: molecule 'same.extxyz': atoms 0 and 1 are at the same position\n"


def test_eval_rejects_a_bad_target_before_featurizing(tmp_path, capsys):
    mols = fixtures.overfit_set(8, seed=7)
    mols[5] = Molecule([1, 1], [[0.0, 0.0, 0.0]] * 2, targets={"u0": 0.5}, key="dup")
    manifest = fixtures.write_molecule_dir(mols, tmp_path / "mols")
    cfg = _train_cfg_file(
        tmp_path, manifest, tmp_path / "run", target="nope",
        train_frac=0.5, val_frac=0.0, test_frac=0.5,
    )
    ckpt = str(tmp_path / "one.ckpt")
    save_checkpoint(init_params(ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)), ckpt)
    for split in ("train", "test"):
        assert cli.main(["eval", "--config", cfg, "--checkpoint", ckpt, "--split", split]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "no target 'nope'" in err


def test_eval_scores_a_dataset_without_a_train_split(tmp_path, capsys):
    manifest = _overfit_manifest(tmp_path)
    cfg = _train_cfg_file(
        tmp_path, manifest, tmp_path / "run", train_frac=0.0, val_frac=0.0, test_frac=1.0
    )
    ckpt = str(tmp_path / "one.ckpt")
    save_checkpoint(init_params(ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)), ckpt)
    assert cli.main(["eval", "--config", cfg, "--checkpoint", ckpt]) == 0
    out, err = capsys.readouterr()
    met = json.loads(out)
    assert err == "" and met["n"] == 8
    assert math.isfinite(met["mae"]) and met["std_mae"] is None


@pytest.mark.parametrize("flags", [["--dl", "nan"], ["--dg", "inf"]])
def test_eval_rejects_non_finite_cutoffs(tmp_path, capsys, flags):
    manifest = _overfit_manifest(tmp_path)
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run", test_frac=0.25, val_frac=0.0)
    ckpt = str(tmp_path / "one.ckpt")
    save_checkpoint(init_params(ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)), ckpt)
    assert cli.main(["eval", "--config", cfg, "--checkpoint", ckpt, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cutoff must be finite" in err


@pytest.mark.parametrize(
    "flags, expect",
    [
        (["--layers", "1"], "117 parameters where the model config expects 59, "
         "first unmatched 'layer1/global/mp1/mlp/w1'"),
        (["--layers", "3"], "117 parameters where the model config expects 175, "
         "first unmatched 'layer2/global/mp1/mlp/w1'"),
        (["--hidden", "4"], "'embed/table' has shape (54, 8), "
         "the model config expects (54, 4)"),
        (["--layers", "2", "--hidden", "8"], None),
    ],
)
def test_eval_rejects_checkpoint_of_another_architecture(tmp_path, capsys, flags, expect):
    manifest = _overfit_manifest(tmp_path)
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run", test_frac=0.25, val_frac=0.0)
    ckpt = str(tmp_path / "two.ckpt")
    save_checkpoint(init_params(ModelConfig(hidden_dim=8, n_layers=2, n_residuals=1)), ckpt)
    code = cli.main(["eval", "--config", cfg, "--checkpoint", ckpt, *flags])
    err = capsys.readouterr().err
    if expect is None:
        assert code == 0 and err == ""
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expect in err


def test_eval_rejects_a_local_first_checkpoint(tmp_path, capsys):
    # The removed local-first block order saved a cross_init map after the
    # embedding table; such a checkpoint fits no model config.
    manifest = _overfit_manifest(tmp_path)
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run", test_frac=0.25, val_frac=0.0)
    params = init_params(ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1))
    layout = [(name, t.data.shape) for name, t in params.items()]
    layout[1:1] = [("cross_init/w1", (8, 8)), ("cross_init/b1", (8,)),
                   ("cross_init/w2", (8, 8)), ("cross_init/b2", (8,))]
    ckpt = str(tmp_path / "local_first.ckpt")
    save_checkpoint(ParamStore(layout), ckpt)
    assert cli.main(["eval", "--config", cfg, "--checkpoint", ckpt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "parameter 1 is 'cross_init/w1'" in err


def test_eval_rejects_a_non_finite_checkpoint(tmp_path, capsys):
    manifest = _overfit_manifest(tmp_path)
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run", test_frac=0.25, val_frac=0.0)
    params = init_params(ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1))
    params["embed/table"].data[0, 0] = math.nan
    ckpt = str(tmp_path / "nan.ckpt")
    save_checkpoint(params, ckpt)
    assert cli.main(["eval", "--config", cfg, "--checkpoint", ckpt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite value in parameter 'embed/table'" in err


@pytest.mark.parametrize(
    "header, reason",
    [
        (b"MXMCKPT 1\n", "the record count is not an integer: ''"),
        (b"MXMCKPT 1\nmany\n", "the record count is not an integer: 'many'"),
        (b"MXMCKPT 1\n-3\n", "negative record count -3"),
        (b"MXMCKPT one\n0\n", "the version is not an integer: 'one'"),
        (b"MXMCKPT 2\n0\n", "unsupported checkpoint version 2"),
        (b"MXMCKPT 1\n2\nw 0\n" + bytes(8), "truncated checkpoint"),
        (b"MXMCKPT 1\n1\nembed/table two 3 4\n", "dimension count of 'embed/table'"),
        # Each record is checked before anything is read or allocated.
        (b"MXMCKPT 1\n1\nw 1 100000000000\n", "the data of 'w' needs 800000000000 bytes, 0 are left"),
        (b"MXMCKPT 1\n1\nw 1 -3\n", "negative dimension in the shape (-3,) of 'w'"),
        (b"MXMCKPT 1\n1\nw 2 -1 -6\n", "negative dimension in the shape (-1, -6) of 'w'"),
        (b"MXMCKPT 1\n2\nw 0\n" + bytes(8) + b"w 0\n" + bytes(8), "duplicate parameter 'w'"),
        # Fields past the dimensions.
        (b"MXMCKPT 1\n1\nw 0 extra\n" + bytes(8), "malformed record for 'w'"),
        (b"MXMCKPT 1\n1\nw 1 2 3\n" + bytes(16), "malformed record for 'w'"),
        # Bytes that are not UTF-8 in a header line.
        (b"\xff\xfeMXMCKPT 1\n0\n", "the first line is not UTF-8 text"),
        (b"MXMCKPT 1\n\xff\n", "the record count is not UTF-8 text"),
        (b"MXMCKPT 1\n2\nw 0\n" + bytes(8) + b"\xff 0\n" + bytes(8),
         "the header line of record 2 is not UTF-8 text"),
    ],
)
def test_eval_rejects_a_malformed_checkpoint_header(tmp_path, capsys, header, reason):
    manifest = _overfit_manifest(tmp_path)
    cfg = _train_cfg_file(tmp_path, manifest, tmp_path / "run", test_frac=0.25, val_frac=0.0)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(header)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: .*{re.escape(reason)}"):
        load_checkpoint(ckpt)
    assert cli.main(["eval", "--config", cfg, "--checkpoint", str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
    assert reason in err


def test_verify_passes_on_clean_fixtures(tmp_path, capsys):
    assert cli.main(["verify", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 8
    assert all(ln.startswith("PASS") for ln in lines)
    assert any("measured=" in ln and "tol=" in ln for ln in lines)


def test_verify_reports_a_check_that_raises_as_failed(tmp_path, capsys, monkeypatch):
    # The other checks pass at once; the rigid check raises, and must print
    # FAIL rather than end the run.
    for name in ("gradients", "permutation", "angle_count", "message_count",
                 "bessel_roots", "cutoff"):
        monkeypatch.setattr(cli, f"_check_{name}", lambda seed: (0.0, 1.0))
    monkeypatch.setattr(cli, "_check_checkpoint", lambda seed, out: (0.0, 0.0))

    def broken(seed):
        raise ValueError("rigid check broke")

    monkeypatch.setattr(cli, "_check_rigid", broken)
    assert cli.main(["verify", "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL rigid-invariance error=rigid check broke" in out
    assert sum(ln.startswith("PASS") for ln in out) == 7
    assert out[-1] == "1 of 8 checks failed"


def test_bench_writes_csv_and_slopes(tmp_path, capsys):
    out = tmp_path / "bench"
    assert cli.main(["bench", "--n", "128", "--out", str(out)]) == 0
    assert "slopes:" in capsys.readouterr().out
    rows = (out / "bench.csv").read_text().splitlines()
    assert rows[0] == "scheme,n_nodes,cutoff,mean_degree,messages,seconds"
    assert len(rows) > 1
    slopes = json.loads((out / "bench_summary.json").read_text())
    assert set(slopes) == {"local", "global", "reference"}


def test_bench_counts_match_graph_oracles():
    rows, _ = run_bench(n=96, seed=5, repeats=1)
    rng = np.random.default_rng(5)
    pts = fixtures.random_points(96, 16.0, rng)
    from mxmnet.graph import MultiplexGraph

    for scheme, n, cutoff, k_mean, msgs, dt in rows:
        edges = neighbor_search(pts, cutoff)
        if scheme == "local":
            g = MultiplexGraph(96, edges, np.empty((0, 2), dtype=np.int64))
            t = enumerate_angle_triples(g)
            assert msgs == t.two_hop.shape[0] + t.one_hop.shape[0]
        elif scheme == "global":
            assert msgs == 2 * edges.shape[0]
        else:
            undirected = {tuple(sorted(e)) for e in edges}
            assert msgs == 2 * count_angles(96, undirected)


def test_commands_write_only_under_out(tmp_path, monkeypatch):
    manifest = _overfit_manifest(tmp_path, 4)
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    cfg = _write_config(
        tmp_path / "w.cfg",
        manifest=manifest,
        target="u0",
        hidden=8,
        layers=1,
        residuals=1,
        epochs=1,
        train_frac=1.0,
        val_frac=0.0,
        test_frac=0.0,
        out=tmp_path / "sink",
    )
    assert cli.main(["featurize", "--config", cfg]) == 0
    assert cli.main(["train", "--config", cfg]) == 0
    assert os.listdir(workdir) == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "import mxmnet.cli as c, sys; sys.exit(c.main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "featurize" in proc.stdout and "bench" in proc.stdout


# --- the allocator setting of the mxmnet command -----------------------------


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


needs_mallopt = pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")

# One untaped paper-dims forward of a fixed 29-atom molecule, run three times;
# prints the minor page faults each run added.
_FAULT_PROBE = """
import resource
import numpy as np
from mxmnet import fixtures
from mxmnet.model import ModelConfig, forward, init_params, prepare_inputs

cfg = ModelConfig()
params = init_params(cfg, 0)
m = fixtures.random_molecule(np.random.default_rng(0), n_atoms=29, key="faults")
_, feats = prepare_inputs(m, cfg)
counts = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    forward(m, params, cfg, feats=feats)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*counts)
"""


@needs_mallopt
def test_kept_freed_memory_makes_a_repeated_forward_fault_free():
    cli._keep_freed_memory()
    scope = {}
    exec(_FAULT_PROBE, scope)
    # Without the setting the second forward faults about 10k times.
    assert scope["counts"][1] < 64


@needs_mallopt
def test_importing_the_package_leaves_the_allocator_alone():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    every_module = (
        "import importlib, pkgutil, mxmnet\n"
        "for mod in pkgutil.iter_modules(mxmnet.__path__):\n"
        "    importlib.import_module('mxmnet.' + mod.name)\n"
    )
    probe = every_module + _FAULT_PROBE
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    # Every module is imported, yet freed arrays still go back to the kernel.
    assert int(proc.stdout.split()[1]) >= 64


def test_main_keeps_freed_memory_once_per_command(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
    assert cli.main(["featurize"]) == 2  # no manifest: the command fails
    assert calls == [1]


def test_keep_freed_memory_sets_the_two_glibc_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = types.SimpleNamespace(mallopt=mallopt)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    cli._keep_freed_memory()
    # M_MMAP_THRESHOLD at its 32 MiB maximum, M_TRIM_THRESHOLD out of reach.
    assert calls == [(-3, 32 * 1024 * 1024), (-1, 2**31 - 1)]


def _no_libc(name):
    raise OSError("no libc")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()], ids=["no-libc", "no-mallopt"])
def test_keep_freed_memory_is_quiet_where_mallopt_is_missing(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._keep_freed_memory() is None


def test_keep_freed_memory_twice_changes_no_result():
    mcfg = ModelConfig(hidden_dim=8, n_layers=1, n_residuals=1)
    params = init_params(mcfg, 3)
    m = fixtures.water()
    before = forward(m, params, mcfg).data.tobytes()
    cli._keep_freed_memory()
    cli._keep_freed_memory()
    assert forward(m, params, mcfg).data.tobytes() == before
