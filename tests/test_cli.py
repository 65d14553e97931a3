"""End-to-end CLI tests (in-process, tiny workloads)."""

import hashlib
import json
import struct
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from flowbridge.analysis import curvature_profile, empirical_w2
from flowbridge.cli import main
from flowbridge.nn import ModelConfig, VectorFieldModel, load_checkpoint, save_checkpoint
from flowbridge.sampler import SCHEDULES, integrate
from flowbridge.signalio import MAGIC, VERSION, load_signals, read_csv, save_signals, write_frame
from flowbridge.tasks import TaskSpec, gen_two_moons, make_training_stream

from conftest import FRAME_FAULTS


def _assert_one_error_line(rc, capsys, needle):
    """The command exited 1 with exactly one `error:` line on stderr, containing needle."""
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


@pytest.fixture(scope="module")
def planar_run(tmp_path_factory):
    """A tiny trained two-moons checkpoint shared by the read-only commands."""
    root = tmp_path_factory.mktemp("planar")
    cfg = {
        "task": {"family": "two_moons"},
        "model": {"hidden": 16, "depth": 2},
        "train": {"iterations": 30, "batch_size": 8, "lr": 1e-3, "log_every": 10, "seed": 3},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = root / "run"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return out


def test_train_outputs(planar_run):
    assert (planar_run / "model.fbc").exists()
    assert (planar_run / "config.json").exists()
    header, rows = read_csv(planar_run / "loss.csv")
    assert header == ["iteration", "loss"]
    iterations = [int(r[0]) for r in rows]
    assert iterations[0] == 1
    assert iterations[-1] == 30
    assert all(np.isfinite(float(r[1])) for r in rows)


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_configs_hold_every_experiment_model():
    assert [p.stem for p in CONFIGS] == [
        "clip_chunked_ot_16", "clip_chunked_ot_256", "clip_chunked_ot_64", "clip_independent",
        "cond_ring_chunked_ot", "cond_ring_independent",
        "eight_gaussians_chunked_ot", "eight_gaussians_independent",
    ]
    # A run's seed comes from --seed.
    assert not [p.name for p in CONFIGS if "seed" in json.loads(p.read_text())["train"]]


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_trains(config, tmp_path):
    argv = ["train", "--config", str(config), "--set", "train.iterations=2", "--out", str(tmp_path)]
    assert main(argv) == 0


def test_train_set_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 5, "batch_size": 4},
    }))
    out = tmp_path / "run"
    rc = main([
        "train", "--config", str(cfg_path), "--out", str(out),
        "--set", "train.iterations=3", "--seed", "9",
    ])
    assert rc == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["train"]["iterations"] == 3
    assert echoed["train"]["seed"] == 9
    assert "3 iterations" in capsys.readouterr().out


def test_train_seed_flag_sets_the_training_seed(tmp_path):
    # --seed overrides train.seed, and the flag, config.json and the
    # checkpoint all agree on the seed the run used.
    def run(name, train_seed, argv):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({
            "task": {"family": "two_moons"},
            "model": {"hidden": 8, "depth": 2},
            "train": {"iterations": 3, "batch_size": 4, "seed": train_seed},
        }))
        out = tmp_path / name
        assert main(["train", "--config", str(cfg_path), "--out", str(out), *argv]) == 0
        return out

    flagged = run("flag", 5, ["--seed", "9"])
    configured = run("cfg", 9, [])
    echoed = json.loads((flagged / "config.json").read_text())
    assert "seed" not in echoed and echoed["train"]["seed"] == 9
    model, extra = load_checkpoint(flagged / "model.fbc")
    assert extra["train"]["seed"] == 9
    reference, _ = load_checkpoint(configured / "model.fbc")
    for name, p in model.params.items():
        assert np.array_equal(p.data, reference.params[name].data), name


def test_train_rejects_derived_model_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons"},
        "model": {"signal_length": 4},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    _assert_one_error_line(rc, capsys, "signal_length")


def test_train_unknown_task_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons", "bogus": 1},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    _assert_one_error_line(rc, capsys, "task section")


@pytest.mark.parametrize(
    "override",
    [
        "train.iterations=2.5",
        "train.iterations=true",
        "model.hidden=8.5",
        "train.batch_size=8.0",
        "train.chunk_size=1.0",
        "train.seed=1.5",
        "train.log_every=1.5",
        "task.n=2.0",
    ],
)
def test_train_rejects_non_integer_field(tmp_path, capsys, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4, "coupling": "chunked_ot", "chunk_size": 2},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--set", override])
    _assert_one_error_line(rc, capsys, f"{override.split('=')[0].split('.')[-1]} must be an integer")
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        "train.sinkhorn_epsilon=NaN",
        "train.lr=Infinity",
        "train.lr=true",
        "train.cond_dropout=true",
        "train.sinkhorn_epsilon=true",
        "task.seed_noise=true",
        "task.clean_mix_prob=true",
        "task.fs=0",
        "task.fs=NaN",
        "task.fs=200",
    ],
)
def test_train_rejects_non_finite_hyperparameter(tmp_path, capsys, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "toy_signal", "n": 16, "degradation": "clip"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4, "coupling": "chunked_ot",
                  "chunk_size": 2, "ot_method": "sinkhorn", "sinkhorn_epsilon": 0.5},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--set", override])
    _assert_one_error_line(rc, capsys, override.split(".")[1].split("=")[0])
    assert not out.exists()


def test_train_rejects_field_the_coupling_ignores(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out),
               "--set", "train.chunk_size=2", "--set", "train.sinkhorn_epsilon=0.5"])
    _assert_one_error_line(rc, capsys, "chunk_size only applies to chunked_ot coupling")
    assert not out.exists()


def test_train_rejects_unknown_top_level_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4},
        "trian": {"iterations": 999},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
    _assert_one_error_line(rc, capsys, "unknown config key 'trian'")
    assert not out.exists()


def test_train_refuses_a_top_level_seed(tmp_path, capsys):
    # A run has one seed, train.seed, which --seed sets.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 4,
        "task": {"family": "two_moons"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
    _assert_one_error_line(rc, capsys, "unknown config key 'seed'; expected task, model, train")
    assert not out.exists()


@pytest.mark.parametrize(
    "override", ["model.cond_embed=0", "model.time_features=0", "model.max_time_freq=1"]
)
def test_train_refuses_the_embedding_sizes(tmp_path, capsys, override):
    # The condition and time embedding sizes are constants of the model.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "cond_ring"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--set", override])
    key = override.split(".")[1].split("=")[0]
    _assert_one_error_line(rc, capsys, f"unexpected keyword argument '{key}'")
    assert not out.exists()


def test_train_rejects_chunk_size_not_dividing_n(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out),
               "--set", "train.coupling=chunked_ot", "--set", "train.chunk_size=3"])
    _assert_one_error_line(rc, capsys, "chunk_size 3 does not divide task n 2")
    assert not out.exists()


@pytest.mark.parametrize("epsilon", [5e-324, 1e-300])
def test_train_refuses_a_sinkhorn_epsilon_below_the_cost_resolution(tmp_path, capsys, epsilon):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "eight_gaussians"},
        "model": {"hidden": 8, "depth": 1},
        "train": {"iterations": 2, "batch_size": 8, "coupling": "chunked_ot", "chunk_size": 2,
                  "ot_method": "sinkhorn", "sinkhorn_epsilon": epsilon},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    _assert_one_error_line(rc, capsys, f"epsilon {epsilon:g} is below float64 resolution")


def test_train_missing_config_file(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")])
    _assert_one_error_line(rc, capsys, "cannot read config")


def test_eval_writes_curvature_of_the_decode(planar_run, tmp_path, capsys):
    # The gamma=0 curvature rows are the profile of decoding the seeded noise
    # through the null branch.
    out = tmp_path / "curv"
    rc = main([
        "eval", "--checkpoint", str(planar_run / "model.fbc"),
        "--out", str(out), "--gammas", "0,1", "--samples", "6", "--steps", "5", "--seed", "2",
    ])
    assert rc == 0
    header, rows = read_csv(out / "curvature.csv")
    assert header == ["model", "gamma", "tau", "mean", "p25", "p75"]
    assert len(rows) == 10
    model, _ = load_checkpoint(planar_run / "model.fbc")
    z = np.random.default_rng(2).standard_normal((6, 2))
    traj = integrate(model, z, SCHEDULES["raised_cosine"](5), direction="backward")
    prof = curvature_profile([traj])
    expected = np.stack([prof.taus, prof.mean, prof.p25, prof.p75], axis=1)
    got = np.array([[float(v) for v in r[2:]] for r in rows if float(r[1]) == 0.0])
    assert {r[0] for r in rows} == {planar_run.name}
    assert np.array_equal(got, expected)
    ET.fromstring((out / "curvature.svg").read_text())
    assert "curvature=" in capsys.readouterr().out


def test_bridge_command(planar_run, tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2)).astype(np.float32)
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, x)
    out = tmp_path / "bridged"
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(out), "--steps", "4",
    ])
    assert rc == 0
    y, _ = load_signals(out / "output.fbs")
    z, _ = load_signals(out / "latent.fbs")
    assert y.shape == x.shape
    assert z.shape == x.shape
    assert np.all(np.isfinite(y))
    # Without --condition only the null branch decodes, so no gamma is named.
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("bridged 4 signals (steps=4); ") and "gamma" not in summary


@pytest.fixture(scope="module")
def ring_run(tmp_path_factory):
    """A 2-iteration cond_ring checkpoint: a model with a one-value condition."""
    root = tmp_path_factory.mktemp("ring")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "cond_ring"},
        "model": {"hidden": 8, "depth": 1},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    assert main(["train", "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return root / "run"


def test_bridge_summary_names_gamma_under_a_condition(ring_run, tmp_path, capsys):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.full((3, 2), 0.5, dtype=np.float32))
    capsys.readouterr()
    rc = main([
        "bridge", "--checkpoint", str(ring_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"), "--steps", "4",
        "--condition", "0.5", "--gamma", "1.5",
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("bridged 3 signals (gamma=1.5, steps=4); ")


def test_bridge_condition_overflowing_float32(ring_run, tmp_path, capsys):
    # 1e39 is finite in float64 but not in float32, the dtype the model reads.
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.full((3, 2), 0.5, dtype=np.float32))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([
            "bridge", "--checkpoint", str(ring_run / "model.fbc"),
            "--input", str(sig_path), "--out", str(tmp_path / "b"),
            "--condition", "1e39",
        ])
    _assert_one_error_line(rc, capsys, "condition has non-finite values in float32")


@pytest.mark.parametrize("command", ["bridge", "eval"])
def test_gamma_overflowing_float32(ring_run, tmp_path, capsys, command):
    # 1e39 is finite in float64 but not in float32, the dtype of the blend.
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.full((3, 2), 0.5, dtype=np.float32))
    argv = {
        "bridge": ["--input", str(sig_path), "--condition", "0.5", "--gamma", "1e39"],
        "eval": ["--gammas", "1,1e39", "--samples", "8", "--steps", "4"],
    }[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--checkpoint", str(ring_run / "model.fbc"),
                   "--out", str(tmp_path / "o"), *argv])
    _assert_one_error_line(rc, capsys, "gamma must be finite in float32")
    assert not (tmp_path / "o").exists()


def test_eval_checks_every_gamma_before_decoding(planar_run, tmp_path, capsys):
    # One decode serves every gamma of an unconditional model; 1e39 is still refused.
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(planar_run / "model.fbc"), "--out", str(tmp_path / "o"),
               "--gammas", "1,1e39", "--samples", "8", "--steps", "4"])
    _assert_one_error_line(rc, capsys, "gamma must be finite in float32")
    assert not (tmp_path / "o").exists()


def test_bridge_condition_reaches_a_float64_model_exactly(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "cond_ring"},
        "model": {"hidden": 8, "depth": 1, "dtype": "float64"},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.full((3, 2), 0.5, dtype=np.float32))
    seen = []
    forward = VectorFieldModel.forward

    def recording_forward(self, x, tau, condition=None, **kwargs):
        if condition is not None:
            seen.append(condition)
        return forward(self, x, tau, condition, **kwargs)

    monkeypatch.setattr(VectorFieldModel, "forward", recording_forward)
    rc = main(["bridge", "--checkpoint", str(tmp_path / "run" / "model.fbc"),
               "--input", str(sig_path), "--out", str(tmp_path / "b"), "--steps", "2",
               "--condition", "0.1"])
    assert rc == 0
    assert seen and all(c.dtype == np.float64 and np.all(c == 0.1) for c in seen)


def test_bridge_refuses_a_checkpoint_with_a_corrupt_size(planar_run, tmp_path, capsys):
    raw = (planar_run / "model.fbc").read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 12)
    header = json.loads(raw[16 : 16 + header_len])
    header["config"]["signal_length"] = 10**15
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    ckpt = tmp_path / "huge.fbc"
    ckpt.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :])
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    rc = main(["bridge", "--checkpoint", str(ckpt), "--input", str(sig_path),
               "--out", str(tmp_path / "b")])
    _assert_one_error_line(rc, capsys, f"{ckpt}: parameter manifest does not match")


def test_bridge_summary_of_float32_extremes(planar_run, tmp_path, capsys):
    # The norms of 1e30-sized rows overflow float32; the summary stays finite.
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.full((4, 2), 1e30, dtype=np.float32))
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"), "--steps", "4",
    ])
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()[0]
    rel = float(summary.rsplit(" ", 1)[1])
    assert np.isfinite(rel), summary


def test_bridge_condition_on_unconditional_model(planar_run, tmp_path, capsys):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32) + 0.5)
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"),
        "--condition", "0.7",
    ])
    _assert_one_error_line(rc, capsys, "condition")


def test_bridge_non_numeric_condition(planar_run, tmp_path, capsys):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"),
        "--condition", "0.5,loud",
    ])
    _assert_one_error_line(rc, capsys, "--condition")


@pytest.mark.parametrize("fault", list(FRAME_FAULTS))
@pytest.mark.parametrize("command", ["bridge_input", "bridge_checkpoint", "eval_checkpoint"])
def test_frame_fault_is_one_error_line(planar_run, tmp_path, capsys, command, fault):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    ckpt = planar_run / "model.fbc"
    good = sig_path if command == "bridge_input" else ckpt
    bad = tmp_path / f"bad{good.suffix}"
    bad.write_bytes(FRAME_FAULTS[fault](good.read_bytes()))
    argv = {
        "bridge_input": ["bridge", "--checkpoint", str(ckpt), "--input", str(bad)],
        "bridge_checkpoint": ["bridge", "--checkpoint", str(bad), "--input", str(sig_path)],
        "eval_checkpoint": ["eval", "--checkpoint", str(bad), "--samples", "8", "--steps", "2"],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([*argv, "--out", str(out)])
    _assert_one_error_line(rc, capsys, f"error: {bad}: ")
    assert not out.exists()


def test_bridge_rejects_gamma_without_condition(planar_run, tmp_path, capsys):
    # Without a condition only the null branch decodes, so a gamma would be ignored.
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    out = tmp_path / "b"
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(out), "--gamma", "2",
    ])
    _assert_one_error_line(rc, capsys, "--gamma needs --condition")
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["nan", "inf", "abc", "1,2"])
def test_bridge_rejects_non_finite_gamma(planar_run, tmp_path, capsys, gamma):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"), "--gamma", gamma,
    ])
    _assert_one_error_line(rc, capsys, "--gamma")


def test_bridge_rejects_nan_input(planar_run, tmp_path, capsys):
    # save_signals refuses a NaN, so the file is framed by hand.
    sig_path = tmp_path / "in.fbs"
    values = np.array([[0.5, np.nan], [0.1, 0.2]], dtype="<f4")
    write_frame(sig_path, MAGIC, VERSION, {"fs": None, "shape": [2, 2]}, values.tobytes())
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"), "--steps", "4",
    ])
    _assert_one_error_line(rc, capsys, "non-finite")


def _float64_checkpoint(tmp_path, out_b):
    """An 8-Gaussian float64 checkpoint whose output bias is out_b."""
    model = VectorFieldModel(ModelConfig(signal_length=2, hidden=8, depth=1, dtype="float64"),
                             np.random.default_rng(0))
    model.params["out_b"].data[...] = out_b
    ckpt = tmp_path / "m" / "model.fbc"
    ckpt.parent.mkdir()
    save_checkpoint(ckpt, model, extra={"task": {"family": "eight_gaussians"}})
    return ckpt


def test_bridge_refuses_a_latent_past_float32_and_writes_neither_file(tmp_path, capsys):
    # The near-constant field is added on encode and removed on decode: the
    # latent is near 1e39, past float32's range, and the output is finite.
    ckpt = _float64_checkpoint(tmp_path, 1e39)
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.random.default_rng(1).standard_normal((8, 2)))
    out = tmp_path / "b"
    rc = main(["bridge", "--checkpoint", str(ckpt), "--input", str(sig_path), "--out", str(out),
               "--steps", "4"])
    _assert_one_error_line(rc, capsys, f"{out / 'latent.fbs'}: signal values must be finite")
    assert not out.exists()


def test_eval_refuses_a_decode_whose_cost_overflows(tmp_path, capsys):
    # Decoded points near 1e200 square past float64's range in the W2 cost matrix.
    ckpt = _float64_checkpoint(tmp_path, 1e200)
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev"),
               "--samples", "16", "--steps", "4", "--gammas", "1"])
    _assert_one_error_line(rc, capsys, "cost matrix has non-finite entries")
    assert not (tmp_path / "ev").exists()


def test_bridge_length_mismatch(planar_run, tmp_path, capsys):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 5), dtype=np.float32))
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"),
    ])
    _assert_one_error_line(rc, capsys, "length")


def test_eval_command(planar_run, tmp_path, capsys):
    out = tmp_path / "ev"
    rc = main([
        "eval", "--checkpoint", str(planar_run / "model.fbc"),
        "--out", str(out), "--gammas", "0,1", "--samples", "32", "--steps", "4",
    ])
    assert rc == 0
    header, rows = read_csv(out / "eval.csv")
    assert header == ["model", "coupling", "chunk_size", "gamma", "metric", "value"]
    assert len(rows) == 2
    assert {r[4] for r in rows} == {"w2"}
    assert all(float(r[5]) >= 0.0 for r in rows)
    assert "w2=" in capsys.readouterr().out


_EVAL_GOLDEN = {
    "moons/model.fbc": "aab3a3bd54bd0498c0d0800de7bb8a97a6d3cfcb6da80dcbe585798eeb2d1c65",
    "ring/model.fbc": "c45486e05f111486a39fc494c0bcba315bb8bccb7be4b94fcb257e8fd2144698",
    "ev/eval.csv": "6d4dd21f6c25db8876564f16d8837417f1ebdcd8a7e0e0de3d513974d684fc53",
    "ev/curvature.csv": "8c7ccb0a5c9d96084fbc59481239cf86b79dd25b3d878d736a2d59db52ddab7f",
    "ev/curvature.svg": "f9fde279d260e3cc2acb2c7beee8f59f74f2a58b4c90109404e128e2e8463d37",
    "stdout": "942ca8a7cd7fcaebe2550d3725be8b72f6a8748a61af5a049fad5acfe09fff43",
}


def test_eval_golden_digests(tmp_path, capsys):
    """eval writes bit for bit the files and summary it has always written for
    one unconditional and one conditional checkpoint: the one decode shared by
    every gamma and one decode per gamma."""
    cfg = {
        "task": {"family": "two_moons"},
        "model": {"hidden": 16, "depth": 2},
        "train": {"iterations": 30, "batch_size": 8, "lr": 1e-3, "log_every": 10, "seed": 3},
    }
    for name, family in (("moons", "two_moons"), ("ring", "cond_ring")):
        cfg["task"]["family"] = family
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    rc = main([
        "eval", "--checkpoint", str(tmp_path / "moons" / "model.fbc"),
        "--checkpoint", str(tmp_path / "ring" / "model.fbc"), "--out", str(tmp_path / "ev"),
        "--gammas", "0,1,1.5", "--samples", "64", "--steps", "8", "--seed", "2",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out.encode()
    digests = {
        key: hashlib.sha256(stdout if key == "stdout" else (tmp_path / key).read_bytes()).hexdigest()
        for key in _EVAL_GOLDEN
    }
    assert digests == _EVAL_GOLDEN


@pytest.mark.parametrize("second", ["same_path", "same_parent_name"])
def test_eval_refuses_checkpoints_sharing_a_label(planar_run, tmp_path, capsys, monkeypatch,
                                                  second):
    # Both would write rows labelled "run": refused before either checkpoint loads.
    first = planar_run / "model.fbc"
    copy = tmp_path / "other" / "run" / "model.fbc"
    copy.parent.mkdir(parents=True)
    copy.write_bytes(first.read_bytes())
    path = {"same_path": first, "same_parent_name": copy}[second]
    loaded = []
    monkeypatch.setattr("flowbridge.cli.load_checkpoint",
                        lambda p: loaded.append(p) or load_checkpoint(p))
    out = tmp_path / "ev"
    rc = main(["eval", "--checkpoint", str(first), "--checkpoint", str(path), "--out", str(out),
               "--gammas", "1", "--samples", "8", "--steps", "2"])
    _assert_one_error_line(rc, capsys, f"checkpoints {first} and {path} share the label 'run'")
    assert loaded == [] and not out.exists()


def test_eval_reference_uses_trained_seed_noise(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons", "seed_noise": 0.2},
        "model": {"hidden": 8, "depth": 1},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    rc = main([
        "eval", "--checkpoint", str(run / "model.fbc"), "--out", str(tmp_path / "ev"),
        "--gammas", "1", "--samples", "32", "--steps", "4",
    ])
    assert rc == 0
    _, rows = read_csv(tmp_path / "ev" / "eval.csv")
    model, _ = load_checkpoint(run / "model.fbc")
    rng = np.random.default_rng(0)
    z = rng.standard_normal((32, 2)).astype(np.float32)
    ref = gen_two_moons(32, rng, noise=0.2)
    final = integrate(model, z, SCHEDULES["raised_cosine"](4), direction="backward").final
    assert float(rows[0][5]) == empirical_w2(final.astype(np.float64), ref.astype(np.float64))


def test_eval_scores_signal_tasks_by_w2(tmp_path):
    # A clip model is scored like a planar one: W2 of noise decoded under the
    # reference batch's conditions. Two iterations of training cannot take
    # the decode measurably closer to the data than the noise itself.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "toy_signal", "n": 16, "degradation": "clip"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    run = tmp_path / "clip"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    rc = main([
        "eval", "--checkpoint", str(run / "model.fbc"), "--out", str(tmp_path / "ev"),
        "--gammas", "1", "--samples", "32", "--steps", "4",
    ])
    assert rc == 0
    _, rows = read_csv(tmp_path / "ev" / "eval.csv")
    assert [r[4] for r in rows] == ["w2"]
    model, extra = load_checkpoint(run / "model.fbc")
    rng = np.random.default_rng(0)
    z = rng.standard_normal((32, 16))
    batch = next(make_training_stream(TaskSpec(**extra["task"]), 32, rng))
    final = integrate(
        model, z, SCHEDULES["raised_cosine"](4), direction="backward",
        condition=batch.condition, gamma=1.0,
    ).final
    w2 = float(rows[0][5])
    assert w2 == empirical_w2(final, batch.values)
    assert w2 >= 0.99 * empirical_w2(z, batch.values)


@pytest.mark.parametrize(
    "extra",
    [
        {"task": {"n": 2}},
        {"task": "two_moons"},
        {"task": {"family": "two_moons"}, "train": 5},
        {"task": {"family": "cond_ring"}},
        {"task": {"family": "toy_signal", "n": 16, "degradation": "clip"}},
    ],
    ids=["no_family", "task_not_object", "train_not_object", "cond_dim_mismatch",
         "signal_length_mismatch"],
)
def test_eval_rejects_malformed_task_metadata(planar_run, tmp_path, capsys, extra):
    model, _ = load_checkpoint(planar_run / "model.fbc")
    ckpt = tmp_path / "m" / "model.fbc"
    ckpt.parent.mkdir()
    save_checkpoint(ckpt, model, extra=extra)
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev"), "--gammas", "1"])
    _assert_one_error_line(rc, capsys, str(ckpt))
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("n", [10**15, 10**17])
def test_eval_refuses_an_impossible_signal_length(tmp_path, capsys, n):
    # No conv parameter depends on the signal length, so such a checkpoint loads.
    cfg = ModelConfig(signal_length=n, backbone="conv", hidden=4, depth=1, kernel_size=3)
    ckpt = tmp_path / "m" / "model.fbc"
    ckpt.parent.mkdir()
    task = {"family": "toy_signal", "n": n, "degradation": "clip"}
    save_checkpoint(ckpt, VectorFieldModel(cfg, np.random.default_rng(0)), extra={"task": task})
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev"),
               "--gammas", "1", "--samples", "8"])
    _assert_one_error_line(rc, capsys, "toy_signal length must be in")
    assert not (tmp_path / "ev").exists()


def test_eval_reports_memory_exhaustion(planar_run, tmp_path, capsys):
    # 10**17 planar samples are 1.4 EiB of float64: within numpy's array-size
    # limit, past any address space.
    rc = main(["eval", "--checkpoint", str(planar_run / "model.fbc"), "--out", str(tmp_path / "ev"),
               "--gammas", "1", "--samples", str(10**17)])
    _assert_one_error_line(rc, capsys, "Unable to allocate")
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["eval", "--samples", str(10**18)], f"{10**18} rows of 2 values pass the 2**60"),
        (["eval", "--samples", str(10**19)], f"{10**19} rows of 2 values pass the 2**60"),
        (["eval", "--steps", str(10**19)], "n_steps must be >= 1 and < 2**60"),
        (["bridge", "--steps", str(10**19)], "n_steps must be >= 1 and < 2**60"),
    ],
    ids=["eval_samples_1e18", "eval_samples_1e19", "eval_steps_1e19", "bridge_steps_1e19"],
)
def test_counts_past_numpys_array_limit_are_refused(planar_run, tmp_path, capsys, argv, needle):
    # Past 2**60 values an array passes numpy's 2**63-byte limit, where numpy
    # raises ValueError, not MemoryError: these counts are refused where they enter.
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    inputs = {"eval": ["--gammas", "1"], "bridge": ["--input", str(sig_path)]}[argv[0]]
    out = tmp_path / "o"
    rc = main([argv[0], "--checkpoint", str(planar_run / "model.fbc"), "--out", str(out),
               *inputs, *argv[1:]])
    _assert_one_error_line(rc, capsys, needle)
    assert not out.exists()


def test_train_refuses_a_batch_past_numpys_array_limit(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "two_moons"},
        "model": {"hidden": 8, "depth": 2},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out),
               "--set", f"train.batch_size={10**19}"])
    _assert_one_error_line(rc, capsys, f"{10**19} rows of 2 values pass the 2**60-value limit")
    assert not out.exists()


@pytest.mark.parametrize("n", [10**15, 10**20])
def test_train_refuses_an_impossible_signal_length(tmp_path, capsys, n):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "toy_signal", "n": 64, "degradation": "clip"},
        "model": {"backbone": "conv", "hidden": 4, "depth": 1, "kernel_size": 3},
        "train": {"iterations": 2, "batch_size": 2},
    }))
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r"),
               "--set", f"task.n={n}"])
    _assert_one_error_line(rc, capsys, "toy_signal length must be in")
    assert not (tmp_path / "r").exists()


def test_train_refuses_a_reverb_kernel_past_the_signal_bound(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "toy_signal", "n": 16, "degradation": "reverb", "fs": 1e20},
        "model": {"backbone": "conv", "hidden": 4, "depth": 1, "kernel_size": 3},
        "train": {"iterations": 2, "batch_size": 2},
    }))
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
    _assert_one_error_line(rc, capsys, "reverb kernel")
    assert not out.exists()


def test_eval_refuses_a_reverb_kernel_past_the_signal_bound(tmp_path, capsys):
    cfg = ModelConfig(signal_length=16, cond_dim=2, backbone="conv", hidden=4, depth=1,
                      kernel_size=3)
    ckpt = tmp_path / "m" / "model.fbc"
    ckpt.parent.mkdir()
    task = {"family": "toy_signal", "n": 16, "degradation": "reverb", "fs": 1e20}
    save_checkpoint(ckpt, VectorFieldModel(cfg, np.random.default_rng(0)), extra={"task": task})
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev"),
               "--gammas", "1", "--samples", "8"])
    _assert_one_error_line(rc, capsys, f"{ckpt}: invalid task metadata")
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("gammas", ["a", "0,", "1,nan"])
def test_eval_rejects_non_numeric_gammas(planar_run, tmp_path, capsys, gammas):
    rc = main([
        "eval", "--checkpoint", str(planar_run / "model.fbc"),
        "--out", str(tmp_path / "ev"), "--gammas", gammas,
    ])
    _assert_one_error_line(rc, capsys, "--gammas")
    assert not (tmp_path / "ev").exists()


def test_eval_decodes_once_per_gamma_only_under_a_condition(planar_run, tmp_path, monkeypatch):
    # integrate ignores gamma without a condition: a two_moons checkpoint is
    # decoded once for the whole sweep, a cond_ring one once per gamma.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": {"family": "cond_ring"},
        "model": {"hidden": 8, "depth": 1},
        "train": {"iterations": 2, "batch_size": 4},
    }))
    ring = tmp_path / "ring"
    assert main(["train", "--config", str(cfg_path), "--out", str(ring)]) == 0
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["gamma"])
        return integrate(*args, **kwargs)

    monkeypatch.setattr("flowbridge.analysis.integrate", counted)
    # The gammas integrate was called with, per checkpoint.
    runs = ((planar_run / "model.fbc", [0.0]), (ring / "model.fbc", [0.0, 0.5, 1.5]))
    for ckpt, expected in runs:
        calls.clear()
        out = tmp_path / f"ev_{ckpt.parent.name}"
        rc = main([
            "eval", "--checkpoint", str(ckpt), "--out", str(out),
            "--gammas", "0,0.5,1.5", "--samples", "8", "--steps", "3",
        ])
        assert rc == 0 and calls == expected
        _, rows = read_csv(out / "eval.csv")
        assert [float(r[3]) for r in rows] == [0.0, 0.5, 1.5]


def test_v1_checkpoint_is_refused_by_version(planar_run, tmp_path, capsys):
    # The v1 layout: an optimizer header entry, and the Adam first and second
    # moments appended after the parameters.
    raw = (planar_run / "model.fbc").read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 12)
    header = json.loads(raw[16 : 16 + header_len])
    header["optimizer"] = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "lr": 1e-3, "step": 30}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    params = raw[16 + header_len :]
    ckpt = tmp_path / "old" / "model.fbc"
    ckpt.parent.mkdir()
    ckpt.write_bytes(
        raw[:8] + struct.pack("<II", 1, len(blob)) + blob + params + bytes(2 * len(params))
    )
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    for argv in (
        ["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev")],
        ["bridge", "--checkpoint", str(ckpt), "--input", str(sig_path),
         "--out", str(tmp_path / "b")],
    ):
        _assert_one_error_line(main(argv), capsys, "unsupported format version 1")


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["eval", "--samples", "0"], "samples must be >= 1"),
        (["eval", "--samples", "-1"], "samples must be >= 1"),
        (["eval", "--seed", "-1"], "seed must be >= 0"),
        (["eval", "--steps", "0"], "n_steps must be >= 1"),
    ],
    ids=["eval_samples_0", "eval_samples_neg", "eval_seed_neg", "eval_steps_0"],
)
def test_rejects_bad_count_or_seed(planar_run, tmp_path, capsys, argv, needle):
    out = tmp_path / "o"
    rc = main([*argv, "--checkpoint", str(planar_run / "model.fbc"), "--out", str(out)])
    _assert_one_error_line(rc, capsys, needle)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["eval", "--checkpoint", "c.fbc", "--out", "{out}", "--steps", "abc"],
         "argument --steps: invalid int value: 'abc'"),
        (["eval", "--checkpoint", "c.fbc", "--out", "{out}", "--samples", "1.5"],
         "argument --samples: invalid int value: '1.5'"),
        (["eval", "--checkpoint", "c.fbc", "--out", "{out}", "--seed", "x"],
         "argument --seed: invalid int value: 'x'"),
        (["bridge", "--checkpoint", "c.fbc", "--input", "i.fbs", "--out", "{out}",
          "--schedule", "foo"], "argument --schedule: invalid choice: 'foo'"),
        (["bridge", "--checkpoint", "c.fbc", "--input", "i.fbs", "--out", "{out}",
          "--method", "rk4"], "argument --method: invalid choice: 'rk4'"),
        (["train", "--config", "c.json"], "the following arguments are required: --out"),
        (["eval", "--checkpoint", "c.fbc", "--out", "{out}", "--bogus"],
         "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
    ids=["steps_abc", "samples_float", "seed_x", "schedule_foo", "method_rk4", "missing_out",
         "unknown_flag", "no_subcommand"],
)
def test_usage_error_is_one_error_line(tmp_path, capsys, argv, needle):
    out = tmp_path / "o"
    rc = main([str(out) if a == "{out}" else a for a in argv])
    _assert_one_error_line(rc, capsys, needle)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: flowbridge")


def test_plot_command(planar_run, tmp_path):
    out = tmp_path / "loss.svg"
    rc = main([
        "plot", "--input", str(planar_run / "loss.csv"),
        "--out", str(out), "--x", "iteration", "--y", "loss",
    ])
    assert rc == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")


def test_plot_grouped(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(
        "model,tau,mean\na,0.0,1.0\na,0.5,2.0\na,1.0,1.5\nb,0.0,2.0\nb,0.5,1.0\nb,1.0,0.5\n"
    )
    out = tmp_path / "t.svg"
    rc = main([
        "plot", "--input", str(csv_path), "--out", str(out),
        "--x", "tau", "--y", "mean", "--group", "model",
    ])
    assert rc == 0
    text = out.read_text()
    assert text.count("<polyline") >= 2


def test_plot_reads_a_csv_with_a_byte_order_mark(tmp_path):
    # Spreadsheets save "CSV UTF-8" with a leading BOM.
    csv_path = tmp_path / "t.csv"
    csv_path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
    out = tmp_path / "t.svg"
    assert main(["plot", "--input", str(csv_path), "--out", str(out), "--x", "a", "--y", "b"]) == 0
    assert out.exists()


def test_plot_unknown_column(planar_run, tmp_path, capsys):
    rc = main([
        "plot", "--input", str(planar_run / "loss.csv"),
        "--out", str(tmp_path / "x.svg"), "--x", "iteration", "--y", "nope",
    ])
    _assert_one_error_line(rc, capsys, "nope")


def test_plot_unknown_group_column(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("model,tau,mean\na,0.0,1.0\nb,0.0,2.0\n")
    out = tmp_path / "t.svg"
    rc = main([
        "plot", "--input", str(csv_path), "--out", str(out),
        "--x", "tau", "--y", "mean", "--group", "modle",
    ])
    _assert_one_error_line(rc, capsys, "column 'modle' not in")
    assert not out.exists()


def test_plot_non_numeric_column(tmp_path, capsys):
    csv_path = tmp_path / "curvature.csv"
    csv_path.write_text("model,tau,mean\nmoons,0.0,1.0\nmoons,0.5,2.0\n")
    out = tmp_path / "c.svg"
    rc = main([
        "plot", "--input", str(csv_path), "--out", str(out), "--x", "model", "--y", "mean",
    ])
    _assert_one_error_line(rc, capsys, "column 'model' holds a non-numeric cell 'moons'")
    assert not out.exists()


def test_plot_refuses_a_span_past_float64(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("tau,mean\n0.0,-1e308\n1.0,1e308\n")
    out = tmp_path / "t.svg"
    rc = main(["plot", "--input", str(csv_path), "--out", str(out), "--x", "tau", "--y", "mean"])
    _assert_one_error_line(rc, capsys, "cannot draw an axis")
    assert not out.exists()


def test_train_non_utf8_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(b"\xff\xfe{}")
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    _assert_one_error_line(rc, capsys, f"cannot read config {cfg_path}")


def test_plot_non_utf8_csv(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(b"\xff\xfetau,mean\n0.0,1.0\n")
    out = tmp_path / "bad.svg"
    rc = main(["plot", "--input", str(csv_path), "--out", str(out), "--x", "tau", "--y", "mean"])
    _assert_one_error_line(rc, capsys, f"line 1: {csv_path} is not UTF-8 text")
    assert not out.exists()


def test_module_entry_point_exists():
    import flowbridge.__main__  # noqa: F401
