"""End-to-end CLI tests (in-process, tiny workloads)."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from flowbridge.analysis import empirical_w2
from flowbridge.cli import main
from flowbridge.nn import load_checkpoint, save_checkpoint
from flowbridge.sampler import SCHEDULES, integrate
from flowbridge.signalio import load_signals, read_csv, save_signals
from flowbridge.tasks import gen_two_moons


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
        "seed": 3,
        "task": {"family": "two_moons"},
        "model": {"hidden": 16, "depth": 2, "time_features": 4},
        "train": {"iterations": 30, "batch_size": 8, "lr": 1e-3, "log_every": 10},
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
    assert echoed["seed"] == 9
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
    assert echoed["seed"] == 9 and echoed["train"]["seed"] == 9
    model, _, extra = load_checkpoint(flagged / "model.fbc")
    assert extra["train"]["seed"] == 9
    reference, _, _ = load_checkpoint(configured / "model.fbc")
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
        "seed=1.5",
        'seed="abc"',
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
        "model.max_time_freq=Infinity",
        "train.lr=true",
        "train.cond_dropout=true",
        "train.sinkhorn_epsilon=true",
        "model.max_time_freq=true",
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


def test_train_missing_config_file(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")])
    _assert_one_error_line(rc, capsys, "cannot read config")


def test_curvature_command(planar_run, tmp_path, capsys):
    out = tmp_path / "curv"
    rc = main([
        "curvature", "--checkpoint", str(planar_run / "model.fbc"),
        "--out", str(out), "--samples", "6", "--steps", "5",
    ])
    assert rc == 0
    header, rows = read_csv(out / "curvature.csv")
    assert header == ["model", "tau", "mean", "p25", "p75"]
    assert len(rows) == 5
    ET.fromstring((out / "curvature.svg").read_text())
    assert "time-averaged mean curvature" in capsys.readouterr().out


def test_bridge_command(planar_run, tmp_path):
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


def test_bridge_corrupt_sidecar(planar_run, tmp_path, capsys):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    (tmp_path / "in.fbs.json").write_text("{not json")
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"),
    ])
    _assert_one_error_line(rc, capsys, "corrupt sidecar")


@pytest.mark.parametrize("gamma", ["nan", "inf", "abc"])
def test_bridge_rejects_non_finite_gamma(planar_run, tmp_path, capsys, gamma):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.zeros((2, 2), dtype=np.float32))
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"), "--gamma", gamma,
    ])
    _assert_one_error_line(rc, capsys, "--gamma")


def test_bridge_rejects_nan_input(planar_run, tmp_path, capsys):
    sig_path = tmp_path / "in.fbs"
    save_signals(sig_path, np.array([[0.5, np.nan], [0.1, 0.2]], dtype=np.float32))
    rc = main([
        "bridge", "--checkpoint", str(planar_run / "model.fbc"),
        "--input", str(sig_path), "--out", str(tmp_path / "b"), "--steps", "4",
    ])
    _assert_one_error_line(rc, capsys, "non-finite")


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
    model, _, _ = load_checkpoint(run / "model.fbc")
    rng = np.random.default_rng(0)
    z = rng.standard_normal((32, 2)).astype(np.float32)
    ref = gen_two_moons(32, rng, noise=0.2)
    final = integrate(model, z, SCHEDULES["raised_cosine"](4), direction="backward").final
    assert float(rows[0][5]) == empirical_w2(final.astype(np.float64), ref.astype(np.float64))


@pytest.mark.parametrize(
    "extra",
    [
        {"task": {"n": 2}},
        {"task": "two_moons"},
        {"task": {"family": "two_moons"}, "train": 5},
    ],
    ids=["no_family", "task_not_object", "train_not_object"],
)
def test_eval_rejects_malformed_task_metadata(planar_run, tmp_path, capsys, extra):
    model, _, _ = load_checkpoint(planar_run / "model.fbc")
    ckpt = tmp_path / "m" / "model.fbc"
    ckpt.parent.mkdir()
    save_checkpoint(ckpt, model, extra=extra)
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev"), "--gammas", "1"])
    _assert_one_error_line(rc, capsys, str(ckpt))


@pytest.mark.parametrize("gammas", ["a", "0,", "1,nan"])
def test_eval_rejects_non_numeric_gammas(planar_run, tmp_path, capsys, gammas):
    rc = main([
        "eval", "--checkpoint", str(planar_run / "model.fbc"),
        "--out", str(tmp_path / "ev"), "--gammas", gammas,
    ])
    _assert_one_error_line(rc, capsys, "--gammas")


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["curvature", "--samples", "0"], "samples must be >= 1"),
        (["curvature", "--samples", "-1"], "samples must be >= 1"),
        (["curvature", "--seed", "-1"], "seed must be >= 0"),
        (["eval", "--samples", "-1"], "samples must be >= 1"),
        (["eval", "--seed", "-1"], "seed must be >= 0"),
    ],
    ids=["curvature_samples_0", "curvature_samples_neg", "curvature_seed_neg",
         "eval_samples_neg", "eval_seed_neg"],
)
def test_rejects_bad_count_or_seed(planar_run, tmp_path, capsys, argv, needle):
    out = tmp_path / "o"
    rc = main([*argv, "--checkpoint", str(planar_run / "model.fbc"), "--out", str(out)])
    _assert_one_error_line(rc, capsys, needle)
    assert not out.exists()


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


def test_plot_unknown_column(planar_run, tmp_path, capsys):
    rc = main([
        "plot", "--input", str(planar_run / "loss.csv"),
        "--out", str(tmp_path / "x.svg"), "--x", "iteration", "--y", "nope",
    ])
    _assert_one_error_line(rc, capsys, "nope")


def test_plot_non_numeric_column(tmp_path, capsys):
    csv_path = tmp_path / "curvature.csv"
    csv_path.write_text("model,tau,mean\nmoons,0.0,1.0\nmoons,0.5,2.0\n")
    out = tmp_path / "c.svg"
    rc = main([
        "plot", "--input", str(csv_path), "--out", str(out), "--x", "model", "--y", "mean",
    ])
    _assert_one_error_line(rc, capsys, "column 'model' holds a non-numeric cell 'moons'")
    assert not out.exists()


def test_module_entry_point_exists():
    import flowbridge.__main__  # noqa: F401
