"""Command-line interface: train, curvature, bridge, eval, plot."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import curvature_profile, empirical_w2, sdr
from .config import apply_overrides, build_config, check_int_fields, dump_config, load_config
from .exceptions import CheckpointError, ConfigError, FlowbridgeError, ValidationError
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.model import ModelConfig
from .sampler import SCHEDULES, gfb_transfer, integrate
from .signalio import load_signals, read_csv, save_signals, write_csv
from .svgplot import SvgFigure
from .tasks import TaskSpec, make_training_stream
from .training import TrainConfig, train

__all__ = ["main"]


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    cfg = apply_overrides(cfg, args.set or [])
    if args.seed is not None:
        cfg = apply_overrides(cfg, [f"seed={args.seed}", f"train.seed={args.seed}"])

    task = build_config(TaskSpec, cfg.get("task", {}), "task")
    model_cfg = build_config(
        ModelConfig, cfg.get("model", {}), "model", signal_length=task.n, cond_dim=task.cond_dim
    )
    train_raw = cfg.get("train", {})
    if isinstance(train_raw, dict):
        train_raw = {"seed": cfg.get("seed", 0), **train_raw}
    train_cfg = build_config(TrainConfig, train_raw, "train")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(model_cfg, task, train_cfg)
    extra = {"task": asdict(task), "train": asdict(train_cfg)}
    ckpt = out / "model.fbc"
    save_checkpoint(ckpt, result.model, optimizer=result.optimizer, extra=extra)
    write_csv(out / "loss.csv", ["iteration", "loss"], result.history)
    dump_config(cfg, out / "config.json")
    print(
        f"trained {train_cfg.iterations} iterations on {task.family} "
        f"({train_cfg.coupling}); final loss {result.final_loss:.6g}"
    )
    print(f"checkpoint: {ckpt}")
    return 0


def _cmd_curvature(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    fig = SvgFigure(title="trajectory curvature", xlabel="flow time", ylabel="curvature")
    schedule = SCHEDULES[args.schedule](args.steps)
    for ckpt_path in args.checkpoint:
        model, _, extra = load_checkpoint(ckpt_path)
        label = Path(ckpt_path).stem if len(args.checkpoint) == 1 else Path(ckpt_path).parent.name
        rng = np.random.default_rng(args.seed)
        z = rng.standard_normal((args.samples, model.config.signal_length)).astype(
            model.config.np_dtype
        )
        traj = integrate(model, z, schedule, direction="backward", method=args.method)
        prof = curvature_profile([traj])
        for tau, mean, p25, p75 in zip(prof.taus, prof.mean, prof.p25, prof.p75):
            rows.append((label, tau, mean, p25, p75))
        fig.band(prof.taus, prof.p25, prof.p75)
        fig.line(prof.taus, prof.mean, label=label)
        print(f"{label}: time-averaged mean curvature {prof.time_average:.6g}")
    write_csv(out / "curvature.csv", ["model", "tau", "mean", "p25", "p75"], rows)
    fig.save(out / "curvature.svg")
    return 0


def _parse_floats(flag: str, text: str) -> list[float]:
    """Comma-separated finite numbers from a flag value, else ConfigError."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(np.isfinite(values)):
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}")
    return values


def _parse_float(flag: str, text: str) -> float:
    """One finite number from a flag value, else ConfigError."""
    values = _parse_floats(flag, text)
    if len(values) != 1:
        raise ConfigError(f"{flag} expects one number, got {text!r}")
    return values[0]


def _parse_condition(text: str | None, batch: int, cond_dim: int):
    if text is None:
        return None
    values = np.array(_parse_floats("--condition", text), dtype=np.float32)
    if values.shape[0] != cond_dim:
        raise ConfigError(f"condition has {values.shape[0]} values, model expects {cond_dim}")
    return np.tile(values[None, :], (batch, 1))


def _cmd_bridge(args) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    values, fs = load_signals(args.input)
    if values.shape[1] != model.config.signal_length:
        raise ValidationError(
            f"input length {values.shape[1]} != model signal length "
            f"{model.config.signal_length}"
        )
    condition = _parse_condition(args.condition, values.shape[0], model.config.cond_dim)
    gamma = _parse_float("--gamma", args.gamma)
    schedule = SCHEDULES[args.schedule](args.steps)
    result = gfb_transfer(
        model, values.astype(model.config.np_dtype), schedule, condition,
        gamma=gamma, method=args.method,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_signals(out / "output.fbs", result.output.astype(np.float32), fs=fs)
    save_signals(out / "latent.fbs", result.latent.astype(np.float32), fs=fs)
    disp = np.linalg.norm(result.output - values, axis=1)
    rel = disp / np.maximum(np.linalg.norm(values, axis=1), 1e-12)
    print(
        f"bridged {values.shape[0]} signals (gamma={gamma:g}, steps={args.steps}); "
        f"median relative displacement {float(np.median(rel)):.4g}"
    )
    print(f"output: {out / 'output.fbs'}")
    return 0


def _eval(model, task, gamma, schedule, method, samples, rng) -> tuple[str, float]:
    """Score one guidance weight against a reference batch from the task's own stream.

    Planar tasks decode Gaussian noise, drawn before the batch, and report the
    W2 distance to it; signal tasks bridge the batch under its own conditions
    and report the mean round-trip SDR.
    """
    dt = model.config.np_dtype
    if task.family == "toy_signal":
        batch = next(make_training_stream(task, samples, rng))
        result = gfb_transfer(
            model, batch.values.astype(dt), schedule, batch.condition, gamma=gamma, method=method
        )
        scores = [sdr(x, y) for x, y in zip(batch.values, result.output)]
        return "round_trip_sdr", float(np.mean(scores))
    z = rng.standard_normal((samples, model.config.signal_length)).astype(dt)
    batch = next(make_training_stream(task, samples, rng))
    traj = integrate(
        model, z, schedule, direction="backward", method=method,
        condition=batch.condition, gamma=gamma,
    )
    return "w2", empirical_w2(traj.final.astype(np.float64), batch.values.astype(np.float64))


def _cmd_eval(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gammas = _parse_floats("--gammas", args.gammas)
    schedule = SCHEDULES[args.schedule](args.steps)
    rows = []
    for ckpt_path in args.checkpoint:
        model, _, extra = load_checkpoint(ckpt_path)
        task_raw, train_raw = extra.get("task"), extra.get("train", {})
        if not isinstance(train_raw, dict):
            raise CheckpointError(f"{ckpt_path}: checkpoint train metadata must be an object")
        try:
            task = build_config(TaskSpec, task_raw, "task")
        except ConfigError as exc:
            raise CheckpointError(f"{ckpt_path}: invalid task metadata ({exc})") from exc
        chunk = train_raw.get("chunk_size")
        coupling = train_raw.get("coupling", "")
        label = Path(ckpt_path).parent.name
        for gamma in gammas:
            rng = np.random.default_rng(args.seed)
            metric, value = _eval(model, task, gamma, schedule, args.method, args.samples, rng)
            rows.append((label, coupling, "" if chunk is None else chunk, gamma, metric, value))
            print(f"{label} gamma={gamma:g}: {metric}={value:.6g}")
    write_csv(
        out / "eval.csv",
        ["model", "coupling", "chunk_size", "gamma", "metric", "value"],
        rows,
    )
    return 0


def _cell(col: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"column {col!r} holds a non-numeric cell {text!r}") from None


def _cmd_plot(args) -> int:
    header, rows = read_csv(args.input)
    for col in [args.x, *args.y]:
        if col not in header:
            raise ConfigError(f"column {col!r} not in {header}")
    xi = header.index(args.x)
    fig = SvgFigure(title=Path(args.input).stem, xlabel=args.x, ylabel=",".join(args.y))
    if args.group and args.group in header:
        gi = header.index(args.group)
        groups = sorted({r[gi] for r in rows})
    else:
        gi, groups = None, [None]
    for group in groups:
        sel = rows if gi is None else [r for r in rows if r[gi] == group]
        xs = [_cell(args.x, r[xi]) for r in sel]
        for col in args.y:
            yi = header.index(col)
            ys = [_cell(col, r[yi]) for r in sel]
            label = col if group is None else f"{group}:{col}" if len(args.y) > 1 else group
            fig.line(xs, ys, label=label)
    fig.save(args.out)
    print(f"wrote {args.out}")
    return 0


def _add_sampling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--method", default="euler", choices=["euler", "midpoint"])
    p.add_argument("--schedule", default="raised_cosine", choices=list(SCHEDULES))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowbridge",
        description="Flow-matching bridges with chunked minibatch OT couplings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("curvature", help="measure sampling-trajectory curvature")
    p.add_argument("--checkpoint", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=64)
    _add_sampling_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("bridge", help="encode signals and decode them under a condition")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gamma", default="1.0")
    _add_sampling_args(p)
    p.add_argument("--condition", default=None, help="comma-separated descriptor values")
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser("eval", help="score checkpoints over a guidance sweep")
    p.add_argument("--checkpoint", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gammas", default="0,0.5,1,1.5,2")
    p.add_argument("--samples", type=int, default=512)
    _add_sampling_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("plot", help="render a CSV table to an SVG chart")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", action="append", required=True)
    p.add_argument("--group", default=None)
    p.set_defaults(fn=_cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, low in (("samples", 1), ("seed", 0)):
            if getattr(args, flag, None) is not None:
                check_int_fields(args, flag, low=low)
        return args.fn(args)
    except (FlowbridgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
