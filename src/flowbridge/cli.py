"""Command-line interface: train, bridge, eval, plot."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import score_decodes
from .config import apply_overrides, build_config, check_int_fields, dump_config, load_config
from .exceptions import CheckpointError, ConfigError, FlowbridgeError
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.model import ModelConfig
from .sampler import SCHEDULES, gfb_transfer
from .signalio import float32_samples, load_signals, read_csv, save_signals, write_csv
from .svgplot import SvgFigure
from .tasks import TaskSpec, make_training_stream
from .training import TrainConfig, check_model_fits_task, train

__all__ = ["main"]


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    cfg = apply_overrides(cfg, args.set or [])
    if args.seed is not None:
        cfg = apply_overrides(cfg, [f"train.seed={args.seed}"])
    unknown = sorted(set(cfg) - {"task", "model", "train"})
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ConfigError(f"unknown config key {names}; expected task, model, train")

    task = build_config(TaskSpec, cfg.get("task", {}), "task")
    model_cfg = build_config(
        ModelConfig, cfg.get("model", {}), "model", signal_length=task.n, cond_dim=task.cond_dim
    )
    train_cfg = build_config(TrainConfig, cfg.get("train", {}), "train")

    result = train(model_cfg, task, train_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    extra = {"task": asdict(task), "train": asdict(train_cfg)}
    ckpt = out / "model.fbc"
    save_checkpoint(ckpt, result.model, extra=extra)
    write_csv(out / "loss.csv", ["iteration", "loss"], result.history)
    dump_config(cfg, out / "config.json")
    print(
        f"trained {train_cfg.iterations} iterations on {task.family} "
        f"({train_cfg.coupling}); final loss {result.final_loss:.6g}"
    )
    print(f"checkpoint: {ckpt}")
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


def _cmd_bridge(args) -> int:
    gamma, *rest = [1.0] if args.gamma is None else _parse_floats("--gamma", args.gamma)
    if rest:
        raise ConfigError(f"--gamma expects one number, got {args.gamma!r}")
    if args.gamma is not None and args.condition is None:
        raise ConfigError("--gamma needs --condition: without one only the null branch decodes")
    model, _ = load_checkpoint(args.checkpoint)
    values, fs = load_signals(args.input)
    condition = None
    if args.condition is not None:
        # Float64 values: the sampler casts them to the model dtype and checks them.
        condition = np.tile(_parse_floats("--condition", args.condition), (values.shape[0], 1))
    schedule = SCHEDULES[args.schedule](args.steps)
    result = gfb_transfer(model, values, schedule, condition, gamma=gamma, method=args.method)
    out = Path(args.out)
    # Both are checked before either file is written.
    output = float32_samples(out / "output.fbs", result.output)
    latent = float32_samples(out / "latent.fbs", result.latent)
    out.mkdir(parents=True, exist_ok=True)
    save_signals(out / "output.fbs", output, fs=fs)
    save_signals(out / "latent.fbs", latent, fs=fs)
    # float64: the norms of float32 signals near its range overflow in float32.
    x_in, x_out = values.astype(np.float64), result.output.astype(np.float64)
    disp = np.linalg.norm(x_out - x_in, axis=1)
    rel = disp / np.maximum(np.linalg.norm(x_in, axis=1), 1e-12)
    guidance = "" if condition is None else f"gamma={gamma:g}, "
    print(
        f"bridged {values.shape[0]} signals ({guidance}steps={args.steps}); "
        f"median relative displacement {float(np.median(rel)):.4g}"
    )
    print(f"output: {out / 'output.fbs'}")
    return 0


def _cmd_eval(args) -> int:
    """Decode seeded noise per checkpoint and gamma; score it by W2 and curvature."""
    gammas = _parse_floats("--gammas", args.gammas)
    labels = [Path(p).parent.name for p in args.checkpoint]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            first, path = args.checkpoint[labels.index(label)], args.checkpoint[i]
            raise ConfigError(f"checkpoints {first} and {path} share the label {label!r}")
    schedule = SCHEDULES[args.schedule](args.steps)
    rows, curv_rows = [], []
    fig = SvgFigure(title="trajectory curvature", xlabel="flow time", ylabel="curvature")
    for label, ckpt_path in zip(labels, args.checkpoint):
        model, extra = load_checkpoint(ckpt_path)
        task_raw, train_raw = extra.get("task"), extra.get("train", {})
        if not isinstance(train_raw, dict):
            raise CheckpointError(f"{ckpt_path}: checkpoint train metadata must be an object")
        try:
            task = build_config(TaskSpec, task_raw, "task")
            check_model_fits_task(model.config, task)
        except ConfigError as exc:
            raise CheckpointError(f"{ckpt_path}: invalid task metadata ({exc})") from exc
        chunk = train_raw.get("chunk_size")
        coupling = train_raw.get("coupling", "")
        # The noise comes first, then the reference batch whose conditions decode
        # it; the stream checks the batch size before either is drawn.
        rng = np.random.default_rng(args.seed)
        stream = make_training_stream(task, args.samples, rng)
        z = rng.standard_normal((args.samples, model.config.signal_length))
        for gamma, w2, prof in score_decodes(model, z, next(stream), gammas, schedule, args.method):
            rows.append((label, coupling, "" if chunk is None else chunk, gamma, "w2", w2))
            for tau, mean, p25, p75 in zip(prof.taus, prof.mean, prof.p25, prof.p75):
                curv_rows.append((label, gamma, tau, mean, p25, p75))
            fig.band(prof.taus, prof.p25, prof.p75)
            fig.line(prof.taus, prof.mean, label=f"{label} gamma={gamma:g}")
            print(f"{label} gamma={gamma:g}: w2={w2:.6g} curvature={prof.time_average:.6g}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["model", "coupling", "chunk_size", "gamma", "metric", "value"]
    write_csv(out / "eval.csv", header, rows)
    write_csv(out / "curvature.csv", ["model", "gamma", "tau", "mean", "p25", "p75"], curv_rows)
    fig.save(out / "curvature.svg")
    return 0


def _cell(col: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"column {col!r} holds a non-numeric cell {text!r}") from None


def _cmd_plot(args) -> int:
    header, rows = read_csv(args.input)
    group = [args.group] if args.group else []
    for col in [args.x, *args.y, *group]:
        if col not in header:
            raise ConfigError(f"column {col!r} not in {header}")
    xi = header.index(args.x)
    fig = SvgFigure(title=Path(args.input).stem, xlabel=args.x, ylabel=",".join(args.y))
    if group:
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it is one `error:` line and exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("bridge", help="encode signals and decode them under a condition")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gamma", default=None, help="guidance weight with --condition (default 1)")
    _add_sampling_args(p)
    p.add_argument("--condition", default=None, help="comma-separated descriptor values")
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser("eval", help="score decoded noise by W2 and curvature over a guidance sweep")
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
    try:
        args = _build_parser().parse_args(argv)
        for flag, low in (("samples", 1), ("seed", 0)):
            if getattr(args, flag, None) is not None:
                check_int_fields(args, flag, low=low)
        return args.fn(args)
    except (FlowbridgeError, OSError, MemoryError) as exc:
        # A MemoryError raised by Python itself carries no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
