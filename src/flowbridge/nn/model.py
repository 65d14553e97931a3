"""Conditional vector-field networks.

Both backbones predict a velocity the same size as the input signal. A shared
context vector — sinusoidal time embedding, embedded condition (or a learned
null vector when the condition is absent), and a presence flag — modulates
every residual block through per-block scale-and-shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import check_int_fields
from ..exceptions import ConfigError, ShapeError, ValidationError
from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["ModelConfig", "VectorFieldModel", "check_condition", "param_layout", "time_embedding"]

_DTYPES = {"float32": np.float32, "float64": np.float64}
# Width of the condition embedding, and the time embedding's frequencies:
# TIME_FEATURES of them, geometrically spaced from 1 to MAX_TIME_FREQ cycles
# over the unit interval.
COND_EMBED = 16
TIME_FEATURES = 8
MAX_TIME_FREQ = 50.0
_FREQUENCIES = np.geomspace(1.0, MAX_TIME_FREQ, TIME_FEATURES)
_FREQUENCIES.flags.writeable = False


@dataclass(frozen=True)
class ModelConfig:
    signal_length: int
    backbone: str = "mlp"
    hidden: int = 64
    depth: int = 3
    cond_dim: int = 0
    kernel_size: int = 5
    dtype: str = "float32"

    def __post_init__(self):
        check_int_fields(self, "signal_length", "hidden", "depth", "kernel_size", low=1)
        check_int_fields(self, "cond_dim", low=0)
        if self.backbone not in ("mlp", "conv"):
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"unknown dtype {self.dtype!r}")
        if self.kernel_size % 2 != 1:
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


def check_condition(config: ModelConfig, rows: int, condition: np.ndarray | None) -> None:
    """Raise unless condition is None or a (rows, cond_dim) array of a conditional model."""
    if condition is None:
        return
    if config.cond_dim == 0:
        raise ValidationError("model was built without conditioning")
    if condition.shape != (rows, config.cond_dim):
        raise ShapeError(f"condition must be ({rows}, {config.cond_dim}), got {condition.shape}")


def time_embedding(tau: np.ndarray, dtype) -> np.ndarray:
    """Sinusoidal features of the flow time: (B,) -> (B, 2 * TIME_FEATURES)."""
    ang = 2.0 * np.pi * tau[:, None] * _FREQUENCIES[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(dtype)


def param_layout(config: ModelConfig):
    """Yield (name, shape, init scale) per parameter in declaration order.

    Declaration order is the init draw order and the serialization order; a
    scale of 0 initializes to zeros. Nothing is allocated, so a checkpoint
    header can be checked against it before any parameter exists.
    """
    h, d, e = config.hidden, config.depth, COND_EMBED
    if config.cond_dim > 0:
        yield "cond_w", (config.cond_dim, e), 1.0 / math.sqrt(config.cond_dim)
        yield "cond_b", (e,), 0.0
    yield "null_cond", (1, e), 0.02
    ctx_in = 2 * TIME_FEATURES + e + 1
    yield "ctx_w", (ctx_in, h), math.sqrt(2.0 / ctx_in)
    yield "ctx_b", (h,), 0.0

    # One layout for both backbones: the MLP is the conv backbone with
    # kernel 1 whose single position holds the whole signal as channels.
    dense = config.backbone == "mlp"
    k = 1 if dense else config.kernel_size
    c = config.signal_length if dense else 1

    def mixer(w_name, b_name, c_in, c_out, width, scale):
        yield w_name, (c_in, c_out) if dense else (c_out, c_in, width), scale
        yield b_name, (c_out,), 0.0

    yield from mixer("in_w", "in_b", c, h, k, 1.0 / math.sqrt(c * k))
    for i in range(d):
        yield f"film{i}_w", (h, 2 * h), 0.0
        yield f"film{i}_b", (2 * h,), 0.0
        yield from mixer(f"block{i}_w1", f"block{i}_b1", h, h, k, math.sqrt(2.0 / (h * k)))
        yield from mixer(f"block{i}_w2", f"block{i}_b2", h, h, k, 1.0 / math.sqrt(h * k))
    yield from mixer("out_w", "out_b", h, c, 1, 0.0)


class VectorFieldModel:
    """Velocity network v(x, tau, condition) with learned null-condition handling.

    Parameters live in a name -> Tensor registry; declaration order is the
    serialization order. Rows whose condition is absent are zeroed before the
    embedding matmul and replaced by the learned null vector, so garbage in
    unused condition rows can never reach the parameters or their gradients.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.params: dict[str, Tensor] = {}
        dt = config.np_dtype
        for name, shape, scale in param_layout(config):
            if scale == 0.0:
                data = np.zeros(shape, dtype=dt)
            else:
                data = (rng.standard_normal(shape) * scale).astype(dt)
            self.params[name] = Tensor(data, requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def _context(self, tau: np.ndarray, condition, present: np.ndarray) -> Tensor:
        """Context rows for tau (R,) and flags present (R,); absent rows embed null_cond."""
        cfg = self.config
        dt = cfg.np_dtype
        rows = tau.shape[0]
        temb = Tensor(time_embedding(tau, dt))
        if present.any():
            # Zero absent rows *before* the matmul so their payload (possibly
            # NaN) never reaches the parameters.
            cond_in = np.where(present[:, None], condition, 0.0).astype(dt)
            real = ad.matmul(Tensor(cond_in), self.params["cond_w"], self.params["cond_b"])
        else:
            real = Tensor(np.zeros((rows, 1), dtype=dt))
        emb = ad.where(present[:, None], real, self.params["null_cond"])
        ctx_in = ad.concat([temb, emb, Tensor(present.astype(dt)[:, None])])
        return ad.silu(ad.matmul(ctx_in, self.params["ctx_w"], self.params["ctx_b"]))

    def forward(
        self,
        x: np.ndarray,
        tau,
        condition: np.ndarray | None = None,
        *,
        drop: np.ndarray | None = None,
    ) -> Tensor:
        """Velocity prediction as a Tensor (call .backward on a seeded loss grad).

        tau is a scalar or (B,) in [0, 1]. Rows marked in drop, a (B,) bool
        array, or every row without a condition, run the learned null branch.
        A scalar tau builds the context on one row when every row shares it; a
        (B,) tau, as in training, always builds it per row.
        """
        cfg = self.config
        dt = cfg.np_dtype
        if x.ndim != 2 or x.shape[1] != cfg.signal_length:
            raise ShapeError(f"x must be (B, signal_length={cfg.signal_length}), got {x.shape}")
        b = x.shape[0]
        tau = np.asarray(tau, dtype=dt)
        if tau.ndim != 0 and tau.shape != (b,):
            raise ShapeError(f"tau must be scalar or ({b},), got {tau.shape}")
        if not np.all((tau >= 0.0) & (tau <= 1.0)):
            raise ValidationError("tau must lie in [0, 1]")
        check_condition(cfg, b, condition)
        present = np.full(b, condition is not None)
        if drop is not None:
            drop = np.asarray(drop)
            if drop.shape != (b,):
                raise ShapeError(f"drop must be ({b},), got {drop.shape}")
            if drop.dtype != bool:
                raise ValidationError(f"drop must be a bool array, got {drop.dtype}")
            present &= ~drop
        # One shared context row, which film broadcasts: no row present, or
        # all present with equal condition rows (a NaN row never is equal).
        # A (B,) tau never pays for the row comparison.
        if tau.ndim == 0 and (
            not present.any() or (present.all() and np.all(condition == condition[:1]))
        ):
            if present.any():
                condition = condition[:1]
            tau, present = tau.reshape(1), np.full(1, present.any())
        else:
            tau = np.broadcast_to(tau, (b,)).copy()
        ctx = self._context(tau, condition, present)
        xt = Tensor(np.asarray(x, dtype=dt))
        p = self.params
        if cfg.backbone == "mlp":
            mix, x_shape = ad.matmul, (b, cfg.signal_length)
        else:
            mix, x_shape = ad.conv1d, (b, 1, cfg.signal_length)
        h = mix(ad.reshape(xt, x_shape), p["in_w"], p["in_b"])
        for i in range(cfg.depth):
            st = ad.matmul(ctx, p[f"film{i}_w"], p[f"film{i}_b"])
            z = ad.silu(mix(ad.film(h, st), p[f"block{i}_w1"], p[f"block{i}_b1"]))
            h = ad.add(h, mix(z, p[f"block{i}_w2"], p[f"block{i}_b2"]))
        return ad.reshape(mix(h, p["out_w"], p["out_b"]), (b, cfg.signal_length))

    def velocity(self, x: np.ndarray, tau, condition: np.ndarray | None = None) -> np.ndarray:
        """Plain ndarray forward pass for sampling; records no tape."""
        with ad.no_grad():
            return self.forward(x, tau, condition).data
