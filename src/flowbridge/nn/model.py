"""Conditional vector-field networks.

Both backbones predict a velocity the same size as the input signal. A shared
context vector — sinusoidal time embedding, embedded condition (or a learned
null vector when the condition is absent), and a presence flag — modulates
every residual block through per-block scale-and-shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import check_int_fields, check_real_fields
from ..exceptions import ConfigError, ShapeError, ValidationError
from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["ModelConfig", "VectorFieldModel", "time_embedding"]

_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class ModelConfig:
    signal_length: int
    backbone: str = "mlp"
    hidden: int = 64
    depth: int = 3
    cond_dim: int = 0
    cond_embed: int = 16
    time_features: int = 8
    max_time_freq: float = 50.0
    kernel_size: int = 5
    dtype: str = "float32"

    def __post_init__(self):
        check_int_fields(self, "signal_length", "hidden", "depth", "kernel_size", low=1)
        check_int_fields(self, "cond_dim", "cond_embed", "time_features", low=0)
        check_real_fields(self, "max_time_freq", positive=True)
        if self.backbone not in ("mlp", "conv"):
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"unknown dtype {self.dtype!r}")
        if self.kernel_size % 2 != 1:
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


def time_embedding(tau: np.ndarray, n_features: int, max_freq: float, dtype) -> np.ndarray:
    """Sinusoidal features of the flow time: (B,) -> (B, 2*n_features).

    Frequencies are geometrically spaced from 1 to max_freq cycles over the
    unit interval.
    """
    freqs = np.geomspace(1.0, max_freq, n_features)
    ang = 2.0 * np.pi * tau[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(dtype)


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
        h, d = config.hidden, config.depth

        def param(name, shape, scale):
            if scale == 0.0:
                data = np.zeros(shape, dtype=dt)
            else:
                data = (rng.standard_normal(shape) * scale).astype(dt)
            t = Tensor(data, requires_grad=True)
            self.params[name] = t
            return t

        e = config.cond_embed
        if config.cond_dim > 0:
            param("cond_w", (config.cond_dim, e), 1.0 / np.sqrt(config.cond_dim))
            param("cond_b", (e,), 0.0)
        param("null_cond", (1, e), 0.02)
        ctx_in = 2 * config.time_features + e + 1
        param("ctx_w", (ctx_in, h), np.sqrt(2.0 / ctx_in))
        param("ctx_b", (h,), 0.0)

        # One layout for both backbones: the MLP is the conv backbone with
        # kernel 1 whose single position holds the whole signal as channels.
        n = config.signal_length
        dense = config.backbone == "mlp"
        k = 1 if dense else config.kernel_size
        c = n if dense else 1

        def mixer(w_name, b_name, c_in, c_out, width, scale):
            param(w_name, (c_in, c_out) if dense else (c_out, c_in, width), scale)
            param(b_name, (c_out,), 0.0)

        mixer("in_w", "in_b", c, h, k, 1.0 / np.sqrt(c * k))
        for i in range(d):
            param(f"film{i}_w", (h, 2 * h), 0.0)
            param(f"film{i}_b", (2 * h,), 0.0)
            mixer(f"block{i}_w1", f"block{i}_b1", h, h, k, np.sqrt(2.0 / (h * k)))
            mixer(f"block{i}_w2", f"block{i}_b2", h, h, k, 1.0 / np.sqrt(h * k))
        mixer("out_w", "out_b", h, c, 1, 0.0)

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def param_names(self) -> list[str]:
        return list(self.params.keys())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def _context(self, tau: np.ndarray, condition, present: np.ndarray) -> Tensor:
        """Context rows for tau (R,) and flags present (R,); absent rows embed null_cond."""
        cfg = self.config
        dt = cfg.np_dtype
        rows = tau.shape[0]
        if condition is not None and cfg.cond_dim == 0:
            raise ValidationError("model was built without conditioning")
        temb = Tensor(time_embedding(tau, cfg.time_features, cfg.max_time_freq, dt))
        if cfg.cond_dim > 0 and present.any():
            if condition is None:
                raise ValidationError("present flags set but no condition given")
            if condition.shape != (rows, cfg.cond_dim):
                raise ShapeError(
                    f"condition must be ({rows}, {cfg.cond_dim}), got {condition.shape}"
                )
            # Zero absent rows *before* the matmul so their payload (possibly
            # NaN) never reaches the parameters.
            cond_in = np.where(present[:, None], condition, 0.0).astype(dt)
            real = ad.matmul(Tensor(cond_in), self.params["cond_w"], self.params["cond_b"])
        else:
            real = Tensor(np.zeros((rows, 1), dtype=dt))
        emb = ad.where(present[:, None], real, self.params["null_cond"])
        ctx_in = ad.concat([temb, emb, Tensor(present.astype(dt)[:, None])], axis=1)
        return ad.silu(ad.matmul(ctx_in, self.params["ctx_w"], self.params["ctx_b"]))

    def forward(
        self,
        x: np.ndarray,
        tau,
        condition: np.ndarray | None = None,
        present: np.ndarray | None = None,
    ) -> Tensor:
        """Velocity prediction as a Tensor (call .backward on a seeded loss grad)."""
        cfg = self.config
        dt = cfg.np_dtype
        if x.ndim != 2 or x.shape[1] != cfg.signal_length:
            raise ShapeError(f"expected (B, {cfg.signal_length}), got {x.shape}")
        b = x.shape[0]
        tau = np.asarray(tau, dtype=dt)
        if np.any(tau < 0.0) or np.any(tau > 1.0):
            raise ValidationError("tau must lie in [0, 1]")
        if present is None:
            present = np.full(b, condition is not None)
        elif present.shape != (b,):
            raise ShapeError(f"present must be ({b},), got {present.shape}")
        if tau.ndim == 0 and not present.any():
            # Every row has the same context: build it on one row, broadcast it.
            tau, present = tau.reshape(1), np.zeros(1, dtype=bool)
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

    def velocity(
        self,
        x: np.ndarray,
        tau,
        condition: np.ndarray | None = None,
        present: np.ndarray | None = None,
    ) -> np.ndarray:
        """Plain ndarray forward pass for sampling; records no tape."""
        with ad.no_grad():
            return self.forward(x, tau, condition, present).data
