"""Deterministic ODE sampling for the learned velocity field.

Encoding integrates the unconditional field forward in flow time (data to
Gaussian); decoding integrates backward (Gaussian to data) under a guided
field. Both directions share the same discrete schedule, so an
encode/decode round trip visits the same times in opposite order.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .config import MAX_ARRAY_VALUES
from .exceptions import DivergenceError, ShapeError, ValidationError
from .nn.model import VectorFieldModel, check_condition

__all__ = [
    "TimeSchedule",
    "schedule_uniform",
    "schedule_raised_cosine",
    "SCHEDULES",
    "Trajectory",
    "check_decode_inputs",
    "integrate",
    "BridgeResult",
    "gfb_transfer",
]


@dataclass(frozen=True)
class TimeSchedule:
    """Strictly increasing flow times from exactly 0.0 to exactly 1.0."""

    taus: np.ndarray

    def __post_init__(self):
        t = self.taus
        if t.ndim != 1 or t.shape[0] < 2:
            raise ValidationError("schedule needs at least two times")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValidationError(f"schedule must span [0, 1] exactly, got [{t[0]}, {t[-1]}]")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("schedule times must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return self.taus.shape[0] - 1


def _check_steps(n_steps) -> None:
    """Raise unless n_steps is an integer (a bool is not) in [1, 2**60); both builders call it."""
    if isinstance(n_steps, bool) or not isinstance(n_steps, Integral):
        raise ValidationError(f"n_steps must be an integer, got {n_steps!r}")
    if not 1 <= n_steps < MAX_ARRAY_VALUES:
        raise ValidationError(f"n_steps must be >= 1 and < 2**60, got {n_steps}")


def schedule_uniform(n_steps: int) -> TimeSchedule:
    _check_steps(n_steps)
    return TimeSchedule(np.arange(n_steps + 1, dtype=np.float64) / n_steps)


def schedule_raised_cosine(n_steps: int = 25) -> TimeSchedule:
    """tau_i = 0.5 + 0.5 * cos(pi * i / T + pi): dense near both endpoints.

    cos(pi) and cos(2*pi) are exact in float64, so the endpoints are exact.
    """
    _check_steps(n_steps)
    i = np.arange(n_steps + 1, dtype=np.float64)
    return TimeSchedule(0.5 + 0.5 * np.cos(np.pi * i / n_steps + np.pi))


# Schedule name -> builder taking the number of steps.
SCHEDULES = {"raised_cosine": schedule_raised_cosine, "uniform": schedule_uniform}


@dataclass(frozen=True)
class Trajectory:
    """Recorded integration path: its endpoints and the field applied per step.

    taus[k] is the k-th visited time; velocities[k] is the field actually
    applied on the step from taus[k] to taus[k+1] (for the midpoint method
    that is the midpoint evaluation, not the initial one). Replaying
    x += (taus[k+1] - taus[k]) * velocities[k] from start reproduces final.
    """

    start: np.ndarray
    final: np.ndarray
    velocities: np.ndarray
    taus: np.ndarray

    def __post_init__(self):
        t, b, n = self.velocities.shape
        if self.start.shape != (b, n) or self.final.shape != (b, n):
            raise ShapeError(
                f"endpoints {self.start.shape}, {self.final.shape} inconsistent with "
                f"velocities {self.velocities.shape}"
            )
        if self.taus.shape != (t + 1,):
            raise ShapeError(f"taus {self.taus.shape} inconsistent with {t} steps")

    @property
    def n_steps(self) -> int:
        return self.velocities.shape[0]


def check_decode_inputs(model: VectorFieldModel, start: np.ndarray, condition, gamma: float):
    """start and condition cast to the model dtype: the one check of a decode's inputs.

    Raises ShapeError for a misfit shape (start not (B, N), or see `check_condition`)
    and ValidationError if start, condition or gamma is non-finite in the model dtype.
    """
    if start.ndim != 2:
        raise ShapeError(f"start state must be (B, N), got {start.shape}")
    dtype = model.config.np_dtype
    name = np.dtype(dtype).name
    # Cast before the check: a value past the model dtype's range becomes inf.
    with np.errstate(over="ignore"):
        start = np.asarray(start, dtype=dtype)
        if condition is not None:
            condition = np.asarray(condition, dtype=dtype)
        gamma_cast = np.asarray(gamma, dtype=dtype)
    check_condition(model.config, start.shape[0], condition)
    if not np.all(np.isfinite(start)):
        raise ValidationError(f"start state has non-finite values in {name}")
    if condition is not None and not np.all(np.isfinite(condition)):
        raise ValidationError(f"condition has non-finite values in {name}")
    if not np.isfinite(gamma_cast):
        raise ValidationError(f"gamma must be finite in {name}, got {gamma}")
    return start, condition


def integrate(
    model: VectorFieldModel,
    start: np.ndarray,
    schedule: TimeSchedule,
    direction: str = "forward",
    method: str = "euler",
    condition: np.ndarray | None = None,
    gamma: float = 1.0,
) -> Trajectory:
    """Fixed-step integration of dx/dtau = v(x, tau, c) over the schedule.

    direction "forward" walks the schedule from 0 to 1, "backward" from 1 to
    0 (negative steps). With a condition, the field is the guided combination
    gamma * v_cond + (1 - gamma) * v_null, evaluated once when gamma is 1 and
    as the null branch alone when gamma is 0. Without a condition only the
    null branch is evaluated. Before any network evaluation the inputs pass
    `check_decode_inputs`; raises DivergenceError the first time a later
    state goes non-finite.
    """
    start, condition = check_decode_inputs(model, start, condition, gamma)
    x = start
    if method not in ("euler", "midpoint"):
        raise ValidationError(f"unknown method {method!r}")
    if direction not in ("forward", "backward"):
        raise ValidationError(f"unknown direction {direction!r}")
    if gamma == 0.0:
        condition = None
    blend = condition is not None and gamma != 1.0

    taus = schedule.taus if direction == "forward" else schedule.taus[::-1]
    n_steps = schedule.n_steps

    def guided_field(x, tau):
        v = model.velocity(x, tau, condition)
        if blend:
            v_null = model.velocity(x, tau, None)
            v = gamma * v + (1.0 - gamma) * v_null
        return v

    if n_steps * x.size >= MAX_ARRAY_VALUES:
        raise ValidationError(f"{n_steps} steps of {x.size} values pass the 2**60-value limit")
    velocities = np.empty((n_steps,) + x.shape, dtype=x.dtype)
    # An overflow anywhere in a step, the network included, surfaces as the
    # DivergenceError below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            tau_cur, tau_next = float(taus[i]), float(taus[i + 1])
            dt = tau_next - tau_cur
            if method == "euler":
                v = guided_field(x, tau_cur)
            else:
                k1 = guided_field(x, tau_cur)
                mid_tau = min(max(tau_cur + 0.5 * dt, 0.0), 1.0)
                v = guided_field(x + (0.5 * dt) * k1, mid_tau)
            x = x + dt * v
            if not np.all(np.isfinite(x)):
                raise DivergenceError(step=i, tau=tau_next)
            velocities[i] = v
    return Trajectory(start, x, velocities, np.asarray(taus, dtype=np.float64))


@dataclass(frozen=True)
class BridgeResult:
    output: np.ndarray
    latent: np.ndarray
    encode: Trajectory
    decode: Trajectory


def gfb_transfer(
    model: VectorFieldModel,
    x: np.ndarray,
    schedule: TimeSchedule,
    condition: np.ndarray | None,
    gamma: float = 1.0,
    method: str = "euler",
) -> BridgeResult:
    """Two-stage bridge: unconditional encode to the latent, guided decode back.

    The encode leg never sees the condition — the latent depends only on the
    input — so the same latent can be decoded under different conditions or
    guidance weights. The decode's inputs pass `check_decode_inputs` before
    the encode leg runs.
    """
    check_decode_inputs(model, x, condition, gamma)
    encode = integrate(model, x, schedule, direction="forward", method=method, condition=None)
    latent = encode.final
    decode = integrate(
        model,
        latent,
        schedule,
        direction="backward",
        method=method,
        condition=condition,
        gamma=gamma,
    )
    return BridgeResult(decode.final, latent, encode, decode)
