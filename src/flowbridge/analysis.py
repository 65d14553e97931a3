"""Trajectory and signal diagnostics.

Curvature measures how far the field applied at each integration step
deviates from the straight chord between the trajectory's endpoints; straight
(constant-velocity) trajectories score zero everywhere. Distribution quality
is summarized by the empirical 2-Wasserstein distance, and reverberation by
a decay-time estimate; signal fidelity (SDR) is scored by `tasks.sdr`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ot
from .exceptions import ShapeError, ValidationError
from .nn.model import VectorFieldModel
from .sampler import TimeSchedule, Trajectory, check_decode_inputs, integrate
from .tasks import SignalBatch

__all__ = [
    "curvature",
    "CurvatureProfile",
    "curvature_profile",
    "empirical_w2",
    "score_decodes",
    "estimate_decay",
]


def curvature(traj: Trajectory) -> np.ndarray:
    """Per-step, per-sample deviation of the applied field from the chord.

    The recorded field always points toward increasing flow time, while the
    chord points along the traversal, so the field is oriented by the signed
    time span (+1 forward, -1 backward) before comparing; a straight
    constant-velocity trajectory scores zero in either direction. Returns
    (T, B): ||(x_end - x_start) - span * v_k||_2 / sqrt(N), on the scale of a
    per-dimension deviation and comparable across signal lengths.
    """
    n = traj.final.shape[1]
    chord = traj.final - traj.start
    span = float(traj.taus[-1] - traj.taus[0])
    dev = chord[None, :, :] - span * traj.velocities
    return np.linalg.norm(dev, axis=2) / np.sqrt(n)


@dataclass(frozen=True)
class CurvatureProfile:
    """Step-resolved curvature statistics over a population of samples."""

    taus: np.ndarray
    mean: np.ndarray
    p25: np.ndarray
    p75: np.ndarray

    @property
    def time_average(self) -> float:
        return float(self.mean.mean())


def curvature_profile(trajectories: list[Trajectory]) -> CurvatureProfile:
    """Pool sample-level curvature across trajectories sharing one schedule."""
    if not trajectories:
        raise ValidationError("need at least one trajectory")
    ref = trajectories[0].taus
    for t in trajectories[1:]:
        if not np.array_equal(t.taus, ref):
            raise ValidationError("trajectories were integrated on different schedules")
    pooled = np.concatenate([curvature(t) for t in trajectories], axis=1)
    return CurvatureProfile(
        taus=ref[:-1].copy(),
        mean=pooled.mean(axis=1),
        p25=np.percentile(pooled, 25, axis=1),
        p75=np.percentile(pooled, 75, axis=1),
    )


def empirical_w2(a: np.ndarray, b: np.ndarray) -> float:
    """2-Wasserstein distance between equal-size empirical distributions.

    Solves the exact assignment between the two point clouds and returns
    sqrt(mean matched squared distance).
    """
    c = ot.cost_matrix(a, b)
    cost = ot.transport_cost(c, ot.solve_exact(c))
    return float(np.sqrt(cost / c.m))


def score_decodes(
    model: VectorFieldModel, z: np.ndarray, reference: SignalBatch, gammas: list[float],
    schedule: TimeSchedule, method: str = "euler",
) -> list[tuple[float, float, CurvatureProfile]]:
    """(gamma, w2, profile) per gamma, in order, of z decoded backward under the reference's
    condition and scored against its values. Every gamma is checked before the first decode;
    without a condition `integrate` ignores gamma, so one decode serves every gamma."""
    for gamma in gammas:
        check_decode_inputs(model, z, reference.condition, gamma)
    scores = []
    for gamma in gammas:
        if not scores or reference.condition is not None:
            traj = integrate(model, z, schedule, direction="backward", method=method,
                             condition=reference.condition, gamma=gamma)
            w2, prof = empirical_w2(traj.final, reference.values), curvature_profile([traj])
        scores.append((gamma, w2, prof))
    return scores


def estimate_decay(signal: np.ndarray, fs: float) -> float:
    """Reverberation time T60 in seconds from backward-integrated energy decay.

    Builds the Schroeder curve (reverse cumulative energy, in dB relative to
    the total), fits a least-squares line over the -5 dB to -35 dB span, and
    extrapolates the time to fall 60 dB. Returns NaN when the span holds
    fewer than two samples, falls by no more than rounding, or the fitted
    slope is not a decay.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ShapeError(f"expected a 1-D signal, got {signal.shape}")
    if fs <= 0:
        raise ValidationError(f"sample rate must be positive, got {fs}")
    energy = signal**2
    total = float(energy.sum())
    if total == 0.0:
        raise ValidationError("signal is identically zero")
    edc = np.cumsum(energy[::-1])[::-1]
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(edc / total)
    mask = (db <= -5.0) & (db >= -35.0) & np.isfinite(db)
    if mask.sum() < 2:
        return np.nan
    t = np.nonzero(mask)[0] / fs
    y = db[mask]
    # The fit of a flat span has a slope of rounding noise, of either sign.
    # The Schroeder curve carries the error of an n-term sum, n ulps, which
    # is 10 log10(e) n eps in dB; a span must fall by more than that.
    if not y[0] - y[-1] > 10.0 * np.log10(np.e) * signal.size * np.finfo(float).eps:
        return np.nan
    slope, _ = np.polyfit(t, y, 1)
    if slope >= 0:
        return np.nan
    return float(-60.0 / slope)
