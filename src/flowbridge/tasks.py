"""Synthetic task distributions and signal degradations.

Planar families (two_moons, checkerboard, eight_gaussians, cond_ring) are
2-D point distributions; toy_signal is a bank of random sinusoid mixtures
degraded by synthetic reverberation or hard clipping. Training streams yield
`SignalBatch`es whose conditions are the ground-truth degradation descriptors,
with an optional fraction of clean samples carrying boundary-value descriptors.
`sdr`, `compute_c50` and the clean descriptors share one cap, SDR_CAP_DB. The
module imports only `config` and `exceptions`: making a batch loads no model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .config import MAX_ARRAY_VALUES, check_int_fields, check_real_fields
from .exceptions import ConfigError, ShapeError, ValidationError

__all__ = [
    "SignalBatch",
    "TaskSpec",
    "gen_two_moons",
    "gen_checkerboard",
    "gen_eight_gaussians",
    "gen_cond_ring",
    "gen_toy_signal",
    "make_reverb_kernel",
    "apply_reverb",
    "compute_c50",
    "sdr",
    "clip_to_sdr",
    "degrade",
    "make_training_stream",
    "DEGRADATIONS",
    "CLEAN_T60",
    "EARLY_WINDOW_S",
    "MIN_TONE_HZ",
    "SDR_CAP_DB",
]

PLANAR_FAMILIES = ("two_moons", "checkerboard", "eight_gaussians", "cond_ring")
SDR_CAP_DB = 100.0
# Descriptor values attached to undegraded samples: a near-anechoic decay
# time and the capped early/late ratio of a bare impulse.
CLEAN_T60 = 0.01
EARLY_WINDOW_S = 0.05
# Lowest toy-signal tone; the highest is fs/4.
MIN_TONE_HZ = 60.0
# Longest toy signal (2**32 samples, 16 GiB a float32 row). From a longer n,
# sizes can pass numpy's array-size limit, where allocation raises ValueError
# rather than the MemoryError the CLI reports.
MAX_SIGNAL_LENGTH = 2**32
# clip_to_sdr stops once the SDR it reaches is this close to the target.
CLIP_TOL_DB = 0.1


class Degradation(NamedTuple):
    descriptors: tuple[str, ...]
    target_range: tuple[float, float]  # a training target is drawn uniformly from it
    clean: tuple[float, ...]  # the descriptors of an undegraded sample


DEGRADATIONS = {
    "reverb": Degradation(("t60", "c50"), (0.1, 1.0), (CLEAN_T60, SDR_CAP_DB)),
    "clip": Degradation(("sdr",), (1.0, 40.0), (SDR_CAP_DB,)),
}


@dataclass(frozen=True)
class SignalBatch:
    """A batch of fixed-length signals with optional conditioning.

    values: (B, N) float32. condition: (B, K) float32 or None; when given,
    every row carries it.
    """

    values: np.ndarray
    condition: np.ndarray | None = None

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ShapeError(f"batch values must be (B, N), got {v.shape}")
        if v.dtype != np.float32:
            raise ValidationError(f"batch values must be float32, got {v.dtype}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("batch values have non-finite entries")
        b = v.shape[0]
        if self.condition is not None:
            c = self.condition
            if c.ndim != 2 or c.shape[0] != b:
                raise ShapeError(f"condition must be (B, K) with B={b}, got {c.shape}")
            if c.dtype != np.float32:
                raise ValidationError(f"condition must be float32, got {c.dtype}")


@dataclass(frozen=True)
class TaskSpec:
    family: str
    n: int = 2
    fs: float = 8000.0
    degradation: str | None = None
    clean_mix_prob: float = 0.0
    seed_noise: float = 0.05

    def __post_init__(self):
        check_int_fields(self, "n")
        check_real_fields(self, "fs", "seed_noise")
        check_real_fields(self, "clean_mix_prob", unit=True)
        if self.family not in PLANAR_FAMILIES + ("toy_signal",):
            raise ConfigError(f"unknown task family {self.family!r}")
        if self.family in PLANAR_FAMILIES and self.n != 2:
            raise ConfigError(f"{self.family} is planar; n must be 2, got {self.n}")
        if self.fs < 4 * MIN_TONE_HZ:
            raise ConfigError(f"fs must be >= 4 x {MIN_TONE_HZ:g} Hz, got {self.fs}")
        if self.family == "toy_signal":
            if self.degradation not in DEGRADATIONS:
                names = " or ".join(map(repr, DEGRADATIONS))
                raise ConfigError(f"toy_signal needs degradation {names}, got {self.degradation!r}")
            if not 16 <= self.n <= MAX_SIGNAL_LENGTH:
                raise ConfigError(
                    f"toy_signal length must be in [16, {MAX_SIGNAL_LENGTH}], got {self.n}"
                )
            # A reverb kernel has max(n, EARLY_WINDOW_S * fs) taps; bound it like a signal.
            taps = round(EARLY_WINDOW_S * self.fs)
            if self.degradation == "reverb" and taps > MAX_SIGNAL_LENGTH:
                raise ConfigError(
                    f"fs={self.fs:g} gives a reverb kernel of {taps} taps, past {MAX_SIGNAL_LENGTH}"
                )
        elif self.degradation is not None:
            raise ConfigError(f"{self.family} does not take a degradation")
        if self.clean_mix_prob > 0 and self.family != "toy_signal":
            raise ConfigError("clean_mix_prob only applies to toy_signal tasks")

    @property
    def descriptors(self) -> tuple[str, ...]:
        if self.degradation is not None:
            return DEGRADATIONS[self.degradation].descriptors
        return ("radius",) if self.family == "cond_ring" else ()

    @property
    def cond_dim(self) -> int:
        return len(self.descriptors)


def gen_two_moons(m: int, rng: np.random.Generator, noise: float = 0.05) -> np.ndarray:
    """Two interleaved half-circles; population mean is (0.5, 0.25)."""
    upper = rng.integers(0, 2, size=m).astype(bool)
    t = rng.random(m) * np.pi
    x = np.where(upper, np.cos(t), 1.0 - np.cos(t))
    y = np.where(upper, np.sin(t), 1.0 - np.sin(t) - 0.5)
    pts = np.stack([x, y], axis=1) + noise * rng.standard_normal((m, 2))
    return pts.astype(np.float32)


def gen_checkerboard(m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform density on the even-parity cells of a 4x4 grid over [-2, 2]^2."""
    x1 = rng.random(m) * 4.0 - 2.0
    x2 = rng.random(m) - rng.integers(0, 2, size=m) * 2.0
    x2 = x2 + np.floor(x1) % 2
    return np.stack([x1, x2], axis=1).astype(np.float32)


def gen_eight_gaussians(m: int, rng: np.random.Generator) -> np.ndarray:
    """Equal mixture of eight isotropic Gaussians on a circle of radius 2."""
    k = rng.integers(0, 8, size=m)
    ang = 2.0 * np.pi * k / 8.0
    centers = 2.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return (centers + 0.2 * rng.standard_normal((m, 2))).astype(np.float32)


def gen_cond_ring(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Points on circles of random radius; the radius is the condition."""
    r = rng.uniform(0.5, 2.0, size=m)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=m)
    pts = r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = pts + 0.02 * rng.standard_normal((m, 2))
    return pts.astype(np.float32), r[:, None].astype(np.float32)


def gen_toy_signal(m: int, n: int, fs: float, rng: np.random.Generator) -> np.ndarray:
    """Random sinusoid mixtures, band-limited below fs/4, peak-normalized to 0.9."""
    t = np.arange(n) / fs
    out = np.zeros((m, n))
    for i in range(m):
        n_comp = int(rng.integers(3, 9))
        freqs = rng.uniform(MIN_TONE_HZ, fs / 4.0, size=n_comp)
        amps = rng.uniform(0.3, 1.0, size=n_comp)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_comp)
        out[i] = (amps[:, None] * np.sin(2.0 * np.pi * freqs[:, None] * t + phases[:, None])).sum(
            axis=0
        )
    out *= 0.9 / np.abs(out).max(axis=1, keepdims=True)
    return out.astype(np.float32)


def make_reverb_kernel(
    t60: float, fs: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Exponentially decaying noise tail behind a unit direct tap.

    The amplitude envelope exp(-ln(1000) t / t60) loses 60 dB of energy at
    t = t60. The kernel must cover at least the 50 ms early window used by
    the clarity descriptor.
    """
    if t60 <= 0:
        raise ValidationError(f"t60 must be positive, got {t60}")
    if duration < EARLY_WINDOW_S:
        raise ValidationError(f"kernel must span at least {EARLY_WINDOW_S}s, got {duration}s")
    length = int(round(duration * fs))
    t = np.arange(length) / fs
    taps = rng.standard_normal(length) * np.exp(-np.log(1000.0) * t / t60)
    taps[0] = 1.0
    return taps


def apply_reverb(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve and truncate back to the input length."""
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-D signal, got {x.shape}")
    return np.convolve(x, kernel)[: x.shape[0]]


def compute_c50(kernel: np.ndarray, fs: float) -> float:
    """Clarity: early (first 50 ms) to late energy ratio in dB, capped +100."""
    if fs <= 0:
        raise ValidationError(f"sample rate must be positive, got {fs}")
    split = int(round(EARLY_WINDOW_S * fs))
    energy = np.asarray(kernel, dtype=np.float64) ** 2
    early = float(energy[:split].sum())
    late = float(energy[split:].sum())
    if early == 0.0:
        raise ValidationError("kernel has no energy in the early window")
    if late == 0.0:
        return SDR_CAP_DB
    return min(10.0 * np.log10(early / late), SDR_CAP_DB)


def sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Signal-to-distortion ratio in dB, capped at +100 for exact matches."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise ShapeError(f"shape mismatch: {reference.shape} vs {estimate.shape}")
    p_ref = float(np.sum(reference**2))
    if p_ref == 0.0:
        raise ValidationError("reference signal is identically zero")
    p_err = float(np.sum((reference - estimate) ** 2))
    if p_err == 0.0:
        return SDR_CAP_DB
    return min(10.0 * np.log10(p_ref / p_err), SDR_CAP_DB)


def clip_to_sdr(x: np.ndarray, target_db: float) -> tuple[np.ndarray, float]:
    """Clip x at the threshold whose distortion hits the target SDR: (values, sdr).

    SDR grows monotonically with the threshold (from 0 dB toward the cap), so
    bisection over (0, max|x|] converges to within CLIP_TOL_DB (0.1 dB). A
    target it cannot reach returns an unclipped copy of x and SDR_CAP_DB.
    """
    x = np.asarray(x, dtype=np.float64)
    peak = float(np.abs(x).max())
    if peak == 0.0:
        raise ValidationError("cannot clip an identically zero signal")
    if not 0.0 < target_db < SDR_CAP_DB:
        return x.copy(), SDR_CAP_DB
    lo, hi = 0.0, peak
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        clipped = np.clip(x, -mid, mid)
        got = sdr(x, clipped)
        if abs(got - target_db) <= CLIP_TOL_DB:
            return clipped, got
        if got < target_db:
            lo = mid
        else:
            hi = mid
    return x.copy(), SDR_CAP_DB


def degrade(
    spec: TaskSpec, x: np.ndarray, target: float, rng: np.random.Generator
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Degrade one clean signal toward a target descriptor: (values, descriptors).

    reverb: convolve with a fresh kernel at T60 = target, its taps drawn from
    rng, peak-normalize to 0.9 and report (t60, c50). clip: clip to SDR =
    target (rng unused) and report the SDR actually reached.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.degradation == "reverb":
        kernel = make_reverb_kernel(target, spec.fs, max(spec.n / spec.fs, EARLY_WINDOW_S), rng)
        wet = apply_reverb(x, kernel)
        return 0.9 * wet / np.abs(wet).max(), (target, compute_c50(kernel, spec.fs))
    if spec.degradation == "clip":
        values, reached = clip_to_sdr(x, target)
        return values, (reached,)
    raise ValidationError(f"{spec.family} task has no degradation")


def make_training_stream(
    spec: TaskSpec, batch_size: int, rng: np.random.Generator
) -> Iterator[SignalBatch]:
    """Endless stream of training batches for a task.

    Signal tasks draw a fresh degradation target per sample from the
    degradation's target range and attach the descriptors `degrade` reports
    as the condition; with probability clean_mix_prob a sample is left clean
    and carries the degradation's clean descriptors instead.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size * spec.n >= MAX_ARRAY_VALUES:
        raise ValidationError(f"{batch_size} rows of {spec.n} values pass the 2**60-value limit")

    def signal_batch() -> SignalBatch:
        table = DEGRADATIONS[spec.degradation]
        clean = gen_toy_signal(batch_size, spec.n, spec.fs, rng)
        values = np.empty_like(clean)
        cond = np.empty((batch_size, spec.cond_dim), dtype=np.float32)
        for i in range(batch_size):
            if rng.random() < spec.clean_mix_prob:
                values[i], cond[i] = clean[i], table.clean
            else:
                target = float(rng.uniform(*table.target_range))
                values[i], cond[i] = degrade(spec, clean[i], target, rng)
        return SignalBatch(values, cond)

    draw = {
        "two_moons": lambda: SignalBatch(gen_two_moons(batch_size, rng, noise=spec.seed_noise)),
        "checkerboard": lambda: SignalBatch(gen_checkerboard(batch_size, rng)),
        "eight_gaussians": lambda: SignalBatch(gen_eight_gaussians(batch_size, rng)),
        "cond_ring": lambda: SignalBatch(*gen_cond_ring(batch_size, rng)),
        "toy_signal": signal_batch,
    }[spec.family]
    return (draw() for _ in itertools.count())
