"""Tests for the synthetic task generators and degradations."""

import hashlib

import numpy as np
import pytest

from flowbridge.analysis import estimate_decay
from flowbridge.exceptions import ConfigError, ValidationError
from flowbridge.tasks import (
    CLEAN_T60,
    EARLY_WINDOW_S,
    MAX_SIGNAL_LENGTH,
    SDR_CAP_DB,
    TaskSpec,
    apply_reverb,
    clip_to_sdr,
    compute_c50,
    degrade,
    gen_checkerboard,
    gen_cond_ring,
    gen_eight_gaussians,
    gen_toy_signal,
    gen_two_moons,
    make_reverb_kernel,
    make_training_stream,
    sdr,
)


class TestTaskSpec:
    def test_planar_must_be_2d(self):
        with pytest.raises(ConfigError):
            TaskSpec("two_moons", n=3)

    def test_signal_needs_degradation(self):
        with pytest.raises(ConfigError):
            TaskSpec("toy_signal", n=2048)

    def test_planar_rejects_degradation(self):
        with pytest.raises(ConfigError):
            TaskSpec("eight_gaussians", degradation="clip")

    def test_clean_mix_only_for_signals(self):
        with pytest.raises(ConfigError):
            TaskSpec("cond_ring", clean_mix_prob=0.1)
        TaskSpec("toy_signal", n=2048, degradation="reverb", clean_mix_prob=0.1)

    @pytest.mark.parametrize("n", [2.0, 16.5, True, "2"])
    def test_length_must_be_an_integer(self, n):
        with pytest.raises(ConfigError, match="n must be an integer"):
            TaskSpec("two_moons", n=n)

    @pytest.mark.parametrize(
        "field,bad",
        [("fs", 0.0), ("fs", -8000.0), ("fs", 239.0), ("fs", float("nan")), ("fs", True),
         ("seed_noise", True), ("seed_noise", float("inf")), ("clean_mix_prob", True),
         ("clean_mix_prob", float("nan"))],
    )
    def test_rejects_bad_real_field(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            TaskSpec("toy_signal", n=64, degradation="clip", **{field: bad})
        TaskSpec("toy_signal", n=64, fs=240.0, degradation="clip")

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            TaskSpec("spiral")

    def test_reverb_kernel_bounded_like_a_signal(self):
        # The kernel spans at least the early window: EARLY_WINDOW_S * fs taps.
        top = MAX_SIGNAL_LENGTH / EARLY_WINDOW_S
        TaskSpec("toy_signal", n=16, fs=top, degradation="reverb")
        for fs in (top * 1.001, 1e20):
            with pytest.raises(ConfigError, match="reverb kernel"):
                TaskSpec("toy_signal", n=16, fs=fs, degradation="reverb")
            TaskSpec("toy_signal", n=16, fs=fs, degradation="clip")

    def test_descriptors(self):
        assert TaskSpec("cond_ring").descriptors == ("radius",)
        assert TaskSpec("toy_signal", n=2048, degradation="reverb").descriptors == ("t60", "c50")
        assert TaskSpec("toy_signal", n=2048, degradation="clip").descriptors == ("sdr",)
        assert TaskSpec("two_moons").cond_dim == 0


class TestPlanarGenerators:
    def test_two_moons_population_mean(self):
        pts = gen_two_moons(20000, np.random.default_rng(0))
        assert pts.shape == (20000, 2)
        assert pts.dtype == np.float32
        assert abs(float(pts[:, 0].mean()) - 0.5) < 0.02
        assert abs(float(pts[:, 1].mean()) - 0.25) < 0.02

    def test_checkerboard_occupies_even_cells(self):
        pts = gen_checkerboard(20000, np.random.default_rng(1))
        f = np.floor(pts)
        parity = (f[:, 0] + f[:, 1]) % 2
        assert np.all(parity == 0)
        assert np.all(pts >= -2.0) and np.all(pts < 2.0)
        # all 8 even cells of the 4x4 grid are populated roughly evenly
        cells = {(int(a), int(b)) for a, b in f}
        assert len(cells) == 8

    def test_eight_gaussians_modes(self):
        pts = gen_eight_gaussians(20000, np.random.default_rng(2))
        ang = 2.0 * np.pi * np.arange(8) / 8.0
        centers = 2.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        d = np.linalg.norm(pts[:, None, :] - centers[None], axis=2)
        nearest = d.min(axis=1)
        # 0.2 std: essentially every draw lies within 5 sigma of some center
        assert float(np.quantile(nearest, 0.999)) < 1.0
        counts = np.bincount(d.argmin(axis=1), minlength=8)
        assert counts.min() > 20000 / 8 * 0.8

    def test_cond_ring_condition_is_radius(self):
        pts, cond = gen_cond_ring(5000, np.random.default_rng(3))
        assert cond.shape == (5000, 1)
        radii = np.linalg.norm(pts, axis=1)
        assert np.all(np.abs(radii - cond[:, 0]) < 0.15)
        assert cond.min() > 0.45 and cond.max() < 2.05


class TestToySignal:
    def test_peak_normalized(self):
        x = gen_toy_signal(8, 2048, 8000.0, np.random.default_rng(4))
        assert x.shape == (8, 2048)
        peaks = np.abs(x).max(axis=1)
        assert np.allclose(peaks, 0.9, atol=1e-5)

    def test_band_limited(self):
        x = gen_toy_signal(4, 4096, 8000.0, np.random.default_rng(5))
        spec = np.abs(np.fft.rfft(x.astype(np.float64), axis=1)) ** 2
        freqs = np.fft.rfftfreq(4096, d=1.0 / 8000.0)
        high = spec[:, freqs > 8000.0 / 4.0 * 1.2].sum(axis=1)
        assert np.all(high / spec.sum(axis=1) < 0.05)


class TestReverb:
    def test_kernel_direct_tap(self):
        k = make_reverb_kernel(0.3, 8000.0, 0.5, np.random.default_rng(6))
        assert k[0] == 1.0
        assert k.shape == (4000,)

    def test_kernel_envelope_decays_60db_at_t60(self):
        rng = np.random.default_rng(7)
        t60, fs = 0.25, 8000.0
        k = make_reverb_kernel(t60, fs, 0.5, rng)
        # average energy in a window around t60 is ~60 dB below t=0
        idx = int(t60 * fs)
        early = float(np.mean(k[1:201] ** 2))
        late = float(np.mean(k[idx : idx + 200] ** 2))
        drop_db = 10.0 * np.log10(early / late)
        assert 50.0 < drop_db < 70.0

    @pytest.mark.parametrize("t60", [0.1, 0.3, 0.6])
    def test_t60_recoverable_from_kernel(self, t60):
        rng = np.random.default_rng(8)
        k = make_reverb_kernel(t60, 8000.0, 1.2, rng)
        assert abs(estimate_decay(k, 8000.0) - t60) / t60 < 0.1

    def test_apply_reverb_length_and_identity(self):
        rng = np.random.default_rng(9)
        x = gen_toy_signal(1, 1024, 8000.0, rng)[0].astype(np.float64)
        wet = apply_reverb(x, np.array([1.0]))
        assert np.allclose(wet, x)
        k = make_reverb_kernel(0.2, 8000.0, 0.1, rng)
        assert apply_reverb(x, k).shape == x.shape

    def test_apply_reverb_rejects_non_1d(self):
        with pytest.raises(ValidationError, match="expected a 1-D signal"):
            apply_reverb(np.zeros((2, 8)), np.array([1.0]))

    def test_kernel_validation(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValidationError):
            make_reverb_kernel(0.0, 8000.0, 0.5, rng)
        with pytest.raises(ValidationError):
            make_reverb_kernel(0.3, 8000.0, 0.01, rng)


class TestC50:
    def test_pure_impulse_capped(self):
        k = np.zeros(1000)
        k[0] = 1.0
        assert compute_c50(k, 8000.0) == 100.0

    def test_hand_computed_split(self):
        fs = 1000.0  # early window = first 50 samples
        k = np.zeros(100)
        k[:50] = 2.0  # early energy 200
        k[50:] = 1.0  # late energy 50
        assert compute_c50(k, fs) == pytest.approx(10.0 * np.log10(4.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        k = make_reverb_kernel(0.4, 8000.0, 0.5, rng)
        assert abs(compute_c50(k, 8000.0) - compute_c50(123.4 * k, 8000.0)) < 1e-6

    @pytest.mark.parametrize("fs", [0.0, -8000.0])
    def test_non_positive_fs_rejected(self, fs):
        with pytest.raises(ValidationError, match="sample rate must be positive"):
            compute_c50(np.ones(8), fs)

    def test_no_early_energy_rejected(self):
        k = np.zeros(1000)
        k[900] = 1.0
        with pytest.raises(ValidationError):
            compute_c50(k, 8000.0)


class TestClip:
    @pytest.mark.parametrize("target", [3.0, 6.0, 12.0])
    def test_clip_to_sdr_hits_target(self, target):
        rng = np.random.default_rng(12)
        x = gen_toy_signal(1, 2048, 8000.0, rng)[0].astype(np.float64)
        values, reached = clip_to_sdr(x, target)
        assert abs(reached - target) <= 0.1
        assert abs(sdr(x, values) - target) <= 0.1

    def test_unattainable_target_flagged(self):
        rng = np.random.default_rng(13)
        x = gen_toy_signal(1, 1024, 8000.0, rng)[0].astype(np.float64)
        values, reached = clip_to_sdr(x, -5.0)
        assert reached == SDR_CAP_DB
        assert np.array_equal(values, x)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValidationError):
            clip_to_sdr(np.zeros(100), 6.0)


class TestTrainingStream:
    def test_planar_batches(self):
        spec = TaskSpec("eight_gaussians")
        stream = make_training_stream(spec, 16, np.random.default_rng(14))
        batch = next(stream)
        assert batch.values.shape == (16, 2)
        assert batch.condition is None

    def test_cond_ring_batches_conditioned(self):
        spec = TaskSpec("cond_ring")
        stream = make_training_stream(spec, 8, np.random.default_rng(15))
        batch = next(stream)
        assert batch.condition.shape == (8, 1)

    def test_reverb_stream_descriptors(self):
        spec = TaskSpec("toy_signal", n=512, fs=8000.0, degradation="reverb")
        stream = make_training_stream(spec, 4, np.random.default_rng(16))
        batch = next(stream)
        assert batch.values.shape == (4, 512)
        assert batch.condition.shape == (4, 2)
        t60s, c50s = batch.condition[:, 0], batch.condition[:, 1]
        assert np.all((t60s >= 0.1) & (t60s <= 1.0))
        assert np.all(np.isfinite(c50s))

    def test_clean_mix_uses_boundary_descriptors(self):
        spec = TaskSpec(
            "toy_signal", n=512, fs=8000.0, degradation="reverb", clean_mix_prob=1.0
        )
        stream = make_training_stream(spec, 4, np.random.default_rng(17))
        batch = next(stream)
        assert np.all(batch.condition[:, 0] == np.float32(CLEAN_T60))
        assert np.all(batch.condition[:, 1] == 100.0)
        peaks = np.abs(batch.values).max(axis=1)
        assert np.allclose(peaks, 0.9, atol=1e-5)

    def test_clip_stream_descriptor_matches_measurement(self):
        spec = TaskSpec("toy_signal", n=1024, fs=8000.0, degradation="clip")
        stream = make_training_stream(spec, 4, np.random.default_rng(18))
        batch = next(stream)
        assert batch.condition.shape == (4, 1)
        assert np.all((batch.condition[:, 0] >= 0.9) & (batch.condition[:, 0] <= 40.1))

    @pytest.mark.parametrize(
        "degradation,clean_mix_prob,digest",
        [
            ("reverb", 0.0, "68fad249fd93d8f4b1b67149146a51d951ce213aae8b620e473aee9406f612bf"),
            ("reverb", 0.3, "9747b67b5d52987572874c1a2ea9b72a680cd9513f08918ea37351774579ff36"),
            ("clip", 0.0, "9032520e619ed104722563d0c0a3f056232b2d4062dbe05a100198d8e4bc9c24"),
            ("clip", 0.3, "500dcb5dd6c167ddfa540c4040eb472f80f8a6dd6a3ccfa2236d85bcab48a751"),
        ],
    )
    def test_signal_stream_golden_digest(self, degradation, clean_mix_prob, digest):
        """The first three batches are bit for bit the ones the stream has always drawn."""
        spec = TaskSpec("toy_signal", n=256, fs=8000.0, degradation=degradation,
                        clean_mix_prob=clean_mix_prob)
        stream = make_training_stream(spec, 4, np.random.default_rng(21))
        h = hashlib.sha256()
        for _ in range(3):
            batch = next(stream)
            h.update(batch.values.tobytes())
            h.update(batch.condition.tobytes())
        assert h.hexdigest() == digest

    def test_degrade_reports_the_descriptors_reached(self):
        x = gen_toy_signal(1, 512, 8000.0, np.random.default_rng(22))[0]
        wet, (t60, c50) = degrade(
            TaskSpec("toy_signal", n=512, degradation="reverb"), x, 0.4, np.random.default_rng(23)
        )
        assert t60 == 0.4 and np.isfinite(c50)
        assert np.abs(wet).max() == pytest.approx(0.9)
        clipped, (got,) = degrade(TaskSpec("toy_signal", n=512, degradation="clip"), x, 6.0, None)
        assert got == pytest.approx(6.0, abs=0.1)
        assert got == sdr(x.astype(np.float64), clipped)
        with pytest.raises(ValidationError):
            degrade(TaskSpec("two_moons"), x, 6.0, np.random.default_rng(0))

    def test_stream_reproducibility(self):
        spec = TaskSpec("two_moons")
        a = next(make_training_stream(spec, 32, np.random.default_rng(19)))
        b = next(make_training_stream(spec, 32, np.random.default_rng(19)))
        assert np.array_equal(a.values, b.values)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValidationError):
            make_training_stream(TaskSpec("two_moons"), 0, np.random.default_rng(0))
