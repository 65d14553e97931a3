"""Tests for curvature, Wasserstein, SDR, and decay estimation."""

import numpy as np
import pytest

from flowbridge import analysis
from flowbridge.analysis import (
    curvature,
    curvature_profile,
    empirical_w2,
    estimate_decay,
    score_decodes,
)
from flowbridge.exceptions import ShapeError, ValidationError
from flowbridge.nn import ModelConfig, VectorFieldModel
from flowbridge.sampler import Trajectory, integrate, schedule_uniform
from flowbridge.tasks import SignalBatch, sdr


def _straight_trajectory(rng, t=6, b=3, n=4, direction="forward"):
    """Exact constant-velocity walk between x0 and x0 + u (field u throughout)."""
    taus = np.linspace(0.0, 1.0, t + 1)
    if direction == "backward":
        taus = taus[::-1].copy()
    x0 = rng.standard_normal((b, n))
    u = rng.standard_normal((b, n))
    velocities = np.broadcast_to(u, (t, b, n)).copy()
    return Trajectory(x0 + taus[0] * u, x0 + taus[-1] * u, velocities, taus)


def _manual_curvature(traj):
    """Reference implementation with explicit loops."""
    t, b, n = traj.velocities.shape
    span = traj.taus[-1] - traj.taus[0]
    out = np.zeros((t, b))
    for k in range(t):
        for j in range(b):
            dev = (traj.final[j] - traj.start[j]) - span * traj.velocities[k, j]
            out[k, j] = np.sqrt(np.sum(dev**2)) / np.sqrt(n)
    return out


class TestCurvature:
    def test_straight_path_scores_zero(self):
        traj = _straight_trajectory(np.random.default_rng(0))
        assert np.allclose(curvature(traj), 0.0, atol=1e-12)

    def test_straight_backward_path_scores_zero(self):
        # The recorded field points toward increasing tau even on a decode,
        # so orientation must not leak into the score.
        traj = _straight_trajectory(np.random.default_rng(4), direction="backward")
        assert np.allclose(curvature(traj), 0.0, atol=1e-12)

    def test_forward_backward_same_straight_line_agree(self):
        rng = np.random.default_rng(5)
        fwd = _straight_trajectory(rng, t=5, b=2, n=3)
        bwd = Trajectory(fwd.final, fwd.start, fwd.velocities[::-1].copy(), fwd.taus[::-1].copy())
        assert np.allclose(curvature(bwd), curvature(fwd)[::-1], atol=1e-12)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        taus = np.linspace(0.0, 1.0, 6)
        start, final = rng.standard_normal((2, 4, 3))
        velocities = rng.standard_normal((5, 4, 3))
        traj = Trajectory(start, final, velocities, taus)
        assert np.allclose(curvature(traj), _manual_curvature(traj), atol=1e-12)

    def test_dimension_normalization(self):
        # Repeating every coordinate twice doubles N but leaves per-dimension
        # deviation unchanged, so the score must not move.
        rng = np.random.default_rng(2)
        taus = np.linspace(0.0, 1.0, 4)
        start, final = rng.standard_normal((2, 2, 3))
        velocities = rng.standard_normal((3, 2, 3))
        narrow = Trajectory(start, final, velocities, taus)
        wide = Trajectory(
            np.concatenate([start, start], axis=1),
            np.concatenate([final, final], axis=1),
            np.concatenate([velocities, velocities], axis=2),
            taus,
        )
        assert np.allclose(curvature(narrow), curvature(wide), atol=1e-12)

    def test_known_single_step_value(self):
        # One sample, one dimension: chord 2, velocity 5 -> deviation 3.
        velocities = np.array([[[5.0]]])
        traj = Trajectory(np.array([[0.0]]), np.array([[2.0]]), velocities, np.array([0.0, 1.0]))
        assert np.allclose(curvature(traj), [[3.0]])


class TestCurvatureProfile:
    def test_pools_across_trajectories(self):
        rng = np.random.default_rng(3)
        trajs = [_straight_trajectory(rng, b=2) for _ in range(3)]
        # Perturb one trajectory's velocities to create spread.
        prof = curvature_profile(trajs)
        assert prof.mean.shape == (6,)
        assert prof.taus.shape == (6,)
        pooled = np.concatenate([curvature(t) for t in trajs], axis=1)
        assert np.allclose(prof.mean, pooled.mean(axis=1))
        assert np.allclose(prof.p25, np.percentile(pooled, 25, axis=1))
        assert np.allclose(prof.p75, np.percentile(pooled, 75, axis=1))
        assert prof.time_average == pytest.approx(float(pooled.mean()))

    def test_rejects_mismatched_schedules(self):
        rng = np.random.default_rng(4)
        a = _straight_trajectory(rng, t=6)
        b = _straight_trajectory(rng, t=8)
        with pytest.raises(ValidationError):
            curvature_profile([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            curvature_profile([])


class TestEmpiricalW2:
    def test_identical_sets_distance_zero(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 2))
        assert empirical_w2(a, a.copy()) == pytest.approx(0.0, abs=1e-6)

    def test_hand_computed_pairing(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.5], [1.5]])
        # Optimal matching is order-preserving: mean squared distance 0.25.
        assert empirical_w2(a, b) == pytest.approx(0.5)

    def test_translation_of_gaussian(self):
        # W2 between N(0, I) and N(mu, I) is ||mu||; empirical estimate with
        # matched samples should land nearby.
        rng = np.random.default_rng(6)
        a = rng.standard_normal((400, 2))
        b = rng.standard_normal((400, 2)) + np.array([3.0, 0.0])
        assert abs(empirical_w2(a, b) - 3.0) < 0.3

    def test_rejects_empty_sets(self):
        with pytest.raises(ShapeError):
            empirical_w2(np.zeros((0, 2)), np.zeros((0, 2)))


class TestScoreDecodes:
    @staticmethod
    def _case(cond_dim, monkeypatch):
        """A small seeded model, noise and reference batch, and the gammas each
        `integrate` call is made with."""
        rng = np.random.default_rng(4)
        model = VectorFieldModel(ModelConfig(signal_length=2, hidden=8, depth=1,
                                             cond_dim=cond_dim), rng)
        z = rng.standard_normal((16, 2))
        condition = rng.uniform(0.5, 1.5, (16, 1)).astype(np.float32) if cond_dim else None
        reference = SignalBatch(rng.standard_normal((16, 2)).astype(np.float32), condition)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["gamma"])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(analysis, "integrate", counted)
        return model, z, reference, calls

    def test_unconditional_model_decodes_once_for_every_gamma(self, monkeypatch):
        model, z, reference, calls = self._case(0, monkeypatch)
        scores = score_decodes(model, z, reference, [1.5, 0.0, 1.0], schedule_uniform(4))
        assert calls == [1.5]
        assert [g for g, _, _ in scores] == [1.5, 0.0, 1.0]
        traj = integrate(model, z, schedule_uniform(4), direction="backward")
        for _, w2, prof in scores:
            assert w2 == empirical_w2(traj.final, reference.values)
            assert np.array_equal(prof.mean, curvature_profile([traj]).mean)

    def test_conditional_model_decodes_once_per_gamma(self, monkeypatch):
        model, z, reference, calls = self._case(1, monkeypatch)
        scores = score_decodes(model, z, reference, [0.0, 1.0, 2.0], schedule_uniform(4),
                               method="midpoint")
        assert calls == [0.0, 1.0, 2.0]
        for gamma, w2, prof in scores:
            traj = integrate(model, z, schedule_uniform(4), direction="backward",
                             method="midpoint", condition=reference.condition, gamma=gamma)
            assert w2 == empirical_w2(traj.final, reference.values)
            assert np.array_equal(prof.mean, curvature_profile([traj]).mean)

    @pytest.mark.parametrize("cond_dim", [0, 1], ids=["unconditional", "conditional"])
    def test_no_decode_when_a_gamma_overflows_the_model_dtype(self, monkeypatch, cond_dim):
        # 1e39 is finite in float64 but not in the model's float32.
        model, z, reference, calls = self._case(cond_dim, monkeypatch)
        with pytest.raises(ValidationError, match="gamma must be finite in float32"):
            score_decodes(model, z, reference, [1.0, 1e39], schedule_uniform(4))
        assert calls == []


class TestSdr:
    def test_known_ratio(self):
        ref = np.ones(100)
        est = ref + 0.1  # error power is 1% of signal power
        assert sdr(ref, est) == pytest.approx(20.0)

    def test_perfect_match_capped(self):
        ref = np.sin(np.linspace(0, 10, 50))
        assert sdr(ref, ref.copy()) == 100.0

    def test_tiny_error_capped_at_100(self):
        ref = np.ones(10)
        est = ref.copy()
        est[0] += 1e-9
        assert sdr(ref, est) == 100.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValidationError):
            sdr(np.zeros(10), np.ones(10))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sdr(np.ones(10), np.ones(11))

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        ref = rng.standard_normal(64)
        est = ref + 0.05 * rng.standard_normal(64)
        assert sdr(ref, est) == pytest.approx(sdr(10 * ref, 10 * est), abs=1e-9)


class TestEstimateDecay:
    @pytest.mark.parametrize("t60", [0.1, 0.3, 0.6])
    def test_recovers_exponential_decay(self, t60):
        # Amplitude exp(-ln(1000) t / T60) drops 60 dB in energy at t = T60,
        # so the Schroeder fit must return T60 itself.
        fs = 8000.0
        t = np.arange(int(1.2 * fs)) / fs
        x = np.exp(-np.log(1000.0) * t / t60)
        assert abs(estimate_decay(x, fs) - t60) / t60 < 0.02

    def test_slope_matches_theory(self):
        fs = 4000.0
        t60 = 0.25
        t = np.arange(int(fs)) / fs
        x = np.exp(-np.log(1000.0) * t / t60)
        slope_db_per_s = -60.0 / estimate_decay(x, fs)
        assert slope_db_per_s == pytest.approx(-60.0 / t60, rel=0.02)

    def test_noisy_carrier_within_tolerance(self):
        rng = np.random.default_rng(8)
        fs = 8000.0
        t60 = 0.3
        t = np.arange(int(fs)) / fs
        x = rng.standard_normal(t.size) * np.exp(-np.log(1000.0) * t / t60)
        assert abs(estimate_decay(x, fs) - t60) / t60 < 0.1

    def test_too_short_marked_invalid(self):
        assert np.isnan(estimate_decay(np.array([1.0, 0.5]), 8000.0))

    def test_flat_fit_marked_invalid(self, monkeypatch):
        # A slope of 0 or more is no decay. The Schroeder curve never rises, so
        # only rounding in a fit could give one: the fit is stubbed.
        monkeypatch.setattr(np, "polyfit", lambda t, y, deg: (0.0, float(y[0])))
        assert np.isnan(estimate_decay(np.array([1.0, 0.5, 0.25, 0.1]), 8000.0))

    @pytest.mark.parametrize("zeros", [1, 2, 3, 4, 5])
    def test_flat_span_marked_invalid(self, zeros):
        # The span holds only -20 dB values; its fitted slope is rounding noise
        # of either sign, which read as a T60 of 8.4e12 s with one zero and of
        # 4.1e14 s with five.
        x = np.array([1.0] + [0.0] * zeros + [0.1])
        assert np.isnan(estimate_decay(x, 8000.0))

    def test_non_1d_rejected(self):
        with pytest.raises(ShapeError, match="expected a 1-D signal"):
            estimate_decay(np.ones((2, 100)), 8000.0)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValidationError):
            estimate_decay(np.zeros(100), 8000.0)

    def test_bad_fs_rejected(self):
        with pytest.raises(ValidationError):
            estimate_decay(np.ones(100), 0.0)
