"""Tests for the training loop."""

import numpy as np
import pytest

from flowbridge.exceptions import ConfigError, TrainingDivergedError
from flowbridge.nn import ModelConfig
from flowbridge.tasks import TaskSpec
from flowbridge.training import TrainConfig, train


def _small(iterations=30, **kw):
    defaults = dict(iterations=iterations, batch_size=16, lr=1e-3, log_every=10, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def _planar_model(cond_dim=0, seed_independent_of=None):
    return ModelConfig(signal_length=2, hidden=16, depth=2, cond_dim=cond_dim, cond_embed=8)


class TestTrainConfig:
    def test_chunked_requires_chunk_size(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=10, coupling="chunked_ot")

    def test_sinkhorn_requires_epsilon(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=10, coupling="chunked_ot", chunk_size=2, ot_method="sinkhorn")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(iterations=5, seed=-1)
        with pytest.raises(ConfigError):
            TrainConfig(iterations=5, cond_dropout=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(iterations=5, coupling="sorted")
        for field in ("iterations", "batch_size", "chunk_size", "seed", "log_every"):
            for bad in (2.0, 2.5, True, "2"):
                with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                    TrainConfig(**{"iterations": 5, "coupling": "chunked_ot", "chunk_size": 2,
                                   field: bad})
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainConfig(iterations=5, lr=bad)
            with pytest.raises(ConfigError):
                TrainConfig(iterations=5, coupling="chunked_ot", chunk_size=2,
                            ot_method="sinkhorn", sinkhorn_epsilon=bad)
        for field in ("lr", "sinkhorn_epsilon", "cond_dropout"):
            for bad in (True, False, float("nan"), "0.5", None):
                if field == "sinkhorn_epsilon" and bad is None:
                    continue  # None is the unset epsilon of the exact solver
                with pytest.raises(ConfigError, match=field):
                    TrainConfig(**{"iterations": 5, "coupling": "chunked_ot", "chunk_size": 2,
                                   "ot_method": "sinkhorn", "sinkhorn_epsilon": 0.5, field: bad})


class TestTrain:
    def test_loss_decreases_on_simple_task(self):
        result = train(_planar_model(), TaskSpec("eight_gaussians"), _small(iterations=400))
        first = result.history[0][1]
        assert result.final_loss < 0.7 * first

    def test_history_logging_pattern(self):
        result = train(_planar_model(), TaskSpec("two_moons"), _small(iterations=25))
        its = [it for it, _ in result.history]
        assert its == [1, 10, 20, 25]

    def test_bitwise_reproducible(self):
        cfg = _small(iterations=40, coupling="chunked_ot", chunk_size=2)
        a = train(_planar_model(), TaskSpec("eight_gaussians"), cfg)
        b = train(_planar_model(), TaskSpec("eight_gaussians"), cfg)
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(pa.data, pb.data)
        assert a.history == b.history

    def test_seeds_change_outcome(self):
        a = train(_planar_model(), TaskSpec("two_moons"), _small(seed=0))
        b = train(_planar_model(), TaskSpec("two_moons"), _small(seed=1))
        assert not np.array_equal(a.model.parameters()[0].data, b.model.parameters()[0].data)

    def test_conditional_task_trains(self):
        result = train(_planar_model(cond_dim=1), TaskSpec("cond_ring"), _small(iterations=60))
        assert np.isfinite(result.final_loss)

    def test_coupling_variants_share_data_draws(self):
        # Same seed: the first logged loss differs only through the coupling,
        # both runs must remain finite and comparable in scale.
        indep = train(_planar_model(), TaskSpec("eight_gaussians"), _small(iterations=20))
        chunked = train(
            _planar_model(),
            TaskSpec("eight_gaussians"),
            _small(iterations=20, coupling="chunked_ot", chunk_size=2),
        )
        # OT-coupled targets are shorter on average, so the initial loss
        # (against a zero field) cannot exceed the independent one.
        assert chunked.history[0][1] <= indep.history[0][1] + 1e-6

    def test_mismatched_model_rejected(self):
        with pytest.raises(ConfigError):
            train(
                ModelConfig(signal_length=3, hidden=8, depth=1),
                TaskSpec("two_moons"),
                _small(),
            )
        with pytest.raises(ConfigError):
            train(
                ModelConfig(signal_length=2, hidden=8, depth=1, cond_dim=2),
                TaskSpec("cond_ring"),
                _small(),
            )

    def test_divergence_aborts_with_iteration(self):
        # A learning rate at the float32 overflow edge sends the first
        # updated weights to inf, so the next forward pass goes non-finite
        # and numpy warns of the overflow on the way.
        cfg = _small(iterations=200, lr=1e30)
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDivergedError) as exc:
            train(_planar_model(), TaskSpec("eight_gaussians"), cfg)
        assert 1 <= exc.value.iteration <= 200

    def test_sinkhorn_coupling_runs(self):
        cfg = _small(
            iterations=10, coupling="chunked_ot", chunk_size=2,
            ot_method="sinkhorn", sinkhorn_epsilon=0.5,
        )
        result = train(_planar_model(), TaskSpec("eight_gaussians"), cfg)
        assert len(result.history) > 0
