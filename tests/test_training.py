"""Tests for the training loop."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from flowbridge import training
from flowbridge.exceptions import ConfigError, TrainingDivergedError, ValidationError
from flowbridge.nn import ModelConfig, VectorFieldModel
from flowbridge.tasks import TaskSpec
from flowbridge.training import TrainConfig, train


def _small(iterations=30, **kw):
    defaults = dict(iterations=iterations, batch_size=16, lr=1e-3, log_every=10, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def _planar_model(cond_dim=0, seed_independent_of=None):
    return ModelConfig(signal_length=2, hidden=16, depth=2, cond_dim=cond_dim)


class TestTrainConfig:
    def test_chunked_requires_chunk_size(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=10, coupling="chunked_ot")

    def test_sinkhorn_requires_epsilon(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=10, coupling="chunked_ot", chunk_size=2, ot_method="sinkhorn")

    @pytest.mark.parametrize(
        "fields, needle",
        [
            (dict(chunk_size=2), "chunk_size only applies"),
            (dict(ot_method="sinkhorn", sinkhorn_epsilon=0.5), "sinkhorn ot_method only applies"),
            (dict(coupling="chunked_ot", chunk_size=2, sinkhorn_epsilon=0.5),
             "sinkhorn_epsilon only applies"),
            (dict(sinkhorn_epsilon=0.5), "sinkhorn_epsilon only applies"),
        ],
    )
    def test_rejects_fields_the_coupling_ignores(self, fields, needle):
        with pytest.raises(ConfigError, match=needle):
            TrainConfig(iterations=5, **fields)

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(iterations=5, seed=-1)
        with pytest.raises(ConfigError):
            TrainConfig(iterations=5, cond_dropout=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(iterations=5, coupling="sorted")
        with pytest.raises(ConfigError, match="unknown ot_method"):
            TrainConfig(iterations=5, coupling="chunked_ot", chunk_size=2, ot_method="emd2")
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

    def test_conditional_training_golden_digest(self):
        """A short conditional training with condition dropout gives bit for bit
        the loss history and parameters it has always given: a forward in
        training builds the context per row, whatever sampling shares."""
        cfg = _small(iterations=20, log_every=1, cond_dropout=0.2)
        result = train(_planar_model(cond_dim=1), TaskSpec("cond_ring"), cfg)
        h = hashlib.sha256()
        h.update(np.array([loss for _, loss in result.history]).tobytes())
        for name, p in result.model.params.items():
            h.update(name.encode())
            h.update(p.data.tobytes())
        assert len(result.history) == 20
        assert h.hexdigest() == "bce97316be7a7c7d957ff186e917a818b94501aaee139ecfe689e3abecf3da50"

    def test_all_rows_dropped_training_golden_digest(self):
        """With cond_dropout=1.0 every step drops every row, so cond_w and cond_b
        never get a gradient: Adam skips them, they keep their initial bytes, and
        the loss history and parameters are bit for bit what they have always been."""
        mc = _planar_model(cond_dim=1)
        cfg = _small(iterations=20, log_every=1, cond_dropout=1.0)
        result = train(mc, TaskSpec("cond_ring"), cfg)
        h = hashlib.sha256()
        h.update(np.array([loss for _, loss in result.history]).tobytes())
        for name, p in result.model.params.items():
            h.update(name.encode())
            h.update(p.data.tobytes())
        assert len(result.history) == 20
        assert h.hexdigest() == "7a19d909e47722c7a139efe04a98e239c2f83900f34c65bfca58e6ce47b66873"
        # The model-init stream is the first child of the seed (see train's docstring).
        init_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(5)[0])
        init = VectorFieldModel(mc, init_rng)
        for name in ("cond_w", "cond_b"):
            assert result.model.params[name].data.tobytes() == init.params[name].data.tobytes()
        assert result.model.params["null_cond"].data.tobytes() != init.params["null_cond"].data.tobytes()

    def test_conv_sinkhorn_training_golden_digest(self):
        """A short conv-backbone reverb training under Sinkhorn chunked OT gives
        bit for bit the loss history and parameters it has always given: it
        pins conv1d (both one-channel convs included), the Sinkhorn solver and
        the tape walk."""
        cfg = _small(iterations=10, batch_size=8, log_every=1, coupling="chunked_ot",
                     chunk_size=16, ot_method="sinkhorn", sinkhorn_epsilon=1.0)
        mc = ModelConfig(signal_length=64, backbone="conv", hidden=8, depth=2, kernel_size=5,
                         cond_dim=2)
        result = train(mc, TaskSpec("toy_signal", n=64, degradation="reverb"), cfg)
        h = hashlib.sha256()
        h.update(np.array([loss for _, loss in result.history]).tobytes())
        for name, p in result.model.params.items():
            h.update(name.encode())
            h.update(p.data.tobytes())
        assert len(result.history) == 10
        assert h.hexdigest() == "fe3fa8b7f4147fff48f3b31acfae44cf54e34851dfdcefdf960f138b6fb0cc15"

    @pytest.mark.parametrize("switch_s", [None, 1e-6], ids=["default_switch", "switch_1us"])
    def test_exact_ot_training_golden_digest(self, switch_s):
        """A short 8-Gaussian training under exact chunked OT gives bit for bit
        the loss history and parameters of the serial loop: the coupling made
        a step ahead on the worker reads the data and coupling streams in the
        same order, also when the interpreter switches threads every 1 µs."""
        cfg = _small(iterations=30, batch_size=64, log_every=1, coupling="chunked_ot", chunk_size=2)
        default_switch_s = sys.getswitchinterval()
        try:
            sys.setswitchinterval(switch_s or default_switch_s)
            result = train(_planar_model(), TaskSpec("eight_gaussians"), cfg)
        finally:
            sys.setswitchinterval(default_switch_s)
        h = hashlib.sha256()
        h.update(np.array([loss for _, loss in result.history]).tobytes())
        for name, p in result.model.params.items():
            h.update(name.encode())
            h.update(p.data.tobytes())
        assert len(result.history) == 30
        assert h.hexdigest() == "14a6512f6b1dff8bb733247f673c85d9006384baeca96c445510f5b84a5b6581"

    @pytest.mark.parametrize("coupling", ["independent", "chunked_ot"])
    @pytest.mark.parametrize("iterations", [1, 2, 7])
    def test_one_coupling_per_iteration(self, monkeypatch, coupling, iterations):
        """Wrappers on the module's coupling names, as the benchmark sets them,
        see exactly one call per iteration; only a chunked-OT run of more than
        one iteration hands couplings to the worker."""
        calls = []
        for attr in ("couple_chunked_ot", "couple_independent"):
            orig = getattr(training, attr)

            def counted(*args, _orig=orig, _attr=attr, **kwargs):
                calls.append(_attr)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(training, attr, counted)
        submits = []
        orig_submit = ThreadPoolExecutor.submit

        def submit(pool, *args, **kwargs):
            submits.append(args[0])
            return orig_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
        kw = dict(coupling="chunked_ot", chunk_size=2) if coupling == "chunked_ot" else {}
        train(_planar_model(), TaskSpec("eight_gaussians"), _small(iterations=iterations, **kw))
        expected = "couple_chunked_ot" if coupling == "chunked_ot" else "couple_independent"
        assert calls == [expected] * iterations
        assert len(submits) == (iterations - 1 if coupling == "chunked_ot" else 0)

    def test_no_worker_thread_outlives_train(self, monkeypatch):
        """The worker is joined on a normal return, on divergence and on a
        coupling error raised on the worker, which reaches the caller."""
        ot_cfg = dict(coupling="chunked_ot", chunk_size=2)
        before = threading.active_count()
        train(_planar_model(), TaskSpec("eight_gaussians"), _small(iterations=5, **ot_cfg))
        assert threading.active_count() == before
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDivergedError):
            train(_planar_model(), TaskSpec("eight_gaussians"), _small(iterations=200, lr=1e30, **ot_cfg))
        assert threading.active_count() == before
        # An epsilon lost beside the cost scale fails the first coupling.
        cfg = _small(iterations=5, ot_method="sinkhorn", sinkhorn_epsilon=5e-324, **ot_cfg)
        with pytest.raises(ValidationError) as exc:
            train(_planar_model(), TaskSpec("eight_gaussians"), cfg)
        assert str(exc.value) == "epsilon 4.94066e-324 is below float64 resolution at max cost 20.7534"
        assert threading.active_count() == before

        caller = threading.get_ident()
        orig = training.couple_chunked_ot
        threads = []

        def failing(*args, **kwargs):
            threads.append(threading.get_ident())
            if len(threads) == 3:
                raise ValidationError("coupling failed on the worker")
            return orig(*args, **kwargs)

        monkeypatch.setattr(training, "couple_chunked_ot", failing)
        with pytest.raises(ValidationError, match="coupling failed on the worker"):
            train(_planar_model(), TaskSpec("eight_gaussians"), _small(iterations=5, **ot_cfg))
        assert threads[0] == caller and threads[2] != caller
        assert threading.active_count() == before

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
