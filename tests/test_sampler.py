"""Tests for schedules, ODE integration, and the encode/decode bridge."""

import hashlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from flowbridge.cli import main
from flowbridge.exceptions import DivergenceError, ShapeError, ValidationError
from flowbridge.nn import ModelConfig, VectorFieldModel
from flowbridge.sampler import (
    SCHEDULES,
    TimeSchedule,
    Trajectory,
    gfb_transfer,
    integrate,
    schedule_raised_cosine,
    schedule_uniform,
)


class _FieldStub:
    """Duck-typed model whose velocity is a supplied function of (x, tau)."""

    def __init__(self, fn):
        self.fn = fn
        self.config = SimpleNamespace(np_dtype=np.float64, cond_dim=1)
        self.calls_cond = 0
        self.calls_null = 0

    def velocity(self, x, tau, condition=None):
        if condition is None:
            self.calls_null += 1
        else:
            self.calls_cond += 1
        return self.fn(x, tau)


def _decay_field(rate):
    return _FieldStub(lambda x, tau: rate * x)


class TestSchedules:
    @pytest.mark.parametrize("name,steps", [("uniform", 7), ("raised_cosine", 25), ("quadratic", 25)])
    def test_schedule_table(self, name, steps, tmp_path, capsys):
        if name in SCHEDULES:
            s = SCHEDULES[name](steps)
            assert s.n_steps == steps
            assert s.taus[0] == 0.0 and s.taus[-1] == 1.0
            return
        # The CLI takes its --schedule choices from the table.
        rc = main(["eval", "--checkpoint", str(tmp_path / "m.fbc"), "--out", str(tmp_path),
                   "--schedule", name, "--steps", str(steps)])
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_uniform_spacing(self):
        s = schedule_uniform(4)
        assert np.allclose(s.taus, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert s.n_steps == 4

    def test_raised_cosine_matches_formula(self):
        t = 25
        s = schedule_raised_cosine(t)
        i = np.arange(t + 1)
        want = 0.5 + 0.5 * np.cos(np.pi * i / t + np.pi)
        assert np.array_equal(s.taus, want)

    def test_raised_cosine_endpoints_exact(self):
        for t in (1, 2, 10, 25, 100):
            s = schedule_raised_cosine(t)
            assert s.taus[0] == 0.0
            assert s.taus[-1] == 1.0

    def test_raised_cosine_dense_near_endpoints(self):
        s = schedule_raised_cosine(20)
        d = np.diff(s.taus)
        assert d[0] < d[10]
        assert d[-1] < d[10]
        # symmetric about the midpoint
        assert np.allclose(d, d[::-1], atol=1e-15)

    def test_rejects_bad_schedules(self):
        with pytest.raises(ValidationError):
            TimeSchedule(np.array([0.0, 0.5, 0.9]))
        with pytest.raises(ValidationError):
            TimeSchedule(np.array([0.0, 0.6, 0.4, 1.0]))
        with pytest.raises(ValidationError):
            TimeSchedule(np.array([1.0]))
        with pytest.raises(ValidationError):
            schedule_uniform(0)

    @pytest.mark.parametrize("builder", [schedule_uniform, schedule_raised_cosine])
    @pytest.mark.parametrize("n_steps", [True, 3.0, 2.5, "3"])
    def test_step_count_must_be_an_integer(self, builder, n_steps):
        with pytest.raises(ValidationError, match="n_steps must be an integer, got"):
            builder(n_steps)

    @pytest.mark.parametrize("builder,digest", [
        (schedule_uniform, "4f29ffad8f4a9744"),
        (schedule_raised_cosine, "1ba5a27d78b4560b"),
    ])
    def test_valid_step_counts_keep_their_bits(self, builder, digest):
        h = hashlib.sha256()
        for n in range(1, 65):
            taus = builder(n).taus
            assert np.array_equal(builder(np.int64(n)).taus, taus)
            h.update(taus.tobytes())
        assert h.hexdigest()[:16] == digest


class TestIntegrate:
    def test_velocity_record_past_numpys_array_limit_is_refused(self):
        # A schedule of 2**58 steps cannot be allocated, so a stub stands in for one:
        # its 2**58 x 4 x 2 record would pass numpy's array-size limit.
        schedule = SimpleNamespace(taus=np.array([0.0, 1.0]), n_steps=2**58)
        with pytest.raises(ValidationError, match=r"pass the 2\*\*60-value limit"):
            integrate(_decay_field(-1.0), np.ones((4, 2)), schedule)

    def test_euler_matches_hand_rolled_steps(self):
        model = _decay_field(-1.0)
        x0 = np.array([[2.0, -1.0]])
        s = schedule_uniform(4)
        traj = integrate(model, x0, s, method="euler")
        x = x0.copy()
        for _ in range(4):
            x = x + 0.25 * (-1.0 * x)
        assert np.allclose(traj.final, x, atol=1e-15)

    def test_exponential_decay_accuracy(self):
        # dx/dtau = -x from x(0)=1 gives x(1) = 1/e.
        x0 = np.ones((1, 1))
        want = np.exp(-1.0)
        err_euler = abs(
            float(integrate(_decay_field(-1.0), x0, schedule_uniform(64)).final[0, 0]) - want
        )
        err_mid = abs(
            float(integrate(_decay_field(-1.0), x0, schedule_uniform(64), method="midpoint").final[0, 0])
            - want
        )
        assert err_euler < 3e-3
        assert err_mid < 5e-5
        assert err_mid < err_euler

    def test_convergence_orders(self):
        # Halving the step should roughly halve Euler error and quarter
        # midpoint error.
        x0 = np.ones((1, 1))
        want = np.exp(-1.0)

        def err(method, t):
            traj = integrate(_decay_field(-1.0), x0, schedule_uniform(t), method=method)
            return abs(float(traj.final[0, 0]) - want)

        r_euler = err("euler", 16) / err("euler", 32)
        r_mid = err("midpoint", 16) / err("midpoint", 32)
        assert 1.7 < r_euler < 2.3
        assert 3.4 < r_mid < 4.6

    def test_recorded_velocities_replay_to_final(self):
        # Replaying x += dt * velocities[k] from start must land on final
        # exactly for both methods, because the recorded field is the one
        # applied.
        model = _decay_field(-0.7)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((3, 5))
        for method in ("euler", "midpoint"):
            traj = integrate(model, x0, schedule_uniform(8), method=method)
            assert np.array_equal(traj.start, x0)
            x = traj.start
            for k in range(traj.n_steps):
                x = x + (traj.taus[k + 1] - traj.taus[k]) * traj.velocities[k]
            assert np.array_equal(x, traj.final)

    def test_backward_visits_reversed_times(self):
        model = _decay_field(-1.0)
        s = schedule_raised_cosine(6)
        traj = integrate(model, np.ones((1, 2)), s, direction="backward")
        assert np.array_equal(traj.taus, s.taus[::-1])

    def test_backward_inverts_forward_in_small_step_limit(self):
        model = _decay_field(-1.0)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((2, 3))
        s = schedule_uniform(256)
        fwd = integrate(model, x0, s, method="midpoint")
        back = integrate(model, fwd.final, s, direction="backward", method="midpoint")
        assert np.allclose(back.final, x0, atol=1e-4)

    def test_divergence_raises_with_step_index(self):
        bad = _FieldStub(lambda x, tau: np.full_like(x, np.inf))
        with pytest.raises(DivergenceError) as exc:
            integrate(bad, np.ones((1, 2)), schedule_uniform(4))
        assert exc.value.step == 0

    def test_nan_also_detected(self):
        # Diverge only after tau crosses 0.5.
        def fn(x, tau):
            return np.where(tau > 0.5, np.nan, 1.0) * np.ones_like(x)

        with pytest.raises(DivergenceError) as exc:
            integrate(_FieldStub(fn), np.ones((1, 2)), schedule_uniform(4))
        assert exc.value.step == 3

    def test_guidance_branch_evaluation_counts(self):
        cond = np.zeros((1, 1), dtype=np.float32)
        for gamma, want_cond, want_null in [(1.0, 4, 0), (0.0, 0, 4), (0.5, 4, 4)]:
            stub = _decay_field(-1.0)
            integrate(stub, np.ones((1, 2)), schedule_uniform(4), condition=cond, gamma=gamma)
            assert (stub.calls_cond, stub.calls_null) == (want_cond, want_null), gamma

        stub = _decay_field(-1.0)
        integrate(stub, np.ones((1, 2)), schedule_uniform(4), condition=None)
        assert (stub.calls_cond, stub.calls_null) == (0, 4)

    @pytest.mark.parametrize("gamma,weights", [(1.0, (1, 0)), (0.0, (0, 1)), (2.0, (2, -1))])
    def test_guided_field_blends_the_branches(self, gamma, weights):
        # The conditional branch returns a, the null branch b: one Euler step
        # applies gamma * a + (1 - gamma) * b.
        a, b = np.array([[1.5, -2.0]]), np.array([[0.25, 4.0]])
        stub = SimpleNamespace(
            config=SimpleNamespace(np_dtype=np.float64, cond_dim=1),
            velocity=lambda x, tau, condition=None: b if condition is None else a,
        )
        cond = np.zeros((1, 1), dtype=np.float32)
        traj = integrate(stub, np.zeros((1, 2)), schedule_uniform(1), condition=cond, gamma=gamma)
        assert np.array_equal(traj.velocities[0], weights[0] * a + weights[1] * b)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_rejects_non_finite_start(self, direction):
        stub = _decay_field(-1.0)
        start = np.ones((2, 3))
        start[1, 2] = np.nan
        with pytest.raises(ValidationError):
            integrate(stub, start, schedule_uniform(4), direction=direction)
        assert stub.calls_null == 0

    @pytest.mark.parametrize(
        "cond_value,gamma",
        [(np.nan, 1.0), (np.inf, 0.5), (0.0, np.inf), (0.0, np.nan)],
    )
    def test_rejects_non_finite_condition_or_gamma_before_any_step(self, cond_value, gamma):
        stub = _decay_field(-1.0)
        cond = np.array([[0.0], [cond_value]])
        with pytest.raises(ValidationError, match="condition|gamma"):
            integrate(stub, np.ones((2, 3)), schedule_uniform(4), condition=cond, gamma=gamma)
        assert stub.calls_cond == stub.calls_null == 0

    def test_rejects_gamma_that_overflows_the_model_dtype(self):
        # 1e39 is finite in float64 but not in float32, the dtype of the blend.
        stub = _decay_field(-1.0)
        stub.config.np_dtype = np.float32
        cond = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValidationError, match="gamma .*float32"):
            integrate(stub, np.ones((1, 2)), schedule_uniform(4), condition=cond, gamma=1e39)
        assert stub.calls_cond == stub.calls_null == 0

    def test_overflowing_guided_step_is_a_divergence(self):
        # 2 * 3e38 overflows float32 in the blend; the step reports it.
        stub = _FieldStub(lambda x, tau: np.full(x.shape, 3e38, dtype=np.float32))
        stub.config.np_dtype = np.float32
        cond = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(DivergenceError) as exc:
            integrate(stub, np.zeros((1, 2)), schedule_uniform(4), condition=cond, gamma=2.0)
        assert exc.value.step == 0

    def test_overflowing_network_is_a_divergence_without_a_warning(self):
        # Every parameter shifted by 1e20 overflows float32 in the first matmul.
        model = VectorFieldModel(ModelConfig(signal_length=2, hidden=8, depth=1),
                                 np.random.default_rng(0))
        for p in model.parameters():
            p.data += 1e20
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as exc:
                integrate(model, np.ones((4, 2)), schedule_uniform(4), direction="backward")
        assert exc.value.step == 0

    def test_rejects_condition_that_overflows_the_model_dtype(self):
        cfg = ModelConfig(signal_length=2, hidden=4, depth=1, cond_dim=1, dtype="float32")
        model = VectorFieldModel(cfg, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="condition .*float32"):
            integrate(model, np.zeros((1, 2)), schedule_uniform(2), condition=np.array([[1e300]]))

    def test_rejects_start_that_overflows_the_model_dtype(self):
        cfg = ModelConfig(signal_length=2, hidden=4, depth=1, dtype="float32")
        model = VectorFieldModel(cfg, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="float32"):
            integrate(model, np.array([[1e300, 0.0]]), schedule_uniform(2))

    def test_rejects_bad_inputs(self):
        model = _decay_field(-1.0)
        with pytest.raises(ShapeError):
            integrate(model, np.ones(3), schedule_uniform(2))
        with pytest.raises(ValidationError):
            integrate(model, np.ones((1, 3)), schedule_uniform(2), method="rk4")
        with pytest.raises(ValidationError):
            integrate(model, np.ones((1, 3)), schedule_uniform(2), direction="sideways")

    def test_real_model_deterministic(self):
        cfg = ModelConfig(signal_length=6, hidden=8, depth=1, dtype="float32")
        model = VectorFieldModel(cfg, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for p in model.parameters():
            p.data = (p.data + 0.1 * rng.standard_normal(p.data.shape)).astype(np.float32)
        x0 = rng.standard_normal((2, 6)).astype(np.float32)
        a = integrate(model, x0, schedule_raised_cosine(10))
        b = integrate(model, x0, schedule_raised_cosine(10))
        assert np.array_equal(a.velocities, b.velocities)
        assert np.array_equal(a.final, b.final)


class TestTrajectory:
    def test_shape_consistency_enforced(self):
        ok = dict(
            start=np.zeros((2, 3)),
            final=np.zeros((2, 3)),
            velocities=np.zeros((4, 2, 3)),
            taus=np.linspace(0, 1, 5),
        )
        Trajectory(**ok)
        for key, bad in [
            ("velocities", np.zeros((3, 2, 3))),
            ("start", np.zeros((3, 3))),
            ("final", np.zeros((2, 4))),
            ("taus", np.linspace(0, 1, 4)),
        ]:
            with pytest.raises(ShapeError):
                Trajectory(**{**ok, key: bad})


class TestBridge:
    def _model(self, cond_dim=1):
        cfg = ModelConfig(
            signal_length=4, hidden=8, depth=1, cond_dim=cond_dim, dtype="float32"
        )
        model = VectorFieldModel(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        for p in model.parameters():
            p.data = (p.data + 0.1 * rng.standard_normal(p.data.shape)).astype(np.float32)
        return model

    def test_encode_is_unconditional(self):
        stub = _decay_field(-1.0)
        cond = np.zeros((1, 1), dtype=np.float32)
        result = gfb_transfer(stub, np.ones((1, 2)), schedule_uniform(3), cond, gamma=1.0)
        # 3 null calls from encode, 3 conditional calls from decode.
        assert (stub.calls_null, stub.calls_cond) == (3, 3)
        assert np.array_equal(result.decode.start, result.latent)
        assert np.array_equal(result.encode.final, result.latent)

    def test_latent_independent_of_condition(self):
        model = self._model()
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 4)).astype(np.float32)
        s = schedule_raised_cosine(8)
        r1 = gfb_transfer(model, x, s, np.full((2, 1), 0.3, dtype=np.float32), gamma=1.0)
        r2 = gfb_transfer(model, x, s, np.full((2, 1), -0.9, dtype=np.float32), gamma=1.0)
        assert np.array_equal(r1.latent, r2.latent)
        assert not np.array_equal(r1.output, r2.output)

    def test_gamma_changes_output(self):
        model = self._model()
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 4)).astype(np.float32)
        s = schedule_raised_cosine(8)
        cond = np.full((2, 1), 0.5, dtype=np.float32)
        outs = [gfb_transfer(model, x, s, cond, gamma=g).output for g in (0.0, 1.0, 2.0)]
        assert not np.array_equal(outs[0], outs[1])
        assert not np.array_equal(outs[1], outs[2])

    @pytest.mark.parametrize("cond_value,gamma", [(np.nan, 1.0), (0.0, np.inf), (0.0, 1e39)])
    def test_decode_inputs_checked_before_the_encode_leg(self, cond_value, gamma):
        stub = _decay_field(-1.0)
        stub.config.np_dtype = np.float32
        cond = np.full((2, 1), cond_value)
        with pytest.raises(ValidationError, match="condition|gamma"):
            gfb_transfer(stub, np.ones((2, 2)), schedule_uniform(4), cond, gamma=gamma)
        assert stub.calls_cond == stub.calls_null == 0

    @pytest.mark.parametrize(
        "cond_dim,rows,width",
        [(1, 4, 2), (1, 3, 1), (0, 4, 1)],
        ids=["wrong-width", "wrong-rows", "unconditional-model"],
    )
    def test_misfit_condition_refused_before_the_encode_leg(
        self, monkeypatch, cond_dim, rows, width
    ):
        cfg = ModelConfig(signal_length=2, hidden=8, depth=1, cond_dim=cond_dim)
        model = VectorFieldModel(cfg, np.random.default_rng(0))
        calls = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
        cond = np.zeros((rows, width))
        with pytest.raises(ValidationError, match="condition"):
            gfb_transfer(model, np.ones((4, 2)), schedule_raised_cosine(25), cond)
        assert calls == []

    def test_guided_bridge_golden_digest(self):
        """Bridging with a seeded, perturbed conditional MLP gives bit for bit
        the outputs, latents and both legs' velocities it has always given,
        under a shared and a per-row condition at gamma 0, 1 and 1.5."""
        cfg = ModelConfig(signal_length=2, hidden=16, depth=2, cond_dim=1)
        model = VectorFieldModel(cfg, np.random.default_rng(31))
        rng = np.random.default_rng(32)
        for p in model.parameters():
            p.data = (p.data + 0.1 * rng.standard_normal(p.data.shape)).astype(np.float32)
        x = rng.standard_normal((16, 2)).astype(np.float32)
        shared = np.full((16, 1), 0.8, dtype=np.float32)
        per_row = np.linspace(0.5, 1.5, 16, dtype=np.float32)[:, None]
        h = hashlib.sha256()
        for cond in (shared, per_row):
            for gamma in (0.0, 1.0, 1.5):
                r = gfb_transfer(model, x, schedule_raised_cosine(6), cond, gamma=gamma)
                for a in (r.output, r.latent, r.encode.velocities, r.decode.velocities):
                    h.update(a.tobytes())
        assert h.hexdigest() == "e6566f55a2e90db0f7df3a8fa9c934e335e2eef380f028191f30cbb381e7b024"

    @pytest.mark.parametrize("per_row", [False, True])
    def test_decode_context_rows(self, per_row, monkeypatch):
        # A condition shared by the batch builds every context on one row; a
        # per-row condition builds the conditional contexts on all B rows.
        model = self._model()
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        cond = np.full((6, 1), 0.5, dtype=np.float32)
        if per_row:
            cond[:, 0] = np.linspace(-1.0, 1.0, 6)
        built = []
        context = model._context

        def spy(tau, condition, present):
            built.append((condition is not None, tau.shape[0]))
            return context(tau, condition, present)

        monkeypatch.setattr(model, "_context", spy)
        gfb_transfer(model, x, schedule_raised_cosine(4), cond, gamma=1.5)
        # 4 encode calls, then 4 decode steps of a null and a conditional call.
        assert len(built) == 12
        cond_rows = {rows for has_cond, rows in built if has_cond}
        assert {rows for has_cond, rows in built if not has_cond} == {1}
        assert cond_rows == ({6} if per_row else {1})
