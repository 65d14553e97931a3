"""Tests for the CFM loss: its straight-path states, target, tau checks and gradients."""

import numpy as np
import pytest

from flowbridge.exceptions import ShapeError, ValidationError
from flowbridge.nn import ModelConfig, VectorFieldModel
from flowbridge.nn.autodiff import no_grad
from flowbridge.training import Coupling, cfm_loss


def _model(n=8, cond_dim=0, dtype="float64", seed=0):
    cfg = ModelConfig(signal_length=n, hidden=12, depth=2, cond_dim=cond_dim, dtype=dtype)
    return VectorFieldModel(cfg, np.random.default_rng(seed))


def _coupling(rng, b=4, n=8, cond_dim=0):
    x0 = rng.standard_normal((b, n)).astype(np.float32)
    x1 = rng.standard_normal((b, n)).astype(np.float32)
    cond = None if cond_dim == 0 else rng.standard_normal((b, cond_dim)).astype(np.float32)
    return Coupling(x0, x1, cond)


class TestCfmLoss:
    def test_zero_init_model_loss_equals_target_power(self):
        # v = 0 at init, so the loss is exactly mean(u^2).
        rng = np.random.default_rng(6)
        c = _coupling(rng)
        model = _model()
        with no_grad():
            loss = cfm_loss(model, c, 0.5)
        u = (c.x1 - c.x0).astype(np.float64)
        assert abs(loss - float(np.mean(u**2))) < 1e-12

    def test_no_grad_returns_the_taped_loss_and_leaves_no_gradients(self):
        rng = np.random.default_rng(12)
        c = _coupling(rng, cond_dim=2)
        model = _model(cond_dim=2, seed=4)
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.standard_normal(p.data.shape)
        tau = rng.random(4)
        drop = np.array([False, True, False, False])
        model.zero_grad()
        with no_grad():
            untaped = cfm_loss(model, c, tau, drop_condition=drop)
        assert all(p.grad is None for p in model.parameters())
        taped = cfm_loss(model, c, tau, drop_condition=drop)
        assert type(untaped) is float and untaped == taped
        assert any(p.grad is not None for p in model.parameters())

    def test_gradients_populated(self):
        rng = np.random.default_rng(7)
        c = _coupling(rng)
        model = _model()
        model.zero_grad()
        cfm_loss(model, c, rng.random(4))
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, "backward pass left no gradients"
        assert any(float(np.abs(g).max()) > 0 for g in grads)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        c = _coupling(rng, cond_dim=2)
        model = _model(cond_dim=2, seed=1)
        for p in model.parameters():
            p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
        tau = rng.random(4)
        model.zero_grad()
        cfm_loss(model, c, tau)
        name = "block0_w1"
        p = model.params[name]
        idx = (0, 0)
        h = 1e-6
        orig = p.data[idx]
        with no_grad():
            p.data[idx] = orig + h
            up = cfm_loss(model, c, tau)
            p.data[idx] = orig - h
            down = cfm_loss(model, c, tau)
        p.data[idx] = orig
        fd = (up - down) / (2 * h)
        assert abs(fd - p.grad[idx]) / max(abs(fd), 1e-8) < 1e-4

    def test_condition_dropout_routes_to_null_branch(self):
        # Dropped rows must produce the same prediction as a truly absent
        # condition.
        rng = np.random.default_rng(9)
        c = _coupling(rng, b=2, cond_dim=2)
        model = _model(cond_dim=2, seed=2)
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.standard_normal(p.data.shape)
        tau = np.array([0.4, 0.4])
        drop = np.array([False, True])
        w = tau[:, None].astype(np.float32)
        xt = (1.0 - w) * c.x0 + w * c.x1
        with no_grad():
            v_drop = model.forward(xt, tau, c.condition, drop=drop).data
            loss_drop = cfm_loss(model, c, tau, drop_condition=drop)
        u = (c.x1 - c.x0).astype(np.float64)
        assert abs(loss_drop - float(np.mean((v_drop - u) ** 2))) <= 1e-12

    def test_presence_defaults_to_the_condition(self):
        # Without dropout every row of a conditioned coupling is present and
        # every row of an unconditioned one trains through the null branch.
        rng = np.random.default_rng(11)
        model = _model(cond_dim=2, seed=3)
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.standard_normal(p.data.shape)
        tau = np.array([0.2, 0.7])
        w = tau[:, None].astype(np.float32)
        for cond_dim in (2, 0):
            c = _coupling(rng, b=2, cond_dim=cond_dim)
            with no_grad():
                xt = (1.0 - w) * c.x0 + w * c.x1
                v = model.forward(xt, tau, c.condition).data
                loss = cfm_loss(model, c, tau)
            assert loss == float(np.mean((v - (c.x1 - c.x0).astype(np.float64)) ** 2))

    def test_forward_sees_the_straight_path_states(self, monkeypatch):
        # tau = 0 feeds exactly x0, tau = 1 exactly x1, and a per-row tau
        # feeds (1 - tau_i) * x0_i + tau_i * x1_i.
        rng = np.random.default_rng(13)
        c = _coupling(rng, b=3)
        model = _model()
        seen = []
        forward = model.forward

        def spy(xt, tau, condition, drop):
            seen.append((xt, tau))
            return forward(xt, tau, condition, drop=drop)

        monkeypatch.setattr(model, "forward", spy)
        taus = np.array([0.0, 0.3, 1.0])
        with no_grad():
            cfm_loss(model, c, 0.0)
            cfm_loss(model, c, 1.0)
            cfm_loss(model, c, taus)
        (x_at0, t0), (x_at1, t1), (x_mix, t_mix) = seen
        assert np.array_equal(x_at0, c.x0) and np.array_equal(t0, np.zeros(3))
        assert np.array_equal(x_at1, c.x1) and np.array_equal(t1, np.ones(3))
        assert np.array_equal(t_mix, taus)
        for i, t in enumerate(taus):
            w = np.float32(t)
            assert np.array_equal(x_mix[i], (1.0 - w) * c.x0[i] + w * c.x1[i])

    @pytest.mark.parametrize("tau", [1.5, -0.2, np.nan, np.array([0.5, np.nan, 0.5, 0.5])])
    def test_rejects_tau_out_of_range(self, tau):
        rng = np.random.default_rng(14)
        c = _coupling(rng)
        with pytest.raises(ValidationError):
            cfm_loss(_model(), c, tau)

    @pytest.mark.parametrize("tau", [np.full(3, 0.5), np.full((4, 1), 0.5)])
    def test_rejects_misshaped_tau(self, tau):
        rng = np.random.default_rng(15)
        c = _coupling(rng)
        with pytest.raises(ShapeError):
            cfm_loss(_model(), c, tau)

    def test_drop_mask_shape_checked(self):
        rng = np.random.default_rng(10)
        c = _coupling(rng, cond_dim=2)
        model = _model(cond_dim=2)
        with pytest.raises(ShapeError):
            cfm_loss(model, c, 0.5, drop_condition=np.array([True]))

    def test_loss_decreases_under_training(self):
        from flowbridge.nn import Adam

        rng = np.random.default_rng(11)
        c = _coupling(rng, b=8, n=8)
        model = _model(dtype="float32", seed=3)
        opt = Adam(model.parameters(), lr=1e-2)
        with no_grad():
            first = cfm_loss(model, c, 0.5)
        for _ in range(60):
            model.zero_grad()
            cfm_loss(model, c, 0.5)
            opt.step()
        with no_grad():
            last = cfm_loss(model, c, 0.5)
        assert last < 0.5 * first
