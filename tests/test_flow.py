"""Tests for path interpolation, the CFM loss, and guidance combination."""

import numpy as np
import pytest

from flowbridge.coupling import Coupling
from flowbridge.exceptions import ShapeError, ValidationError
from flowbridge.flow import cfg_combine, cfm_loss, cfm_target, interpolate
from flowbridge.nn import ModelConfig, VectorFieldModel
from flowbridge.nn.autodiff import no_grad


def _model(n=8, cond_dim=0, dtype="float64", seed=0):
    cfg = ModelConfig(
        signal_length=n, hidden=12, depth=2, cond_dim=cond_dim,
        cond_embed=6, time_features=4, dtype=dtype,
    )
    return VectorFieldModel(cfg, np.random.default_rng(seed))


def _coupling(rng, b=4, n=8, cond_dim=0):
    x0 = rng.standard_normal((b, n)).astype(np.float32)
    x1 = rng.standard_normal((b, n)).astype(np.float32)
    cond = None if cond_dim == 0 else rng.standard_normal((b, cond_dim)).astype(np.float32)
    return Coupling(x0, x1, cond)


class TestInterpolate:
    def test_endpoints(self):
        rng = np.random.default_rng(0)
        c = _coupling(rng)
        assert np.array_equal(interpolate(c.x0, c.x1, 0.0), c.x0)
        assert np.array_equal(interpolate(c.x0, c.x1, 1.0), c.x1)

    def test_midpoint(self):
        rng = np.random.default_rng(1)
        c = _coupling(rng)
        mid = interpolate(c.x0, c.x1, 0.5)
        assert np.allclose(mid, 0.5 * (c.x0 + c.x1), atol=1e-7)

    def test_per_sample_tau(self):
        rng = np.random.default_rng(2)
        c = _coupling(rng, b=3)
        tau = np.array([0.0, 0.5, 1.0])
        pt = interpolate(c.x0, c.x1, tau)
        assert np.array_equal(pt[0], c.x0[0])
        assert np.array_equal(pt[2], c.x1[2])

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(3)
        c = _coupling(rng)
        with pytest.raises(ValidationError):
            interpolate(c.x0, c.x1, 1.5)
        with pytest.raises(ValidationError):
            interpolate(c.x0, c.x1, -0.2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            interpolate(np.zeros((2, 4)), np.zeros((2, 5)), 0.5)


class TestCfmTarget:
    def test_is_displacement(self):
        rng = np.random.default_rng(4)
        c = _coupling(rng)
        assert np.array_equal(cfm_target(c), c.x1 - c.x0)

    def test_constant_along_path(self):
        # The linear path has constant velocity: finite differences of the
        # interpolant recover the target at any tau.
        rng = np.random.default_rng(5)
        c = _coupling(rng)
        h = 1e-3
        for tau in (0.2, 0.5, 0.8):
            fd = (
                interpolate(c.x0, c.x1, tau + h).astype(np.float64)
                - interpolate(c.x0, c.x1, tau - h).astype(np.float64)
            ) / (2 * h)
            assert np.allclose(fd, cfm_target(c), atol=1e-3)


class TestCfmLoss:
    def test_zero_init_model_loss_equals_target_power(self):
        # v = 0 at init, so the loss is exactly mean(u^2).
        rng = np.random.default_rng(6)
        c = _coupling(rng)
        model = _model()
        with no_grad():
            loss = cfm_loss(model, c, 0.5)
        u = cfm_target(c).astype(np.float64)
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
        xt = interpolate(c.x0, c.x1, tau)
        with no_grad():
            v_drop = model.forward(xt, tau, c.condition, np.array([True, False])).data
            loss_drop = cfm_loss(model, c, tau, drop_condition=drop)
        u = cfm_target(c).astype(np.float64)
        assert abs(loss_drop - float(np.mean((v_drop - u) ** 2))) <= 1e-12

    def test_presence_defaults_to_the_condition(self):
        # Without dropout every row of a conditioned coupling is present and
        # every row of an unconditioned one trains through the null branch.
        rng = np.random.default_rng(11)
        model = _model(cond_dim=2, seed=3)
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.standard_normal(p.data.shape)
        tau = np.array([0.2, 0.7])
        for cond_dim in (2, 0):
            c = _coupling(rng, b=2, cond_dim=cond_dim)
            present = np.full(2, c.condition is not None)
            with no_grad():
                v = model.forward(interpolate(c.x0, c.x1, tau), tau, c.condition, present).data
                loss = cfm_loss(model, c, tau)
            assert loss == float(np.mean((v - cfm_target(c).astype(np.float64)) ** 2))

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


class TestCfgCombine:
    def test_gamma_one_is_conditional(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 3, 4))
        assert np.array_equal(cfg_combine(a, b, 1.0), a)

    def test_gamma_zero_is_null(self):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((2, 3, 4))
        assert np.array_equal(cfg_combine(a, b, 0.0), b)

    def test_linear_in_gamma(self):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((2, 3, 4))
        got = cfg_combine(a, b, 2.0)
        assert np.allclose(got, 2.0 * a - b, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cfg_combine(np.zeros((2, 3)), np.zeros((3, 2)), 1.0)
