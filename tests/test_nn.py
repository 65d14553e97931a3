"""Tests for the autodiff tape, vector-field models, Adam, and checkpoints.

The gradient oracle is central finite differences computed on a float64
model; every tape gradient is validated against it rather than against a
second autodiff implementation.
"""

import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbridge.exceptions import CheckpointError, ConfigError, ShapeError, ValidationError
from flowbridge.nn import (
    Adam,
    ModelConfig,
    Tensor,
    VectorFieldModel,
    load_checkpoint,
    save_checkpoint,
    time_embedding,
)
from flowbridge.nn import autodiff as ad


def _fd_entry(f, arr, idx, h=1e-6):
    """Central-difference derivative of scalar f w.r.t. one array entry."""
    orig = arr[idx]
    arr[idx] = orig + h
    up = f()
    arr[idx] = orig - h
    down = f()
    arr[idx] = orig
    return (up - down) / (2.0 * h)


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def _check_grad(f, tensor, n_probes, rng, h=1e-6, tol=1e-5):
    """Compare tape gradient on `tensor` against finite differences of f."""
    out = f()
    out.backward(np.ones_like(out.data))
    grad = tensor.grad.copy()
    flat = tensor.data.reshape(-1)
    for _ in range(n_probes):
        k = int(rng.integers(flat.size))
        idx = np.unravel_index(k, tensor.data.shape)
        num = _fd_entry(lambda: float(f().data.sum()), tensor.data, idx, h)
        assert _rel_err(num, grad[idx]) < tol, f"grad mismatch at {idx}"


# id -> (batch, C_in, C_out, L, K, dtype). C_in = 1 and C_out = 1 are the
# shapes of the conv backbone's input and output convs.
CONV_CASES = {
    "k1": (2, 3, 4, 9, 1, np.float64),
    "k3": (2, 2, 3, 7, 3, np.float64),
    "k5": (2, 3, 4, 11, 5, np.float64),
    "c_in1": (2, 1, 4, 9, 3, np.float64),
    "c_out1": (2, 3, 1, 9, 5, np.float64),
    "l_lt_k": (2, 2, 3, 2, 5, np.float64),
    "k5_f32": (2, 3, 4, 11, 5, np.float32),
}


def _conv_inputs(case, seed):
    batch, c_in, c_out, length, k, dtype = CONV_CASES[case]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, c_in, length)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, k)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    return x, w, b


# id -> (shape of h, rows of st). One row is the shared null context.
FILM_CASES = {
    "dense": ((4, 3), 4),
    "conv": ((4, 3, 5), 4),
    "one_row": ((4, 3), 1),
    "one_row_conv": ((4, 3, 5), 1),
}


class TestAutodiffOps:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        _check_grad(lambda: (ad.add(a, b), a.zero_grad(), b.zero_grad())[0], a, 4, rng)
        _check_grad(lambda: (ad.add(a, b), a.zero_grad(), b.zero_grad())[0], b, 4, rng)

    def test_matmul(self):
        # The bias is part of the op: x @ w + b, one tape node.
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)

        def f():
            for t in (x, w, b):
                t.zero_grad()
            return ad.matmul(x, w, b)

        out = f()
        assert np.array_equal(out.data, x.data @ w.data + b.data)
        assert out._parents == (x, w, b)
        for t, n_probes in ((x, 5), (w, 5), (b, 2)):
            _check_grad(f, t, n_probes, rng)

    @pytest.mark.parametrize("case", FILM_CASES)
    def test_film(self, case):
        # h * (s + 1) + t with st = [s | t]; a one-row st broadcasts over
        # the batch, so its gradient sums over the rows (and the length).
        h_shape, rows = FILM_CASES[case]
        c = h_shape[1]
        rng = np.random.default_rng(1)
        h = Tensor(rng.standard_normal(h_shape), requires_grad=True)
        st = Tensor(rng.standard_normal((rows, 2 * c)), requires_grad=True)

        def f():
            h.zero_grad()
            st.zero_grad()
            return ad.film(h, st)

        s, t = st.data[:, :c], st.data[:, c:]
        if len(h_shape) == 3:
            s, t = s[:, :, None], t[:, :, None]
        assert np.array_equal(f().data, h.data * (s + 1.0) + t)
        _check_grad(f, h, 6, rng)
        _check_grad(f, st, 6, rng)

    def test_silu(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

        def f():
            x.zero_grad()
            return ad.silu(x)

        _check_grad(f, x, 6, rng)

    def test_silu_float32_extremes_do_not_overflow(self):
        x = Tensor(np.array([-100.0, 100.0], dtype=np.float32), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ad.silu(x)
            y.backward(np.ones_like(y.data))
        assert y.data.dtype == np.float32
        assert x.grad.dtype == np.float32
        assert np.allclose(y.data, [0.0, 100.0], rtol=0.0, atol=1e-6)
        assert np.allclose(x.grad, [0.0, 1.0], rtol=0.0, atol=1e-6)

    def test_silu_values(self):
        x = Tensor(np.array([0.0, 100.0, -100.0]))
        y = ad.silu(x).data
        assert y[0] == 0.0
        assert abs(y[1] - 100.0) < 1e-6
        assert abs(y[2]) < 1e-6

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_conv1d_forward_matches_numpy(self, case):
        # Same-padded correlation per (out, in) channel pair, via np.convolve
        # with a flipped kernel, evaluated in float64.
        x, w, b = _conv_inputs(case, seed=4)
        out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.dtype == x.dtype
        batch, c_in, length = x.shape
        c_out = w.shape[0]
        want = np.zeros((batch, c_out, length))
        for bi in range(batch):
            for o in range(c_out):
                acc = np.zeros(length)
                for c in range(c_in):
                    full = np.convolve(x[bi, c].astype(np.float64), w[o, c, ::-1].astype(np.float64))
                    # The centred `length` samples of the full convolution;
                    # np.convolve's "same" mode would centre on the longer
                    # operand when the kernel outgrows the signal.
                    start = w.shape[2] // 2
                    acc += full[start : start + length]
                want[bi, o] = acc + b[o]
        atol = 1e-12 if x.dtype == np.float64 else 1e-5
        assert np.allclose(out, want, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_conv1d_backward(self, case):
        # The tape runs in the case's dtype; the finite differences always run
        # on float64 copies of the same values.
        x, w, b = _conv_inputs(case, seed=5)
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = ad.conv1d(*leaves)
        out.backward(np.ones_like(out.data))
        assert out.data.dtype == x.dtype
        exact = [Tensor(a.astype(np.float64)) for a in (x, w, b)]
        rng = np.random.default_rng(5)
        for leaf, ref, n_probes in zip(leaves, exact, (6, 6, 3)):
            assert leaf.grad.dtype == x.dtype
            for _ in range(n_probes):
                idx = np.unravel_index(int(rng.integers(ref.data.size)), ref.data.shape)
                num = _fd_entry(lambda: float(ad.conv1d(*exact).data.sum()), ref.data, idx)
                if x.dtype == np.float64:
                    assert _rel_err(num, leaf.grad[idx]) < 1e-5, f"grad mismatch at {idx}"
                else:
                    assert abs(num - leaf.grad[idx]) <= 1e-4 * max(1.0, abs(num)), idx

    def test_conv1d_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            ad.conv1d(Tensor(np.zeros((1, 1, 8))), Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros(1)))

    def test_concat_and_slice(self):
        # film slices its concatenated st back into s and t.
        rng = np.random.default_rng(6)
        h = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        s = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        t = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

        def f():
            for x in (h, s, t):
                x.zero_grad()
            return ad.film(h, ad.concat([s, t], axis=1))

        _check_grad(f, s, 4, rng)
        _check_grad(f, t, 3, rng)

    def test_reshape_backward(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        st = Tensor(rng.standard_normal((2, 4)))

        def f():
            x.zero_grad()
            return ad.film(ad.reshape(x, (2, 2, 3)), st)

        _check_grad(f, x, 4, rng)

    def test_where_routes_gradient_to_the_chosen_operand(self):
        # Real rows get g; the broadcast null row gets the sum of g over the
        # rows that took it.
        rng = np.random.default_rng(8)
        real = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        null = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        present = np.array([True, False, True, False])[:, None]
        out = ad.where(present, real, null)
        assert np.array_equal(out.data, np.where(present, real.data, null.data))
        g = rng.standard_normal((4, 3))
        out.backward(g)
        assert np.array_equal(real.grad, np.where(present, g, 0.0))
        assert np.array_equal(null.grad, g[[1, 3]].sum(axis=0, keepdims=True))

    def test_grad_accumulates_over_reuse(self):
        # y = x @ x + 0 + x: dy/dx = 2x + 1, exercised through three paths.
        x = Tensor(np.array([[3.0]]), requires_grad=True)
        y = ad.add(ad.matmul(x, x, Tensor(np.zeros(1))), x)
        y.backward()
        assert np.allclose(x.grad, [[7.0]])


class TestTimeEmbedding:
    def test_shape_and_layout(self):
        tau = np.array([0.0, 0.5, 1.0])
        emb = time_embedding(tau, 4, 50.0, np.float64)
        assert emb.shape == (3, 8)
        # tau = 0: all sines zero, all cosines one.
        assert np.allclose(emb[0, :4], 0.0)
        assert np.allclose(emb[0, 4:], 1.0)

    def test_frequencies_are_geometric(self):
        emb = time_embedding(np.array([1e-4]), 6, 32.0, np.float64)
        freqs = np.geomspace(1.0, 32.0, 6)
        assert np.allclose(emb[0, :6], np.sin(2 * np.pi * freqs * 1e-4))

    def test_dtype(self):
        assert time_embedding(np.array([0.3]), 2, 8.0, np.float32).dtype == np.float32


def _make_model(backbone="mlp", cond_dim=0, dtype="float64", n=8, hidden=12, depth=2, seed=0):
    cfg = ModelConfig(
        signal_length=n,
        backbone=backbone,
        hidden=hidden,
        depth=depth,
        cond_dim=cond_dim,
        cond_embed=6,
        time_features=4,
        kernel_size=3,
        dtype=dtype,
    )
    return VectorFieldModel(cfg, np.random.default_rng(seed))


class TestVectorFieldModel:
    def test_output_shape_and_zero_init(self):
        model = _make_model()
        x = np.random.default_rng(1).standard_normal((5, 8))
        v = model.velocity(x, 0.3)
        assert v.shape == (5, 8)
        # Zero-init output layer: the field starts exactly at zero.
        assert np.all(v == 0.0)

    @pytest.mark.parametrize("backbone", ["mlp", "conv"])
    def test_full_model_gradcheck(self, backbone):
        # CFM-style scalar loss; tape gradients vs float64 finite differences.
        rng = np.random.default_rng(11)
        model = _make_model(backbone=backbone, cond_dim=3)
        for p in model.parameters():
            p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
        b, n = 4, 8
        x = rng.standard_normal((b, n))
        u = rng.standard_normal((b, n))
        tau = rng.random(b)
        cond = rng.standard_normal((b, 3))
        present = np.array([True, True, False, True])

        def loss():
            v = model.velocity(x, tau, cond, present)
            return float(np.mean((v - u) ** 2))

        model.zero_grad()
        out = model.forward(x, tau, cond, present)
        r = out.data - u
        out.backward(2.0 * r / r.size)
        names = model.param_names()
        for k in range(12):
            name = names[int(rng.integers(len(names)))]
            p = model.params[name]
            idx = np.unravel_index(int(rng.integers(p.data.size)), p.data.shape)
            num = _fd_entry(loss, p.data, idx, h=1e-5)
            ana = float(p.grad[idx]) if p.grad is not None else 0.0
            assert _rel_err(num, ana) < 1e-4, f"{name}[{idx}]: fd={num} tape={ana}"

    @pytest.mark.parametrize("backbone,reshapes", [("mlp", 0), ("conv", 2)])
    def test_one_tape_node_per_layer(self, backbone, reshapes):
        # The context is five nodes (condition layer, where, concat, dense
        # layer, silu); each block six (FiLM layer, film, mixer, silu, mixer,
        # residual add); plus the input and output mixers. The conv backbone
        # adds the reshapes into and out of its channel axis.
        model = _make_model(backbone=backbone, cond_dim=3, depth=3)
        out = model.forward(np.zeros((4, 8)), np.full(4, 0.5), np.zeros((4, 3)))
        seen, stack = {id(out): out}, [out]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in seen:
                    seen[id(p)] = p
                    stack.append(p)
        assert sum(1 for t in seen.values() if t._parents) == 5 + 6 * 3 + 2 + reshapes

    def test_absent_condition_payload_cannot_poison(self):
        # Rows flagged absent may carry NaN; output and gradients must stay
        # finite and identical to a zero payload.
        model = _make_model(cond_dim=2)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 8))
        cond = rng.standard_normal((3, 2))
        present = np.array([True, False, True])
        clean = model.velocity(x, 0.5, cond, present)
        poisoned = cond.copy()
        poisoned[1, :] = np.nan
        model.zero_grad()
        out = model.forward(x, 0.5, poisoned, present)
        assert np.array_equal(out.data, clean)
        out.backward(np.ones_like(out.data))
        for name, p in model.params.items():
            if p.grad is not None:
                assert np.all(np.isfinite(p.grad)), name

    def test_null_branch_differs_from_conditional(self):
        model = _make_model(cond_dim=2, seed=3)
        rng = np.random.default_rng(13)
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.standard_normal(p.data.shape)
        x = rng.standard_normal((2, 8))
        cond = rng.standard_normal((2, 2))
        v_cond = model.velocity(x, 0.5, cond)
        v_null = model.velocity(x, 0.5, None)
        assert not np.allclose(v_cond, v_null)

    def test_unconditional_model_rejects_condition(self):
        model = _make_model(cond_dim=0)
        x = np.zeros((2, 8))
        with pytest.raises(ValidationError):
            model.velocity(x, 0.5, np.zeros((2, 1)))

    def test_rejects_bad_tau(self):
        model = _make_model()
        x = np.zeros((2, 8))
        with pytest.raises(ValidationError):
            model.velocity(x, 1.5)
        with pytest.raises(ValidationError):
            model.velocity(x, -0.1)

    def test_rejects_bad_shapes(self):
        model = _make_model(cond_dim=2)
        with pytest.raises(ShapeError):
            model.velocity(np.zeros((2, 9)), 0.5)
        with pytest.raises(ShapeError):
            model.velocity(np.zeros((2, 8)), 0.5, np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            model.velocity(np.zeros((2, 8)), 0.5, np.zeros((2, 2)), np.array([False]))

    def test_per_sample_tau(self):
        model = _make_model(seed=5)
        rng = np.random.default_rng(14)
        for p in model.parameters():
            p.data = p.data + 0.1 * rng.standard_normal(p.data.shape)
        x = rng.standard_normal((3, 8))
        tau = np.array([0.1, 0.5, 0.9])
        batched = model.velocity(x, tau)
        for i in range(3):
            single = model.velocity(x[i : i + 1], tau[i])
            assert np.allclose(batched[i], single[0], atol=1e-12)

    def test_config_validation(self):
        bad = [
            {"backbone": "transformer"},
            {"kernel_size": 4},
            {"signal_length": 0},
            {"kernel_size": -1},
            {"time_features": -1},
            {"cond_embed": -1},
            {"max_time_freq": 0.0},
            {"max_time_freq": -50.0},
            {"max_time_freq": float("nan")},
            {"max_time_freq": float("inf")},
            {"hidden": 8.5},
            {"hidden": 4.0},
            {"depth": True},
            {"signal_length": 8.0},
            {"cond_dim": "1"},
            {"cond_embed": None},
            {"time_features": 2.0},
            {"kernel_size": 5.0},
        ]
        for kwargs in bad:
            with pytest.raises(ConfigError):
                ModelConfig(**{"signal_length": 8, **kwargs})


INFERENCE_CASES = [
    (backbone, dtype) for backbone in ("mlp", "conv") for dtype in ("float32", "float64")
]


def _perturbed_model(backbone, dtype, seed=15):
    """A conditional model with every parameter moved off its initial value."""
    model = _make_model(backbone=backbone, cond_dim=2, dtype=dtype, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = (p.data + 0.1 * rng.standard_normal(p.data.shape)).astype(p.data.dtype)
    return model


@pytest.mark.parametrize("backbone,dtype", INFERENCE_CASES)
class TestInferencePath:
    """velocity runs forward without a tape, and with a shared context for scalar tau."""

    @pytest.mark.parametrize("present", [None, "all", "mixed"])
    def test_velocity_equals_forward_with_per_row_tau(self, backbone, dtype, present):
        model = _perturbed_model(backbone, dtype)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 8))
        tau = rng.random(4)
        cond = None if present is None else rng.standard_normal((4, 2))
        flags = np.array([True, False, False, True]) if present == "mixed" else None
        v = model.velocity(x, tau, cond, flags)
        assert v.dtype == np.dtype(dtype)
        assert np.array_equal(v, model.forward(x, tau, cond, flags).data)

    def test_scalar_tau_shares_the_null_context(self, backbone, dtype):
        model = _perturbed_model(backbone, dtype)
        x = np.random.default_rng(17).standard_normal((5, 8))
        shared = model.velocity(x, 0.3)
        per_row = model.forward(x, np.full(5, 0.3)).data
        rtol = 1e-6 if dtype == "float32" else 1e-12
        np.testing.assert_allclose(shared, per_row, rtol=rtol, atol=rtol * np.abs(per_row).max())

    def test_velocity_leaves_gradients_untouched(self, backbone, dtype):
        model = _perturbed_model(backbone, dtype)
        rng = np.random.default_rng(18)
        model.velocity(rng.standard_normal((3, 8)), 0.5, rng.standard_normal((3, 2)))
        model.velocity(rng.standard_normal((3, 8)), 0.5)
        assert all(p.grad is None for p in model.parameters())

    def test_no_grad_records_no_tape(self, backbone, dtype):
        model = _perturbed_model(backbone, dtype)
        x = np.random.default_rng(20).standard_normal((3, 8))
        tau = np.array([0.2, 0.5, 0.8])
        with ad.no_grad():
            out = model.forward(x, tau)
        assert out._parents == () and out._backward is None
        out = model.forward(x, tau)
        assert out._parents and out._backward is not None

    def test_tape_restored_after_failed_velocity(self, backbone, dtype):
        model = _perturbed_model(backbone, dtype)
        x = np.random.default_rng(19).standard_normal((3, 8))
        with pytest.raises(ValidationError):
            model.velocity(x, 1.5)
        out = model.forward(x, np.array([0.2, 0.5, 0.8]))
        out.backward(np.ones_like(out.data))
        # Without a condition every parameter but the condition embedding is on the tape.
        unconditional = [p for name, p in model.params.items() if not name.startswith("cond_")]
        assert all(p.grad is not None for p in unconditional)


class TestAdam:
    def test_first_step_magnitude(self):
        # With bias correction the very first update is lr * g/|g| elementwise.
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([0.5, -3.0])
        opt.step()
        assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_minimizes_quadratic(self):
        rng = np.random.default_rng(20)
        target = rng.standard_normal(4)
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            p.grad = 2.0 * (p.data - target)
            opt.step()
        assert np.allclose(p.data, target, atol=1e-3)

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.ones(3))


def _saved_with_header(tmp_path, key, edit):
    """Path of a saved checkpoint (with optimizer) whose header[key] is edit(header[key])."""
    model = _make_model(cond_dim=2, dtype="float32")
    path = tmp_path / "edited.fbc"
    save_checkpoint(path, model, optimizer=Adam(model.parameters()))
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 12)
    header = json.loads(raw[16 : 16 + header_len])
    header[key] = edit(header.get(key))
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :])
    return path


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = _make_model(cond_dim=2, dtype="float32", seed=7)
        rng = np.random.default_rng(21)
        for p in model.parameters():
            p.data = (p.data + rng.standard_normal(p.data.shape)).astype(np.float32)
        path = tmp_path / "model.fbc"
        save_checkpoint(path, model, extra={"task": "two_moons"})
        loaded, opt, extra = load_checkpoint(path)
        assert opt is None
        assert extra == {"task": "two_moons"}
        assert loaded.config == model.config
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)
            assert a.data.dtype == b.data.dtype

    def test_optimizer_state_round_trip(self, tmp_path):
        model = _make_model(dtype="float32")
        opt = Adam(model.parameters(), lr=3e-4)
        rng = np.random.default_rng(22)
        for _ in range(3):
            for p in model.parameters():
                p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            opt.step()
        path = tmp_path / "with_opt.fbc"
        save_checkpoint(path, model, optimizer=opt)
        _, opt2, _ = load_checkpoint(path)
        assert opt2.step_count == 3
        assert opt2.lr == opt.lr
        for a, b in zip(opt.m, opt2.m):
            assert np.array_equal(a, b)
        for a, b in zip(opt.v, opt2.v):
            assert np.array_equal(a, b)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        def grads_for(step):
            return np.random.default_rng(100 + step)

        def run(model, opt, start, stop):
            for s in range(start, stop):
                g = grads_for(s)
                for p in model.parameters():
                    p.grad = g.standard_normal(p.data.shape).astype(np.float32)
                opt.step()

        straight = _make_model(dtype="float32", seed=9)
        opt_s = Adam(straight.parameters(), lr=1e-3)
        run(straight, opt_s, 0, 6)

        interrupted = _make_model(dtype="float32", seed=9)
        opt_i = Adam(interrupted.parameters(), lr=1e-3)
        run(interrupted, opt_i, 0, 3)
        path = tmp_path / "mid.fbc"
        save_checkpoint(path, interrupted, optimizer=opt_i)
        resumed, opt_r, _ = load_checkpoint(path)
        run(resumed, opt_r, 3, 6)

        for a, b in zip(straight.parameters(), resumed.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_float64_round_trip(self, tmp_path):
        model = _make_model(dtype="float64")
        path = tmp_path / "f64.fbc"
        save_checkpoint(path, model)
        loaded, _, _ = load_checkpoint(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)
            assert b.data.dtype == np.float64

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fbc"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        model = _make_model(dtype="float32")
        path = tmp_path / "trunc.fbc"
        save_checkpoint(path, model)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_wrong_version(self, tmp_path):
        model = _make_model(dtype="float32")
        path = tmp_path / "ver.fbc"
        save_checkpoint(path, model)
        data = bytearray(path.read_bytes())
        data[8] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"[]", b"5", b'"config"'])
    def test_rejects_non_object_header(self, tmp_path, header):
        path = tmp_path / "list.fbc"
        path.write_bytes(b"FBRIDGE1" + struct.pack("<II", 1, len(header)) + header)
        with pytest.raises(CheckpointError, match="header must be an object"):
            load_checkpoint(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        model = _make_model(dtype="float32")
        path = tmp_path / "trail.fbc"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "optimizer",
        [
            {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": 3},
            {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
            {"lr": "1e-3", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": 3},
            {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": 3.0},
            {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": -1},
            [1e-3, 0.9, 0.999, 1e-8, 3],
        ],
        ids=["no_lr", "no_step", "str_lr", "float_step", "negative_step", "list"],
    )
    def test_rejects_bad_optimizer_header(self, tmp_path, optimizer):
        path = _saved_with_header(tmp_path, "optimizer", lambda _: optimizer)
        with pytest.raises(CheckpointError, match="optimizer header"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key,edit",
        [
            ("params", lambda m: 5),
            ("params", lambda m: None),
            ("params", lambda m: [[m[0][0], 7]] + m[1:]),
            ("params", lambda m: [[]] + m[1:]),
            ("params", lambda m: [m[0] + ["x"]] + m[1:]),
            ("extra", lambda e: ["task"]),
            ("config", lambda c: {**c, "hidden": 4.0}),
            ("config", lambda c: {**c, "hidden": 0}),
            ("config", lambda c: {**c, "kernel_size": 5.0}),
            ("config", lambda c: {**c, "max_time_freq": True}),
            ("config", lambda c: {**c, "bogus": 1}),
            ("config", lambda c: None),
        ],
        ids=["params_int", "params_null", "shape_int", "empty_entry", "long_entry", "extra_list",
             "hidden_float", "hidden_zero", "kernel_float", "time_freq_bool", "config_unknown_key",
             "config_null"],
    )
    def test_rejects_bad_manifest_or_extra(self, tmp_path, key, edit):
        path = _saved_with_header(tmp_path, key, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        backbone=st.sampled_from(["mlp", "conv"]),
        dtype=st.sampled_from(["float32", "float64"]),
        with_optimizer=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(self, backbone, dtype, with_optimizer, seed):
        model = _perturbed_model(backbone, dtype, seed=seed)
        opt = None
        if with_optimizer:
            opt = Adam(model.parameters(), lr=1e-3)
            rng = np.random.default_rng(seed)
            for p in model.parameters():
                p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
            opt.step()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.fbc"
            save_checkpoint(path, model, optimizer=opt, extra={"seed": seed})
            loaded, opt2, extra = load_checkpoint(path)
        assert loaded.config == model.config and extra == {"seed": seed}
        assert loaded.param_names() == model.param_names()
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data)
        assert (opt2 is None) == (opt is None)
        if opt is not None:
            assert (opt2.step_count, opt2.lr) == (opt.step_count, opt.lr)
            for a, b in zip(opt.m + opt.v, opt2.m + opt2.v):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        x = np.random.default_rng(seed).standard_normal((3, 8))
        cond = np.full((3, 2), 0.5)
        assert np.array_equal(model.velocity(x, 0.4, cond), loaded.velocity(x, 0.4, cond))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fuzzed_file_raises_only_checkpoint_errors(self, data):
        model = _make_model(cond_dim=1, dtype="float32", hidden=4, depth=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.fbc"
            save_checkpoint(path, model, optimizer=Adam(model.parameters()),
                            extra={"task": {"family": "cond_ring"}})
            raw = bytearray(path.read_bytes())
            (header_len,) = struct.unpack_from("<I", raw, 12)
            body = 16 + header_len
            region = data.draw(st.sampled_from([(0, body - 1), (body, len(raw) - 1)]), label="region")
            pos = data.draw(st.integers(*region), label="pos")
            if data.draw(st.booleans(), label="truncate"):
                del raw[pos:]
            else:
                raw[pos] = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]), label="byte")
            path.write_bytes(bytes(raw))
            try:
                load_checkpoint(path)
            except (CheckpointError, ValidationError):
                pass
