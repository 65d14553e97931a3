"""Tests for the autodiff tape, vector-field models, Adam, and checkpoints.

The gradient oracle is central finite differences computed on a float64
model; every tape gradient is validated against it rather than against a
second autodiff implementation.
"""

import json
import re
import struct
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbridge.coupling import Coupling
from flowbridge.exceptions import CheckpointError, ConfigError, ShapeError, ValidationError
from flowbridge.flow import cfm_loss
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
from flowbridge.nn.adam import BETA1, BETA2, EPS
from flowbridge.nn.model import MAX_TIME_FREQ, TIME_FEATURES, param_layout


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


def _conv1d_tap_scatter(x, w, b, g, x_on_tape):
    """The earlier conv1d, kept as the reference for its replacement's bits.

    Forward and weight gradient as before; the input gradient scatters
    w[:, :, j].T @ g into a zeroed padded buffer at offset j and crops it.
    Returns (y, gx or None, gw, gb).
    """

    def contract(a, v):
        return a * v if a.shape[1] == 1 else a @ v

    k = w.shape[2]
    pad = k // 2
    length = x.shape[2]
    xpad = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    y = contract(w[:, :, 0], xpad[:, :, :length])
    for j in range(1, k):
        y += contract(w[:, :, j], xpad[:, :, j : j + length])
    y += b[:, None]
    gb = g.sum(axis=(0, 2))
    gw = np.empty_like(w)
    for j in range(k):
        gw[:, :, j] = (g @ xpad[:, :, j : j + length].transpose(0, 2, 1)).sum(axis=0)
    gx = None
    if x_on_tape:
        gxpad = np.zeros_like(xpad)
        for j in range(k):
            gxpad[:, :, j : j + length] += contract(w[:, :, j].T, g)
        gx = gxpad[:, :, pad : pad + length]
    return y, gx, gw, gb


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

    def test_add_broadcasts_a_lower_rank_operand(self):
        # A (4,) operand broadcast over 3 rows collects the gradient of every row.
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)

        def f():
            a.zero_grad()
            b.zero_grad()
            return ad.add(a, b)

        out = f()
        out.backward(np.ones_like(out.data))
        assert np.array_equal(b.grad, [3.0, 3.0, 3.0, 3.0])
        _check_grad(f, a, 4, rng)
        _check_grad(f, b, 4, rng)

    def test_where_broadcasts_a_lower_rank_operand(self):
        rng = np.random.default_rng(1)
        cond = np.array([[True, False, True], [False, False, True]])
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def f():
            a.zero_grad()
            b.zero_grad()
            return ad.where(cond, a, b)

        out = f()
        out.backward(np.ones_like(out.data))
        assert np.array_equal(b.grad, [1.0, 2.0, 0.0])
        _check_grad(f, a, 4, rng)
        _check_grad(f, b, 4, rng)

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

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 3),
        c_in=st.sampled_from([1, 2, 17]),
        c_out=st.sampled_from([1, 3, 17]),
        length=st.integers(1, 70),
        half_k=st.integers(0, 4),
        dtype=st.sampled_from([np.float32, np.float64]),
        x_on_tape=st.booleans(),
        zero_frac=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_conv1d_bits_match_tap_scatter(
        self, batch, c_in, c_out, length, half_k, dtype, x_on_tape, zero_frac, seed
    ):
        # The output and every gradient keep the bytes of the earlier
        # tap-scatter conv1d, kernels longer than the signal included. The one
        # exception is the input gradient at C_in = 1: each tap is then a
        # one-row product, which BLAS forms on the strided window of the padded
        # g in another summation order. There each entry is held to the
        # summation error bound of both orders, 2 * C_out * K ulp-sized steps
        # of the sum of |terms|.
        k = 2 * half_k + 1
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, c_in, length)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, k)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        g = rng.standard_normal((batch, c_out, length)).astype(dtype)
        g[rng.random(g.shape) < zero_frac] = 0.0
        leaves = (Tensor(x, requires_grad=x_on_tape), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
        out = ad.conv1d(*leaves)
        out.backward(g)
        y, gx, gw, gb = _conv1d_tap_scatter(x, w, b, g, x_on_tape)
        assert out.data.tobytes() == y.tobytes()
        assert leaves[1].grad.tobytes() == gw.tobytes()
        assert leaves[2].grad.tobytes() == gb.tobytes()
        if not x_on_tape:
            assert leaves[0].grad is None
        elif c_in > 1:
            assert leaves[0].grad.tobytes() == gx.tobytes()
        else:
            assert leaves[0].grad.dtype == gx.dtype
            magnitude = _conv1d_tap_scatter(x, np.abs(w), b, np.abs(g), True)[1]
            bound = 2 * c_out * k * np.finfo(dtype).eps * magnitude
            assert np.all(np.abs(leaves[0].grad - gx) <= bound)

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [
            ((2, 3, 8), (3, 1, 3), (3,)),  # C_in of x is not C_in of w
            ((3, 8), (3, 3, 3), (3,)),  # x is not (B, C_in, L)
            ((2, 3, 8), (3, 3), (3,)),  # w is not (C_out, C_in, K)
            ((2, 3, 8), (3, 3, 3), (2,)),  # b is not (C_out,)
            ((2, 3, 8), (3, 3, 4), (3,)),  # even kernel
        ],
    )
    def test_conv1d_rejects_misfit_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            ad.conv1d(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize(
        "h_shape, st_shape",
        [
            ((2, 3), (1, 4)),  # st one column short of 2C: t would be one column wide
            ((2, 3), (1, 8)),  # st wider than 2C
            ((2, 3, 5), (3, 6)),  # st rows neither 1 nor B
            ((2, 3), (6,)),  # st is not (R, 2C)
            ((6,), (1, 2)),  # h is neither (B, C) nor (B, C, L)
        ],
    )
    def test_film_rejects_misfit_shapes(self, h_shape, st_shape):
        with pytest.raises(ShapeError):
            ad.film(Tensor(np.ones(h_shape)), Tensor(np.arange(float(np.prod(st_shape))).reshape(st_shape)))

    def test_concat_and_slice(self):
        # film slices its concatenated st back into s and t.
        rng = np.random.default_rng(6)
        h = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        s = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        t = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

        def f():
            for x in (h, s, t):
                x.zero_grad()
            return ad.film(h, ad.concat([s, t]))

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


    def test_backward_rejects_a_seed_of_another_shape(self):
        # A (4,) or scalar seed would broadcast over a (3, 4) output.
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        for seed in (np.ones(4), 1.0):
            with pytest.raises(ShapeError, match="seed gradient"):
                ad.silu(x).backward(seed)
        assert x.grad is None

    def test_backward_consumes_the_tape(self):
        # out = silu(x @ w + b) + x. Each intermediate drops its parents,
        # closure and gradient once the walk has passed it, so one nothing
        # else holds is freed during backward, with its data (Tensor has
        # slots and no weakref slot, so the weak reference is to the array).
        # The leaves keep their gradients.
        rng = np.random.default_rng(9)
        x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((3, 4), (4, 4), (4,)))
        h = ad.matmul(x, w, b)
        s = ad.silu(h)
        out = ad.add(s, x)
        freed = weakref.ref(h.data)
        del h
        g = rng.standard_normal((3, 4))
        out.backward(g)
        assert freed() is None
        for node in (out, s):
            assert node._parents == () and node._backward is None and node.grad is None
        # The gradients a retained tape gives, computed by the same formulas.
        hd = x.data @ w.data + b.data
        sig = 0.5 * (1.0 + np.tanh(0.5 * hd))
        gh = g * sig * (1.0 + hd * (1.0 - sig))
        assert np.array_equal(b.grad, gh.sum(axis=0))
        assert np.array_equal(w.grad, x.data.T @ gh)
        assert np.array_equal(x.grad, g + gh @ w.data.T)


class TestTimeEmbedding:
    def test_shape_and_layout(self):
        tau = np.array([0.0, 0.5, 1.0])
        emb = time_embedding(tau, np.float64)
        assert emb.shape == (3, 2 * TIME_FEATURES)
        # tau = 0: all sines zero, all cosines one.
        assert np.allclose(emb[0, :TIME_FEATURES], 0.0)
        assert np.allclose(emb[0, TIME_FEATURES:], 1.0)

    def test_frequencies_are_geometric(self):
        emb = time_embedding(np.array([1e-4]), np.float64)
        freqs = np.geomspace(1.0, MAX_TIME_FREQ, TIME_FEATURES)
        assert np.allclose(emb[0, :TIME_FEATURES], np.sin(2 * np.pi * freqs * 1e-4))

    def test_dtype(self):
        assert time_embedding(np.array([0.3]), np.float32).dtype == np.float32


def _make_model(backbone="mlp", cond_dim=0, dtype="float64", n=8, hidden=12, depth=2, seed=0):
    cfg = ModelConfig(
        signal_length=n,
        backbone=backbone,
        hidden=hidden,
        depth=depth,
        cond_dim=cond_dim,
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
        drop = np.array([False, False, True, False])

        def loss():
            with ad.no_grad():
                v = model.forward(x, tau, cond, drop=drop).data
            return float(np.mean((v - u) ** 2))

        model.zero_grad()
        out = model.forward(x, tau, cond, drop=drop)
        r = out.data - u
        out.backward(2.0 * r / r.size)
        names = list(model.params)
        for k in range(12):
            name = names[int(rng.integers(len(names)))]
            p = model.params[name]
            idx = np.unravel_index(int(rng.integers(p.data.size)), p.data.shape)
            num = _fd_entry(loss, p.data, idx, h=1e-5)
            ana = float(p.grad[idx]) if p.grad is not None else 0.0
            assert _rel_err(num, ana) < 1e-4, f"{name}[{idx}]: fd={num} tape={ana}"

    @pytest.mark.parametrize("backbone,reshapes", [("mlp", 0), ("conv", 1)])
    def test_one_tape_node_per_layer(self, backbone, reshapes):
        # The context is five nodes (condition layer, where, concat, dense
        # layer, silu); each block six (FiLM layer, film, mixer, silu, mixer,
        # residual add); plus the input and output mixers. The conv backbone
        # adds the reshape out of its channel axis; the reshape of the plain
        # input into it has no parent on the tape, so it records no node.
        model = _make_model(backbone=backbone, cond_dim=3, depth=3)
        out = model.forward(np.zeros((4, 8)), np.full(4, 0.5), np.zeros((4, 3)))
        seen, stack = {id(out): out}, [out]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in seen:
                    seen[id(p)] = p
                    stack.append(p)
        assert sum(1 for t in seen.values() if t._parents) == 5 + 6 * 3 + 2 + reshapes

    @pytest.mark.parametrize("backbone", ["mlp", "conv"])
    def test_plain_layer_inputs_get_no_gradient(self, backbone, monkeypatch):
        # The input mixer reads the (reshaped) plain x and the condition layer
        # a plain array: backward forms no gradient for either, and the
        # parameter gradients of both layers are still formed.
        model = _make_model(backbone=backbone, cond_dim=3)
        watched = (model.params["in_w"], model.params["cond_w"])
        inputs = []

        def spying(op):
            def spy(x, w, b):
                if any(w is p for p in watched):
                    inputs.append(x)
                return op(x, w, b)

            return spy

        monkeypatch.setattr(ad, "matmul", spying(ad.matmul))
        monkeypatch.setattr(ad, "conv1d", spying(ad.conv1d))
        rng = np.random.default_rng(13)
        out = model.forward(rng.standard_normal((4, 8)), rng.random(4), rng.standard_normal((4, 3)))
        received = []
        accumulate = ad._accumulate

        def spy_accumulate(t, g):
            received.append(t)
            accumulate(t, g)

        monkeypatch.setattr(ad, "_accumulate", spy_accumulate)
        out.backward(rng.standard_normal(out.data.shape))
        assert len(inputs) == 2
        assert not any(t is x for t in received for x in inputs)
        assert all(p.grad is not None for p in watched)

    def test_absent_condition_payload_cannot_poison(self):
        # Dropped rows may carry NaN; output and gradients must stay finite
        # and identical to a zero payload.
        model = _make_model(cond_dim=2)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 8))
        cond = rng.standard_normal((3, 2))
        drop = np.array([False, True, False])
        with ad.no_grad():
            clean = model.forward(x, 0.5, cond, drop=drop).data
        poisoned = cond.copy()
        poisoned[1, :] = np.nan
        model.zero_grad()
        out = model.forward(x, 0.5, poisoned, drop=drop)
        assert np.array_equal(out.data, clean)
        out.backward(np.ones_like(out.data))
        for name, p in model.params.items():
            if p.grad is not None:
                assert np.all(np.isfinite(p.grad)), name

    def test_drop_is_keyword_only(self):
        # A mask passed positionally (the old presence flags) is refused,
        # never read as the rows to drop.
        model = _make_model(cond_dim=2)
        with pytest.raises(TypeError):
            model.forward(np.zeros((2, 8)), 0.5, np.zeros((2, 2)), np.array([True, False]))

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
        with pytest.raises(ValidationError):
            model.velocity(x, float("nan"))
        with pytest.raises(ValidationError):
            model.forward(x, np.array([0.5, np.nan]))

    def test_rejects_bad_shapes(self):
        model = _make_model(cond_dim=2)
        with pytest.raises(ShapeError):
            model.velocity(np.zeros((2, 9)), 0.5)
        with pytest.raises(ShapeError):
            model.velocity(np.zeros((2, 8)), 0.5, np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 8)), 0.5, np.zeros((2, 2)), drop=np.array([True]))

    @pytest.mark.parametrize("tau", [np.array([0.3]), np.zeros(4), np.full((3, 1), 0.5)],
                             ids=["one_for_three_rows", "another_batch", "column"])
    def test_refuses_a_tau_neither_scalar_nor_one_per_row(self, tau):
        # One tau is never broadcast to every row, also through velocity.
        message = f"tau must be scalar or (3,), got {tau.shape}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            _make_model().velocity(np.zeros((3, 8)), tau)

    def test_forward_refuses_an_integer_drop_mask(self):
        model = _make_model(cond_dim=2)
        with pytest.raises(ValidationError, match="drop must be a bool array, got int"):
            model.forward(np.zeros((3, 8)), np.full(3, 0.5), np.zeros((3, 2)),
                          drop=np.array([0, 1, 0]))

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
            {"hidden": 8.5},
            {"hidden": 4.0},
            {"depth": True},
            {"signal_length": 8.0},
            {"cond_dim": "1"},
            {"kernel_size": 5.0},
        ]
        for kwargs in bad:
            with pytest.raises(ConfigError):
                ModelConfig(**{"signal_length": 8, **kwargs})

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ConfigError, match="unknown dtype 'float16'"):
            ModelConfig(signal_length=8, dtype="float16")


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
    """velocity runs forward without a tape, and with a shared context for scalar tau
    when no row is present or every row has the same condition."""

    @pytest.mark.parametrize("present", [None, "all"])
    def test_velocity_equals_forward_with_per_row_tau(self, backbone, dtype, present):
        model = _perturbed_model(backbone, dtype)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 8))
        tau = rng.random(4)
        cond = None if present is None else rng.standard_normal((4, 2))
        v = model.velocity(x, tau, cond)
        assert v.dtype == np.dtype(dtype)
        assert np.array_equal(v, model.forward(x, tau, cond).data)

    def test_scalar_tau_shares_the_null_context(self, backbone, dtype):
        model = _perturbed_model(backbone, dtype)
        x = np.random.default_rng(17).standard_normal((5, 8))
        shared = model.velocity(x, 0.3)
        per_row = model.forward(x, np.full(5, 0.3)).data
        rtol = 1e-6 if dtype == "float32" else 1e-12
        np.testing.assert_allclose(shared, per_row, rtol=rtol, atol=rtol * np.abs(per_row).max())

    def test_scalar_tau_shares_a_common_condition_context(self, backbone, dtype):
        model = _perturbed_model(backbone, dtype)
        x = np.random.default_rng(21).standard_normal((5, 8))
        cond = np.tile([[0.7, -1.2]], (5, 1))
        shared = model.velocity(x, 0.3, cond)
        per_row = model.forward(x, np.full(5, 0.3), cond).data
        rtol = 1e-6 if dtype == "float32" else 1e-12
        np.testing.assert_allclose(shared, per_row, rtol=rtol, atol=rtol * np.abs(per_row).max())

    @pytest.mark.parametrize(
        "case, rows",
        [("shared", 1), ("null", 1), ("one_row_differs", 5), ("nan_row", 5), ("per_row_tau", 5)],
    )
    def test_context_row_count(self, backbone, dtype, case, rows, monkeypatch):
        model = _perturbed_model(backbone, dtype)
        x = np.random.default_rng(22).standard_normal((5, 8))
        cond = np.tile([[0.7, -1.2]], (5, 1))
        tau = np.full(5, 0.3) if case == "per_row_tau" else 0.3
        if case == "null":
            cond = None
        elif case == "one_row_differs":
            cond[3, 1] = 0.5
        elif case == "nan_row":
            cond[2, 0] = np.nan
        built = []
        context = model._context

        def spy(tau, condition, present):
            built.append(tau.shape[0])
            return context(tau, condition, present)

        monkeypatch.setattr(model, "_context", spy)
        model.velocity(x, tau, cond)
        assert built == [rows]

    def test_dropping_every_row_is_the_null_branch(self, backbone, dtype):
        model = _perturbed_model(backbone, dtype)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((4, 8))
        cond = rng.standard_normal((4, 2))
        drop = np.ones(4, dtype=bool)
        for tau in (0.3, rng.random(4)):
            with ad.no_grad():
                dropped = model.forward(x, tau, cond, drop=drop).data
                null = model.forward(x, tau, None).data
            assert np.array_equal(dropped, null)

    def test_one_differing_row_keeps_the_per_row_forward(self, backbone, dtype):
        model = _perturbed_model(backbone, dtype)
        x = np.random.default_rng(23).standard_normal((5, 8))
        cond = np.tile([[0.7, -1.2]], (5, 1))
        cond[4, 0] = 0.1
        per_row = model.forward(x, np.full(5, 0.3), cond).data
        assert np.array_equal(model.velocity(x, 0.3, cond), per_row)

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
            p.grad = 2.0 * (p.data - target)
            opt.step()
        assert np.allclose(p.data, target, atol=1e-3)

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.ones(3))

    @pytest.mark.parametrize("backbone, dtype", [("conv", "float32"), ("mlp", "float64")])
    def test_matches_per_parameter_loop_bitwise(self, backbone, dtype):
        """50 steps on cfm_loss gradients, some dropping every condition row
        (cond_w and cond_b get no gradient then) and some none, leave the
        parameters byte-equal after every step to a loop over the parameters
        with their own moments."""
        model = _make_model(backbone=backbone, cond_dim=2, dtype=dtype, seed=4)
        ref = _make_model(backbone=backbone, cond_dim=2, dtype=dtype, seed=4)
        opt, ref_opt = Adam(model.parameters(), lr=1e-2), _LoopAdam(ref.parameters(), lr=1e-2)
        rng = np.random.default_rng(22)
        dt = model.config.np_dtype
        for step in range(50):
            x0, x1 = (rng.standard_normal((6, 8)).astype(dt) for _ in range(2))
            c = Coupling(x0, x1, rng.standard_normal((6, 2)).astype(dt))
            tau = rng.random(6)
            drop = np.ones(6, bool) if step % 5 == 2 else rng.random(6) < 0.3
            for m, o in ((model, opt), (ref, ref_opt)):
                m.zero_grad()
                cfm_loss(m, c, tau, drop_condition=drop)
                o.step()
            # where's backward gives null_cond a gradient (zeros when no row drops) every step.
            assert model.params["null_cond"].grad is not None
            assert (model.params["cond_w"].grad is None) == drop.all()
            for a, b in zip(model.parameters(), ref.parameters()):
                assert a.data.tobytes() == b.data.tobytes(), step

    def test_negative_zero_gradient_matches_loop(self):
        data = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        p, q = Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)
        opt, ref = Adam([p], lr=0.1), _LoopAdam([q], lr=0.1)
        for g in ([-0.0, 0.0, 1.0], [-0.0, -0.0, -0.0], [2.0, -0.0, 0.0]):
            p.grad = np.array(g, dtype=np.float32)
            q.grad = p.grad.copy()
            opt.step()
            ref.step()
            assert p.data.tobytes() == q.data.tobytes()

    def test_mixed_dtypes_rejected(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        with pytest.raises(ValidationError, match="one dtype"):
            Adam([a, b], lr=0.1)


class _LoopAdam:
    """Adam as a loop over the parameters, each with its own moments: the reference."""

    def __init__(self, params, lr):
        self.params, self.lr, self.step_count = params, lr, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data -= (self.lr * update).astype(p.data.dtype, copy=False)


def _saved_with_header(tmp_path, key, edit):
    """Path of a saved checkpoint whose header[key] is edit(header[key])."""
    model = _make_model(cond_dim=2, dtype="float32")
    path = tmp_path / "edited.fbc"
    save_checkpoint(path, model)
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
        loaded, extra = load_checkpoint(path)
        assert extra == {"task": "two_moons"}
        assert loaded.config == model.config
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)
            assert a.data.dtype == b.data.dtype

    def test_float64_round_trip(self, tmp_path):
        model = _make_model(dtype="float64")
        path = tmp_path / "f64.fbc"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
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

    def test_rejects_too_short_file(self, tmp_path):
        path = tmp_path / "short.fbc"
        path.write_bytes(b"FBRIDGE1" + struct.pack("<I", 3))
        with pytest.raises(CheckpointError, match="file too short to be a checkpoint"):
            load_checkpoint(path)

    def test_rejects_version_2(self, tmp_path):
        # Version 2 headers carried the embedding sizes that are now constants.
        path = tmp_path / "v2.fbc"
        save_checkpoint(path, _make_model(dtype="float32"))
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 12)
        header = json.loads(raw[16 : 16 + header_len])
        header["config"].update(cond_embed=16, time_features=8, max_time_freq=50.0)
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<II", 2, len(blob)) + blob + raw[16 + header_len :])
        with pytest.raises(CheckpointError, match="unsupported format version 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"[]", b"5", b'"config"'])
    def test_rejects_non_object_header(self, tmp_path, header):
        path = tmp_path / "list.fbc"
        path.write_bytes(b"FBRIDGE1" + struct.pack("<II", 3, len(header)) + header)
        with pytest.raises(CheckpointError, match="header must be an object"):
            load_checkpoint(path)

    def test_rejects_an_integer_too_long_to_parse(self, tmp_path):
        # json refuses integers past 4300 digits with a plain ValueError.
        header = b'{"config": {"signal_length": ' + b"9" * 5000 + b"}}"
        path = tmp_path / "digits.fbc"
        path.write_bytes(b"FBRIDGE1" + struct.pack("<II", 3, len(header)) + header)
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        model = _make_model(dtype="float32")
        path = tmp_path / "trail.fbc"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError):
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
            ("config", lambda c: {**c, "bogus": 1}),
            ("config", lambda c: None),
        ],
        ids=["params_int", "params_null", "shape_int", "empty_entry", "long_entry", "extra_list",
             "hidden_float", "hidden_zero", "kernel_float", "config_unknown_key",
             "config_null"],
    )
    def test_rejects_bad_manifest_or_extra(self, tmp_path, key, edit):
        path = _saved_with_header(tmp_path, key, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: {**c, "signal_length": 10**15},
            lambda c: {**c, "hidden": 2**62},
            lambda c: {**c, "depth": 10**12},
            lambda c: {**c, "cond_dim": 10**400},
        ],
        ids=["signal_length", "hidden", "depth", "cond_dim_past_float_range"],
    )
    def test_corrupt_size_refused_before_allocating(self, tmp_path, edit):
        path = _saved_with_header(tmp_path, "config", edit)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_forged_manifest_refused_by_payload_length(self, tmp_path):
        # A manifest rewritten to match a huge config still needs its payload.
        path = _saved_with_header(tmp_path, "config", lambda c: {**c, "hidden": 2**62})
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 12)
        header = json.loads(raw[16 : 16 + header_len])
        layout = param_layout(ModelConfig(**header["config"]))
        header["params"] = [[name, list(shape)] for name, shape, _ in layout]
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :])
        with pytest.raises(CheckpointError, match="truncated payload"):
            load_checkpoint(path)

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        backbone=st.sampled_from(["mlp", "conv"]),
        dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(self, backbone, dtype, seed):
        model = _perturbed_model(backbone, dtype, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.fbc"
            save_checkpoint(path, model, extra={"seed": seed})
            loaded, extra = load_checkpoint(path)
        assert loaded.config == model.config and extra == {"seed": seed}
        assert list(loaded.params) == list(model.params)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data)
        x = np.random.default_rng(seed).standard_normal((3, 8))
        cond = np.full((3, 2), 0.5)
        assert np.array_equal(model.velocity(x, 0.4, cond), loaded.velocity(x, 0.4, cond))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fuzzed_file_raises_only_checkpoint_errors(self, data):
        model = _make_model(cond_dim=1, dtype="float32", hidden=4, depth=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.fbc"
            save_checkpoint(path, model, extra={"task": {"family": "cond_ring"}})
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
