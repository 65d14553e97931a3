"""Minimal reverse-mode autodiff on numpy arrays.

A Tensor wraps an ndarray plus a backward closure; calling backward() on an
output walks the tape in reverse topological order and accumulates gradients
into every tensor created with requires_grad=True. The ops are the ones the
vector-field models need, one tape node per layer: ``add``, ``matmul`` and
``conv1d`` (both take their bias), ``silu``, ``where``, ``film`` (a whole
FiLM modulation), ``concat`` and ``reshape``.

Inside a ``no_grad()`` block no tape is recorded: every op returns a Tensor
with no parents and no backward closure, so each intermediate is freed as
soon as the next op has used it. Sampling runs the model this way; the same
forward code, outside the block, builds the tape that training differentiates.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "matmul",
    "silu",
    "conv1d",
    "film",
    "concat",
    "reshape",
    "where",
]

_grad_enabled = True


@contextmanager
def no_grad():
    """Record no tape inside the block (a process-wide flag); restore the mode on exit."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo numpy broadcasting: sum grad down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self, grad: np.ndarray | None = None):
        """Seed this tensor with grad (ones if omitted) and propagate."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _accumulate(t: Tensor, g: np.ndarray):
    if not (t.requires_grad or t._parents):
        return
    g = g.astype(t.data.dtype, copy=False)
    t.grad = g if t.grad is None else t.grad + g


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output; it joins the tape only while gradients are enabled."""
    out = Tensor(data)
    if _grad_enabled:
        out._parents = parents
        out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _sum_to_shape(g, a.data.shape))
        _accumulate(b, _sum_to_shape(g, b.data.shape))

    return _node(a.data + b.data, (a, b), backward)


def matmul(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer x @ w + b. x: (R, C_in), w: (C_in, C_out), b: (C_out,)."""
    y = x.data @ w.data
    y += b.data

    def backward(g):
        _accumulate(b, g.sum(axis=0))
        _accumulate(w, x.data.T @ g)
        _accumulate(x, g @ w.data.T)

    return _node(y, (x, w, b), backward)


def silu(x: Tensor) -> Tensor:
    # sigmoid(x) = (1 + tanh(x / 2)) / 2 cannot overflow, whatever the dtype.
    sig = 0.5 * (1.0 + np.tanh(0.5 * x.data))

    def backward(g):
        _accumulate(x, g * sig * (1.0 + x.data * (1.0 - sig)))

    return _node(x.data * sig, (x,), backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """np.where(cond, a, b); each entry's gradient goes to the operand it came from."""

    def backward(g):
        _accumulate(a, _sum_to_shape(np.where(cond, g, 0), a.data.shape))
        _accumulate(b, _sum_to_shape(np.where(cond, 0, g), b.data.shape))

    return _node(np.where(cond, a.data, b.data), (a, b), backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded 1-D convolution (cross-correlation), odd kernel only.

    x: (B, C_in, L), w: (C_out, C_in, K), b: (C_out,). Output (B, C_out, L),
    in the dtype of x and w.

    Computed as K shifted batched matmuls over the zero-padded input xpad:
    y = sum_j w[:, :, j] @ xpad[:, :, j:j+L] + b. Each shifted window is a
    strided view that BLAS reads in place. Backward keeps only xpad (no
    im2col column buffer): gw[:, :, j] = sum_b g @ xpad[:, :, j:j+L].T, and
    the input gradient accumulates w[:, :, j].T @ g into a padded buffer at
    offset j, which is then cropped.
    """
    k = w.data.shape[2]
    if k % 2 != 1:
        raise ValueError(f"kernel size must be odd, got {k}")
    pad = k // 2
    length = x.data.shape[2]
    xpad = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    y = w.data[:, :, 0] @ xpad[:, :, :length]
    for j in range(1, k):
        y += w.data[:, :, j] @ xpad[:, :, j : j + length]
    y += b.data[:, None]

    def backward(g):
        _accumulate(b, g.sum(axis=(0, 2)))
        gw = np.empty_like(w.data)
        for j in range(k):
            gw[:, :, j] = (g @ xpad[:, :, j : j + length].transpose(0, 2, 1)).sum(axis=0)
        _accumulate(w, gw)
        gxpad = np.zeros_like(xpad)
        for j in range(k):
            gxpad[:, :, j : j + length] += w.data[:, :, j].T @ g
        _accumulate(x, gxpad[:, :, pad : pad + length])

    return _node(y, (x, w, b), backward)


def film(h: Tensor, st: Tensor) -> Tensor:
    """FiLM modulation h * (s + 1) + t, where st = [s | t] is (R, 2C) and h is (B, C)
    or (B, C, L). s and t broadcast over the length axis, and over the rows when R = 1."""
    rows, c = st.data.shape[0], h.data.shape[1]
    st_b = st.data.reshape(st.data.shape + (1,) * (h.data.ndim - 2))
    s, t = st_b[:, :c], st_b[:, c:]
    s1 = s + 1.0
    y = h.data * s1
    y += t

    def backward(g):
        gst = np.empty_like(st.data)
        gst[:, :c] = _sum_to_shape(g * h.data, s1.shape).reshape(rows, c)
        gst[:, c:] = _sum_to_shape(g, t.shape).reshape(rows, c)
        _accumulate(st, gst)
        _accumulate(h, g * s1)

    return _node(y, (h, st), backward)


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    sizes = [p.data.shape[axis] for p in parts]

    def backward(g):
        offset = 0
        for p, size in zip(parts, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + size)
            _accumulate(p, g[tuple(idx)])
            offset += size

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """x viewed with a new shape; x itself when the shape does not change."""
    out = x.data.reshape(shape)
    if out.shape == x.data.shape:
        return x

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(out, (x,), backward)
