"""Minimal reverse-mode autodiff on numpy arrays.

A Tensor wraps an ndarray plus a backward closure; calling backward() on an
output walks the tape in reverse topological order and accumulates gradients
into every tensor created with requires_grad=True. The walk consumes the tape:
each node drops its closure, its parents and its gradient once its closure has
run, so an intermediate is freed as soon as the walk has passed it, and one
forward supports one backward. The ops are the ones the
vector-field models need, one tape node per layer: ``add``, ``matmul`` and
``conv1d`` (both take their bias), ``silu``, ``where``, ``film`` (a whole
FiLM modulation), ``concat`` and ``reshape``.

``conv1d``'s forward, weight gradient and input gradient are each one loop
over its K taps, a batched matmul on a shifted window of a zero-padded array.

An op joins the tape only when one of its inputs is on it (a tensor with
requires_grad=True, or an op output on the tape), and ``matmul`` and
``conv1d`` form an input gradient only for an input on the tape, so no
gradient is formed that nothing reads.

Inside a ``no_grad()`` block no tape is recorded: every op returns a Tensor
with no parents and no backward closure, so each intermediate is freed as
soon as the next op has used it. Sampling runs the model this way; the same
forward code, outside the block, builds the tape that training differentiates.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..exceptions import ShapeError

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

    def zero_grad(self):
        self.grad = None

    def backward(self, grad: np.ndarray | None = None):
        """Seed this tensor with grad (ones if omitted) and propagate.

        grad must have this tensor's shape. Every consumer of a node runs
        before the node itself, so once a node's closure has run nothing reads
        its closure, parents or gradient again: they are dropped then. Leaves
        created with requires_grad=True keep their gradients.
        """
        grad = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(f"seed gradient {grad.shape} does not match output {self.data.shape}")
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
        self.grad = grad
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()
            if not node.requires_grad:
                node.grad = None


def _on_tape(t: Tensor) -> bool:
    """Whether a gradient of t has a reader: t requires_grad, or t is an op output on the tape."""
    return t.requires_grad or bool(t._parents)


def _accumulate(t: Tensor, g: np.ndarray):
    if not _on_tape(t):
        return
    g = g.astype(t.data.dtype, copy=False)
    t.grad = g if t.grad is None else t.grad + g


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output; it joins the tape only while gradients are enabled and
    some parent is on the tape, so an op on plain inputs records nothing."""
    out = Tensor(data)
    if _grad_enabled and any(_on_tape(p) for p in parents):
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
        if _on_tape(x):
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


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a: (M, C), b: (B, C, L). Over C = 1 it is a broadcast product:
    the same single product per entry, which numpy's matmul takes several
    times longer to form."""
    return a * b if a.shape[1] == 1 else a @ b


def _pad_last(a: np.ndarray, pad: int) -> np.ndarray:
    """a with pad zeros added at both ends of its last axis, C-contiguous."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 2 * pad,), dtype=a.dtype)
    out[..., pad : pad + a.shape[-1]] = a
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded 1-D convolution (cross-correlation), odd kernel only.

    x: (B, C_in, L), w: (C_out, C_in, K), b: (C_out,); any other shapes, or
    an even K, raise ShapeError. Output (B, C_out, L), in the dtype of x and w.

    Computed as K shifted batched matmuls over the zero-padded input xpad:
    y = sum_j w[:, :, j] @ xpad[:, :, j:j+L] + b, taps added in increasing j.
    Each shifted window is a strided view that BLAS reads in place. The tape
    keeps no copy of xpad (x holds the data) and no im2col column buffer.
    Backward pads x again and sums gw[:, :, j] = sum_b g @ xpad[:, :, j:j+L].T
    straight into its slot. When x is on the tape, the input gradient is the
    forward's tap loop over g zero-padded by p = K//2 at both ends:
    gx = sum_j w[:, :, j].T @ gpad[:, :, 2p-j : 2p-j+L], taps added in
    increasing j into a zeroed array.
    """
    xs, ws = x.data.shape, w.data.shape
    if len(xs) != 3 or len(ws) != 3 or xs[1] != ws[1] or b.data.shape != ws[:1]:
        raise ShapeError(
            f"conv1d needs x (B, C_in, L), w (C_out, C_in, K) and b (C_out,), "
            f"got {xs}, {ws} and {b.data.shape}"
        )
    k = ws[2]
    if k % 2 != 1:
        raise ShapeError(f"kernel size must be odd, got {k}")
    pad = k // 2
    length = xs[2]
    xpad = _pad_last(x.data, pad)
    y = _contract(w.data[:, :, 0], xpad[:, :, :length])
    for j in range(1, k):
        y += _contract(w.data[:, :, j], xpad[:, :, j : j + length])
    y += b.data[:, None]

    def backward(g):
        _accumulate(b, g.sum(axis=(0, 2)))
        xpad = _pad_last(x.data, pad)
        gw = np.empty_like(w.data)
        for j in range(k):
            (g @ xpad[:, :, j : j + length].transpose(0, 2, 1)).sum(axis=0, out=gw[:, :, j])
        _accumulate(w, gw)
        del xpad  # so gpad and gx below do not raise the peak memory of the backward
        if _on_tape(x):
            gpad = _pad_last(g, pad)
            gx = np.zeros(xs, dtype=x.data.dtype)
            for j in range(k):
                gx += _contract(w.data[:, :, j].T, gpad[:, :, 2 * pad - j : 2 * pad - j + length])
            _accumulate(x, gx)

    return _node(y, (x, w, b), backward)


def film(h: Tensor, st: Tensor) -> Tensor:
    """FiLM modulation h * (s + 1) + t, where st = [s | t] is (R, 2C) and h is (B, C)
    or (B, C, L). s and t broadcast over the length axis, and over the rows when R = 1.
    Any other shapes raise ShapeError."""
    hs, ss = h.data.shape, st.data.shape
    if len(hs) not in (2, 3) or len(ss) != 2 or ss[0] not in (1, hs[0]) or ss[1] != 2 * hs[1]:
        raise ShapeError(f"film needs h (B, C) or (B, C, L) and st (1 or B, 2C), got {hs} and {ss}")
    rows, c = ss[0], hs[1]
    st_b = st.data.reshape(ss + (1,) * (len(hs) - 2))
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


def concat(parts: list[Tensor]) -> Tensor:
    """The parts joined along their last axis."""
    sizes = [p.data.shape[-1] for p in parts]

    def backward(g):
        offset = 0
        for p, size in zip(parts, sizes):
            _accumulate(p, g[..., offset : offset + size])
            offset += size

    return _node(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """x viewed with a new shape; x itself when the shape does not change."""
    out = x.data.reshape(shape)
    if out.shape == x.data.shape:
        return x

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(out, (x,), backward)
