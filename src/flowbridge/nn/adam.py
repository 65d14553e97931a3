"""Adam with bias correction, over flat buffers.

The gradients, first moments and second moments of all parameters live in
three flat buffers of the parameters' one dtype, each parameter a slice in
list order. A step copies the gradients present into their slices and runs
the elementwise update once over each run of consecutive parameters that got
one. Every value meets the same operations in the same order as in a loop
over the parameters, so the result is bitwise that loop's. A parameter
without a gradient keeps its value and its moments.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..exceptions import ValidationError
from .autodiff import Tensor

__all__ = ["Adam"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: list[Tensor], lr: float):
        dtypes = {p.data.dtype for p in params}
        if len(dtypes) > 1:
            raise ValidationError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float64
        self.params = params
        self.lr = lr
        self.step_count = 0
        bounds = list(accumulate((p.data.size for p in params), initial=0))
        self.spans = list(zip(bounds, bounds[1:]))
        # g is overwritten by the denominator once m and v have read it; u is the update.
        self.g, self.m, self.v, self.u = (np.zeros(bounds[-1], dtype=dtype) for _ in range(4))
        self.g_views = [self.g[a:b].reshape(p.data.shape) for p, (a, b) in zip(params, self.spans)]
        self.u_views = [self.u[a:b].reshape(p.data.shape) for p, (a, b) in zip(params, self.spans)]

    def step(self):
        """Apply one update from the gradients currently on the parameters."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        runs: list[list[int]] = []
        for p, g, (a, b) in zip(self.params, self.g_views, self.spans):
            if p.grad is None:
                continue
            # A copy, not an add into zeros, so a -0.0 gradient keeps its sign.
            g[...] = p.grad
            if runs and runs[-1][1] == a:
                runs[-1][1] = b
            else:
                runs.append([a, b])
        for a, b in runs:
            g, m, v, u = self.g[a:b], self.m[a:b], self.v[a:b], self.u[a:b]
            m *= BETA1
            np.multiply(1.0 - BETA1, g, out=u)
            m += u
            v *= BETA2
            np.multiply(g, g, out=g)
            g *= 1.0 - BETA2
            v += g
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += EPS
            np.divide(m, bc1, out=u)
            u /= g
            u *= self.lr
        for p, u in zip(self.params, self.u_views):
            if p.grad is not None:
                p.data -= u
