"""Span tracer for the flowbridge benchmark.

The tracer wraps public functions of the package's layers, as module
attributes and class methods, so that every call records a span: name,
start, end, parent span and op id. Nothing in the package is edited:
`install` swaps the attributes and `uninstall` puts the originals back.
Spans stay in memory until `write_spans` saves them at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter

# The benchmark's own op span: its self time is not a layer's.
BENCH_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self._saved: list[tuple] = []  # (owner, attribute, original value)
        self._last_cost = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self.stack.pop()

    def _in(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr, name, after=None, skip_inside=None):
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if skip_inside is not None and tracer._in(skip_inside):
                return orig(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, out)
            return out

        self._patch(owner, attr, wrapper)

    def _wrap_backward(self, tensor, name):
        """Time the tape closure of one op when Tensor.backward runs it."""
        orig = tensor._backward
        tracer = self

        def backward(grad):
            idx = tracer.begin(name)
            try:
                orig(grad)
            finally:
                tracer.end(idx)

        tensor._backward = backward

    def _wrap_stream(self, owner, attr):
        """Open a new op and a tasks.draw span on every batch a stream yields."""
        orig = getattr(owner, attr)
        tracer = self

        def make_stream(*args, **kwargs):
            inner = orig(*args, **kwargs)

            def stream():
                while True:
                    tracer.op += 1
                    idx = tracer.begin("tasks.draw")
                    try:
                        batch = next(inner)
                    finally:
                        tracer.end(idx)
                    yield batch

            return stream()

        self._patch(owner, attr, make_stream)

    # Counters recorded after a call returns. They keep no array of the
    # package's past the call that needs it: holding one changes when the
    # allocator returns memory to the system, and with it the timings.

    def _pairing_ratio(self, cost, sigma):
        # OT cost of the pairing against the identity pairing, which for a
        # coupling is the independent pairing of the same noise.
        ident = float(np.trace(cost))
        if ident > 0.0:
            self.values["ot_cost_ratio"].append(
                float(cost[np.arange(cost.shape[0]), sigma].sum()) / ident
            )

    def _after_exact(self, args, out):
        cost = args[0].values
        self.counts["solve_exact"] += 1
        self.values["pool_size"].append(cost.shape[0])
        if self._in("coupling.couple"):
            self._pairing_ratio(cost, out.sigma)

    def _after_sinkhorn(self, args, out):
        self.counts["solve_sinkhorn"] += 1
        self.counts["sinkhorn_iterations"] += out.iterations
        self.counts["sinkhorn_converged"] += int(out.converged)
        self.values["pool_size"].append(out.m)
        self._last_cost = args[0].values

    def _after_pairs(self, args, out):
        if self._last_cost is not None:
            self._pairing_ratio(self._last_cost, out)
            self._last_cost = None

    def _after_conv1d(self, args, out):
        x, w = args[0].data, args[1].data
        b, c_in, length = x.shape
        c_out, _, k = w.shape
        self.counts["conv1d"] += 1
        # Computed from shapes: one multiply and one add per tap.
        self.values["conv1d_flop"].append(2.0 * b * c_out * c_in * k * length)
        self._wrap_backward(out, "nn.conv1d_bwd")

    def _after_matmul(self, args, out):
        # Sampling never runs the tape backward, so leave its closures alone.
        if not self._in("nn.velocity"):
            self._wrap_backward(out, "nn.matmul_bwd")

    def _after_velocity(self, args, out):
        self.counts["velocity"] += 1

    def _after_integrate(self, args, out):
        self.counts["sampler_steps"] += out.n_steps

    def install(self, fb) -> None:
        """Wrap the layer boundaries of the flowbridge package `fb`."""
        w = self._wrap
        w(fb.training, "train", "training.loop")
        self._wrap_stream(fb.training, "make_training_stream")
        w(fb.tasks, "gen_cond_ring", "tasks.draw", skip_inside="tasks.draw")
        w(fb.training, "couple_independent", "coupling.couple")
        w(fb.training, "couple_chunked_ot", "coupling.couple")
        w(fb.ot, "cost_matrix", "ot.cost_matrix")
        w(fb.ot, "solve_exact", "ot.solve_exact", self._after_exact)
        w(fb.ot, "solve_sinkhorn", "ot.solve_sinkhorn", self._after_sinkhorn)
        w(fb.ot, "plan_to_pairs", "ot.plan_to_pairs", self._after_pairs)
        w(fb.training, "cfm_loss", "flow.cfm_loss")
        # Inference runs forward inside velocity; that time belongs to velocity.
        w(fb.nn.VectorFieldModel, "forward", "nn.forward", skip_inside="nn.velocity")
        w(fb.nn.VectorFieldModel, "velocity", "nn.velocity", self._after_velocity)
        w(fb.nn.autodiff, "matmul", "nn.matmul_fwd", self._after_matmul)
        w(fb.nn.autodiff, "conv1d", "nn.conv1d_fwd", self._after_conv1d)
        w(fb.nn.Tensor, "backward", "nn.backward")
        w(fb.nn.Adam, "step", "nn.adam_step")
        w(fb.sampler, "integrate", "sampler.integrate", self._after_integrate)
        w(fb.analysis, "empirical_w2", "analysis.empirical_w2")
        w(fb.analysis, "curvature_profile", "analysis.curvature")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Seconds of self time and call count per span name.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return dict(self_s), calls

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
