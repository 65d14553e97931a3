#!/usr/bin/env python3
"""Closed-loop benchmark of the flowbridge package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload planar_ot_train --seed 0 --seconds 25 --trace 0

One process drives one workload as a single closed-loop client: the next op
is issued only after the previous one returns. Inputs come from --seed only.
The package is imported from ./src of the checkout; without it the run
exits with status 2 and prints no result.

Ops are grouped into sessions of a fixed size. A training session is one
`training.train` call of a fixed number of iterations, one op per iteration;
a bridge session is a fixed number of `gfb_transfer` ops. The first few
sessions (the quality sessions) always run in full; more follow until
--seconds have passed, and the last one is cut when they have. Session seeds
derive from the workload seed and the session index, so the quality sessions
are the same work on every run of a seed: the quality metrics (loss_tail,
w2) and the digests come from them and repeat bit for bit while the numerics
stay the same.

Times are reported at a reference host speed: the run samples a fixed
kernel between ops and divides each op's time by the host's slowness around
it (see Speedometer); the raw times are printed beside them and recorded.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 the run alternates untraced and traced sessions of one seed for
--seconds, the traced ones with wrappers on the package's layer boundaries,
and reports per-layer metrics, per op; their counts are exact, and every
session must repeat the same digest. Each run also writes a full record
(and, when traced, its spans) under bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread: one closed-loop client at these shapes runs faster and
# steadier on one thread than on two (planar_ot_train on a 2-core Xeon: 22
# against 25.6 ms per iteration). BLAS reads this when numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
from tracer import BENCH_SPAN, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

# Each setup runs this many times; setup_s is their median.
SETUP_REPEATS = 3
# A run records at most this many op failures with their tracebacks.
MAX_ERRORS = 5
# The host's speed is sampled for CALIBRATE_FOR_S every CALIBRATE_EVERY_S;
# times are reported at the speed where the reference kernel takes
# SPEED_REF_MS (see Speedometer).
CALIBRATE_EVERY_S = 2.0
CALIBRATE_FOR_S = 0.15
SPEED_REF_MS = 1.0
# Output radius of ring_bridge must lie within this of the target.
RING_TARGET = 1.5
RING_RADIUS_TOL = 0.15

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "loss_tail": "mse",
    "w2": "rms",
    "peak_rss_mb": "MB",
}


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class Speedometer:
    """Tracks the host's speed with a fixed reference kernel.

    On a shared host the same code runs up to 1.5x slower for seconds to
    minutes at a time (other tenants, clock changes): measured with this
    kernel, 0.73 to 1.32 ms over four minutes on a 2-core Xeon. The run
    samples the kernel every CALIBRATE_EVERY_S of op time, between ops, and
    divides each op's time by the host's slowness around it, so runs at
    different times can be compared. A sample is the kernel's mean time over
    CALIBRATE_FOR_S; slowness is its ratio to SPEED_REF_MS.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 64))
        self._ab = np.empty_like(self._a)
        self._b = rng.random((300, 300))
        self._sorted = np.empty_like(self._b)
        self.marks: list[tuple[float, float, float]] = []  # (start, end, kernel ms)

    def _kernel(self) -> None:
        # It works in arrays made once: freeing a large array here would
        # raise glibc's mmap threshold and so change how the package's own
        # temporaries are allocated (planar_ot_train: 336 instead of 1,270
        # page faults per iteration).
        x = 0.0
        for i in range(3000):
            x += i * 0.5
        for _ in range(20):
            np.matmul(self._a, self._a, out=self._ab)
        np.copyto(self._sorted, self._b)
        self._sorted.sort(axis=1)

    def mark(self) -> None:
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < CALIBRATE_FOR_S:
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        self.marks.append((start, time.perf_counter(), 1e3 * statistics.fmean(times)))

    def due(self) -> bool:
        return not self.marks or time.perf_counter() - self.marks[-1][1] >= CALIBRATE_EVERY_S

    def slowness(self, t0: float, t1: float) -> float:
        """Mean of the last sample before t0 and the first after t1, over the reference."""
        ends = [m[1] for m in self.marks]
        i = bisect.bisect_right(ends, t0) - 1
        j = bisect.bisect_left([m[0] for m in self.marks], t1)
        near = [self.marks[k][2] for k in (i, j) if 0 <= k < len(self.marks)]
        return statistics.fmean(near) / SPEED_REF_MS

    def normalise(self, spans: list[tuple[float, float]]) -> list[float]:
        """Durations of (start, end) spans at the reference speed, in seconds."""
        return [(t1 - t0) / self.slowness(t0, t1) for t0, t1 in spans]


class Deadline(Exception):
    """Ends a session that runs past the run's deadline, after a whole op."""


class OpClock:
    """Records (start, end) of each training iteration; an Adam step ends one.

    Between iterations it lets the speedometer take its samples, outside the
    ops' times, and raises Deadline once the deadline, if any, has passed.
    """

    def __init__(self, adam_cls, speed: Speedometer | None, deadline: float | None):
        self.adam_cls = adam_cls
        self.speed = speed
        self.deadline = deadline
        self.ops: list[tuple[float, float]] = []

    def __enter__(self):
        orig = self.orig = self.adam_cls.step
        ops, speed, deadline = self.ops, self.speed, self.deadline
        self.start = time.perf_counter()

        def step(opt):
            orig(opt)
            ops.append((self.start, time.perf_counter()))
            if deadline is not None and ops[-1][1] >= deadline:
                raise Deadline
            if speed is not None and speed.due():
                speed.mark()
            self.start = time.perf_counter()

        self.adam_cls.step = step
        return self

    def __exit__(self, *exc):
        self.adam_cls.step = self.orig


class Session:
    """Outcome of one session: per-op (start, end) times and check results."""

    def __init__(self):
        self.ops: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.samples = 0
        self.errors: list[str] = []
        self.info: dict = {}


class PairDistances:
    """Records, per training iteration, the W2 of the pairing the coupling made.

    That is the root mean squared distance between each data sample and the
    noise sample it trains against: what the OT coupling minimises.
    """

    def __init__(self, training, coupling: str):
        self.training = training
        self.attr = "couple_independent" if coupling == "independent" else "couple_chunked_ot"
        self.w2: list[float] = []

    def __enter__(self):
        orig = self.orig = getattr(self.training, self.attr)
        w2 = self.w2

        def couple(*args, **kwargs):
            c = orig(*args, **kwargs)
            d = c.x0.astype(np.float64) - c.x1
            w2.append(math.sqrt(float(np.einsum("ij,ij->", d, d)) / d.shape[0]))
            return c

        setattr(self.training, self.attr, couple)
        return self

    def __exit__(self, *exc):
        setattr(self.training, self.attr, self.orig)


class TrainingWorkload:
    """One op is one iteration of `training.train`."""

    def __init__(self, fb, task, model, train, session_size, quality_sessions, trace_size, warmup_iters):
        self.fb = fb
        self.task = fb.tasks.TaskSpec(**task)
        self.model_config = fb.nn.ModelConfig(**model)
        self.train_kwargs = train
        self.session_size = session_size
        self.quality_sessions = quality_sessions
        self.trace_size = trace_size
        self.warmup_iters = warmup_iters

    def _config(self, iterations, seed):
        return self.fb.training.TrainConfig(iterations=iterations, seed=seed, log_every=1, **self.train_kwargs)

    def setup(self, seed: int) -> None:
        """Warm up with one short training run."""
        self.fb.training.train(self.model_config, self.task, self._config(self.warmup_iters, _seed(seed, 2)))

    def session(self, seed: int, k: int, speed: Speedometer | None, tracer=None,
                deadline: float | None = None) -> Session:
        fb = self.fb
        s = Session()
        result = None
        cut = False
        # A traced session runs the package's code alone.
        pairs = PairDistances(fb.training, self.train_kwargs["coupling"]) if tracer is None else nullcontext()
        with OpClock(fb.nn.Adam, speed, deadline) as clock, pairs:
            try:
                result = fb.training.train(self.model_config, self.task, self._config(k, seed))
            except Deadline:
                cut = True
            except Exception:
                s.errors.append(traceback.format_exc())
        s.ops = clock.ops
        done = len(s.ops)
        s.samples = done * self.train_kwargs["batch_size"]
        if cut:
            # train raises on a non-finite loss, so every loss so far was finite.
            s.attempted = done
            return s
        if result is None:
            s.attempted = min(done + 1, k)
            s.failed = s.attempted
            return s
        s.attempted = k
        losses = np.array([loss for _, loss in result.history], dtype=np.float64)
        tail = float(losses[-max(1, k // 10):].mean())
        ok = np.isfinite(losses)
        if len(losses) != k or not tail < losses[0]:
            s.failed = k
            s.errors.append(f"loss_tail {tail} not below first loss {losses[0]} over {len(losses)} losses")
        else:
            s.failed = int((~ok).sum())
        s.info = {"loss_tail": tail, "loss_first": float(losses[0]), "digest": _digest(losses)}
        if tracer is None:
            s.info["w2"] = statistics.fmean(pairs.w2)
        return s

    def quality(self, sessions: list[Session]) -> tuple[dict, dict]:
        """loss_tail and the pairing's W2 averaged over the quality sessions, and the loss digests."""
        if not all(s.info for s in sessions):
            return {"loss_tail": math.nan, "w2": math.nan}, {}
        quality = {
            "loss_tail": statistics.fmean(s.info["loss_tail"] for s in sessions),
            "loss_first": [s.info["loss_first"] for s in sessions],
            "w2": statistics.fmean(s.info["w2"] for s in sessions),
        }
        return quality, {"loss": [s.info["digest"] for s in sessions]}


class RingBridge:
    """One op bridges fresh ring points to radius 1.5 and scores them."""

    points = 512
    steps = 25
    gamma = 1.5
    session_size = 20
    quality_sessions = 2
    trace_size = 10
    train_iters = 300
    # The bridged model is a fixture like the acceptance suite's ring model:
    # trained from a fixed seed, so W2 and the radius check vary with the op
    # inputs only.
    train_seed = 21

    def __init__(self, fb):
        self.fb = fb

    def setup(self, seed: int) -> None:
        """Train the conditional ring model the ops bridge through."""
        fb = self.fb
        cfg = fb.training.TrainConfig(
            iterations=self.train_iters, batch_size=256, lr=1e-3, seed=self.train_seed, log_every=1
        )
        mc = fb.nn.ModelConfig(signal_length=2, hidden=64, depth=3, cond_dim=1)
        res = fb.training.train(mc, fb.tasks.TaskSpec(family="cond_ring"), cfg)
        self.model = res.model
        self.schedule = fb.sampler.schedule_raised_cosine(self.steps)
        losses = [loss for _, loss in res.history]
        self.setup_info = {
            "loss_tail": float(statistics.fmean(losses[-max(1, len(losses) // 10):])),
            "loss_digest": _digest(np.array(losses, dtype=np.float64)),
        }

    def op(self, rng) -> tuple[bool, dict]:
        fb = self.fb
        m = self.points
        x, _ = fb.tasks.gen_cond_ring(m, rng)
        cond = np.full((m, 1), RING_TARGET, dtype=np.float32)
        res = fb.sampler.gfb_transfer(self.model, x, self.schedule, cond, gamma=self.gamma)
        theta = rng.uniform(0.0, 2.0 * np.pi, m)
        ref = RING_TARGET * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ref = (ref + 0.02 * rng.standard_normal((m, 2))).astype(np.float32)
        w2 = fb.analysis.empirical_w2(res.output, ref)
        curv_enc = fb.analysis.curvature_profile([res.encode]).time_average
        curv_dec = fb.analysis.curvature_profile([res.decode]).time_average
        radius = float(np.median(np.linalg.norm(res.output, axis=1)))
        ok = (
            bool(np.all(np.isfinite(res.latent)))
            and bool(np.all(np.isfinite(res.output)))
            and math.isfinite(w2)
            and abs(radius - RING_TARGET) <= RING_RADIUS_TOL
        )
        info = {"w2": float(w2), "radius": radius, "curv_enc": curv_enc, "curv_dec": curv_dec,
                "out_digest": _digest(res.output)}
        return ok, info

    def session(self, seed: int, k: int, speed: Speedometer | None, tracer=None,
                deadline: float | None = None) -> Session:
        s = Session()
        infos = []
        for i in range(k):
            rng = np.random.default_rng(_seed(seed, i))
            if tracer is not None:
                tracer.op += 1
                span = tracer.begin(BENCH_SPAN)
            t0 = time.perf_counter()
            try:
                ok, info = self.op(rng)
            except Exception:
                ok, info = False, None
                if len(s.errors) < MAX_ERRORS:
                    s.errors.append(traceback.format_exc())
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(span)
            s.ops.append((t0, t1))
            if speed is not None and speed.due():
                speed.mark()
            s.attempted += 1
            s.failed += not ok
            if info is not None:
                infos.append(info)
            if deadline is not None and t1 >= deadline:
                break
        s.samples = self.points * s.attempted
        if infos:
            s.info = {
                "w2": statistics.fmean(i["w2"] for i in infos),
                "radius_median": statistics.median(i["radius"] for i in infos),
                "curvature_encode": statistics.fmean(i["curv_enc"] for i in infos),
                "curvature_decode": statistics.fmean(i["curv_dec"] for i in infos),
                "digest": hashlib.sha256("".join(i["out_digest"] for i in infos).encode()).hexdigest()[:16],
            }
        return s

    def quality(self, sessions: list[Session]) -> tuple[dict, dict]:
        """Mean W2 over the ops of the quality sessions; loss_tail of set-up training."""
        infos = [s.info for s in sessions]
        quality = {
            "loss_tail": self.setup_info["loss_tail"],
            "w2": statistics.fmean(i["w2"] for i in infos) if all(infos) else math.nan,
            "radius_median": [i.get("radius_median") for i in infos],
            "curvature_encode": [i.get("curvature_encode") for i in infos],
            "curvature_decode": [i.get("curvature_decode") for i in infos],
        }
        digests = {"setup_loss": self.setup_info["loss_digest"], "outputs": [i.get("digest") for i in infos]}
        return quality, digests


def make_workload(fb, name: str):
    if name == "planar_ot_train":
        # The paper's headline configuration and the acceptance-suite fixture.
        return TrainingWorkload(
            fb,
            task=dict(family="eight_gaussians"),
            model=dict(signal_length=2, hidden=64, depth=3),
            train=dict(batch_size=256, lr=1e-3, coupling="chunked_ot", chunk_size=2, ot_method="exact"),
            session_size=1000, quality_sessions=1, trace_size=200, warmup_iters=10,
        )
    if name == "signal_conv_train":
        # The only workload on the conv backbone, Sinkhorn and the reverb stream.
        return TrainingWorkload(
            fb,
            task=dict(family="toy_signal", n=256, degradation="reverb"),
            model=dict(signal_length=256, backbone="conv", hidden=32, depth=3, kernel_size=5, cond_dim=2),
            train=dict(batch_size=16, lr=1e-3, coupling="chunked_ot", chunk_size=16,
                       ot_method="sinkhorn", sinkhorn_epsilon=1.0),
            session_size=20, quality_sessions=2, trace_size=10, warmup_iters=1,
        )
    if name == "ring_bridge":
        return RingBridge(fb)
    raise KeyError(name)


WORKLOADS = ("planar_ot_train", "ring_bridge", "signal_conv_train")


class Phase:
    """Sessions run back to back; the totals the metrics come from."""

    def __init__(self):
        self.sessions: list[Session] = []
        self.minor_faults_per_op = 0.0

    def op_s(self, speed: Speedometer | None = None) -> list[float]:
        """Op durations in seconds, at the reference speed when speed is given."""
        spans = [op for s in self.sessions for op in s.ops]
        return speed.normalise(spans) if speed else [t1 - t0 for t0, t1 in spans]

    @property
    def attempted(self):
        return sum(s.attempted for s in self.sessions)

    @property
    def failed(self):
        return sum(s.failed for s in self.sessions)

    def samples_per_s(self, speed: Speedometer | None = None) -> float:
        return sum(s.samples for s in self.sessions) / sum(self.op_s(speed))


def run_phase(wl, seeds, size: int, budget_s: float, min_sessions: int, speed: Speedometer) -> Phase:
    """Run min_sessions whole sessions, then more until budget_s has passed.

    seeds(i) is the seed of session i. A session begun after min_sessions is
    cut at the first op that ends past budget_s.
    """
    ph = Phase()
    faults = minor_faults()
    deadline = time.perf_counter() + budget_s
    while len(ph.sessions) < min_sessions or time.perf_counter() < deadline:
        whole = len(ph.sessions) < min_sessions
        if speed.due():
            speed.mark()
        ph.sessions.append(wl.session(seeds(len(ph.sessions)), size, speed, deadline=None if whole else deadline))
    ph.minor_faults_per_op = (minor_faults() - faults) / ph.attempted
    speed.mark()
    return ph


def run_pairs(wl, seed: int, budget_s: float, tracer: Tracer, speed: Speedometer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced sessions of one seed until budget_s has passed.

    Every session repeats the same work, so the traced ones give exact counts
    per op however many run, and each traced session is timed beside an
    untraced twin at much the same host speed. The speed is sampled only
    between sessions, so that the samples stay outside every span.
    """
    untraced, traced = Phase(), Phase()
    deadline = time.perf_counter() + budget_s
    while not traced.sessions or time.perf_counter() < deadline:
        speed.mark()
        faults = minor_faults()
        untraced.sessions.append(wl.session(seed, wl.trace_size, None))
        if not traced.sessions:
            # Counted before any tracing: the tracer's own allocations change it.
            untraced.minor_faults_per_op = (minor_faults() - faults) / untraced.attempted
        speed.mark()
        tracer.install(wl.fb)
        try:
            traced.sessions.append(wl.session(seed, wl.trace_size, None, tracer))
        finally:
            tracer.uninstall()
    speed.mark()
    return untraced, traced


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def machine_info() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def e2e_metrics(ph: Phase, setups: list[tuple[float, float]], quality: dict, speed: Speedometer | None) -> dict:
    """End-to-end metrics; times at the reference speed when speed is given."""
    op_ms = [t * 1e3 for t in ph.op_s(speed)]
    setup_s = speed.normalise(setups) if speed else [t1 - t0 for t0, t1 in setups]
    return {
        "setup_s": statistics.median(setup_s),
        "samples_per_s": ph.samples_per_s(speed),
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p90": percentile(op_ms, 90),
        "loss_tail": quality["loss_tail"],
        "w2": quality["w2"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


PER_LAYER_TIMES = {
    # metric name: span name whose self time it reports
    "tasks.draw_ms": "tasks.draw",
    "coupling.couple_ms": "coupling.couple",
    "ot.cost_matrix_ms": "ot.cost_matrix",
    "ot.solve_exact_ms": "ot.solve_exact",
    "ot.solve_sinkhorn_ms": "ot.solve_sinkhorn",
    "ot.plan_to_pairs_ms": "ot.plan_to_pairs",
    "flow.cfm_loss_ms": "flow.cfm_loss",
    "nn.forward_ms": "nn.forward",
    "nn.backward_ms": "nn.backward",
    "nn.adam_step_ms": "nn.adam_step",
    "nn.conv1d_fwd_ms": "nn.conv1d_fwd",
    "nn.conv1d_bwd_ms": "nn.conv1d_bwd",
    "nn.matmul_fwd_ms": "nn.matmul_fwd",
    "nn.matmul_bwd_ms": "nn.matmul_bwd",
    "nn.velocity_ms": "nn.velocity",
    "sampler.integrate_ms": "sampler.integrate",
    "analysis.empirical_w2_ms": "analysis.empirical_w2",
    "analysis.curvature_ms": "analysis.curvature",
    "training.loop_ms": "training.loop",
}


PER_LAYER = {
    **{name: "ms" for name in PER_LAYER_TIMES},
    "tasks.draw_calls": "count",
    "coupling.ot_cost_ratio": "1",
    "ot.solve_exact_calls": "count",
    "ot.pool_size": "count",
    "ot.sinkhorn_iterations": "count",
    "ot.sinkhorn_converged_frac": "1",
    "nn.conv1d_calls": "count",
    "nn.conv1d_gflop": "GFLOP",
    "nn.velocity_calls": "count",
    "sampler.steps": "count",
    "mem.minor_faults": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_frac": "1",
}


def layer_report(tracer: Tracer, traced: Phase, untraced: Phase, speed: Speedometer) -> tuple[dict, list[str], dict]:
    """Per-op layer metrics, a self-time table and the exact counts.

    Span times are as measured; only the overhead fraction compares
    throughput at the reference speed.
    """
    n = traced.attempted
    op_total = sum(traced.op_s())
    self_s, calls = tracer.self_times()
    c, v = tracer.counts, tracer.values
    exact = {
        "tasks.draw_calls": calls["tasks.draw"] / n,
        "ot.solve_exact_calls": c["solve_exact"] / n,
        "ot.pool_size": statistics.fmean(v["pool_size"]) if v["pool_size"] else 0.0,
        "ot.sinkhorn_iterations": c["sinkhorn_iterations"] / n,
        "nn.conv1d_calls": c["conv1d"] / n,
        "nn.conv1d_gflop": sum(v["conv1d_flop"]) / 1e9 / n,
        "nn.velocity_calls": c["velocity"] / n,
        "sampler.steps": c["sampler_steps"] / n,
    }
    m = {name: 1e3 * self_s.get(span, 0.0) / n for name, span in PER_LAYER_TIMES.items()}
    m.update(exact)
    m["coupling.ot_cost_ratio"] = statistics.fmean(v["ot_cost_ratio"]) if v["ot_cost_ratio"] else 0.0
    m["ot.sinkhorn_converged_frac"] = c["sinkhorn_converged"] / c["solve_sinkhorn"] if c["solve_sinkhorn"] else 0.0
    layer_s = sum(t for name, t in self_s.items() if name != BENCH_SPAN)
    m["trace.unattributed_ms"] = 1e3 * (op_total - layer_s) / n
    m["trace.overhead_frac"] = 1.0 - traced.samples_per_s(speed) / untraced.samples_per_s(speed)
    m["mem.minor_faults"] = untraced.minor_faults_per_op

    lines = [f"self time per op over {n} traced ops ({1e3 * op_total / n:.3f} ms/op):"]
    for name, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        if name == BENCH_SPAN:
            continue
        lines.append(f"  {name:24s} {1e3 * t / n:10.4f} ms  {100 * t / op_total:6.2f}%  {calls[name] / n:8.2f} calls")
    rest = op_total - layer_s
    lines.append(f"  {'(unattributed)':24s} {1e3 * rest / n:10.4f} ms  {100 * rest / op_total:6.2f}%")
    layers: dict[str, float] = {}
    for name, t in self_s.items():
        if name != BENCH_SPAN:
            layer = name.removesuffix("_fwd").removesuffix("_bwd")
            layers[layer] = layers.get(layer, 0.0) + t
    dominant = max(layers, key=layers.get)
    lines.append(f"dominant layer: {dominant} ({100 * layers[dominant] / op_total:.1f}% of op time)")
    return m, lines, exact


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=OUT_DIR, help="directory for the run record")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "flowbridge" / "__init__.py").is_file():
        print(f"error: flowbridge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flowbridge
    import flowbridge.analysis
    import flowbridge.nn
    import flowbridge.ot
    import flowbridge.sampler
    import flowbridge.tasks
    import flowbridge.training

    if Path(flowbridge.__file__).resolve().parent != (SRC / "flowbridge").resolve():
        print(f"error: imported flowbridge from {flowbridge.__file__}, not {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    info = machine_info()
    wl = make_workload(flowbridge, args.workload)

    speed = Speedometer()
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.mark()
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setups.append((t0, time.perf_counter()))
    speed.mark()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "setup_runs_s": [t1 - t0 for t0, t1 in setups],
    }
    report_lines = []
    if args.trace:
        tracer = Tracer()
        untraced, main_phase = run_pairs(wl, _seed(args.seed, 101), args.seconds, tracer, speed)
        phases = [untraced, main_phase]
        per_layer, report_lines, exact = layer_report(tracer, main_phase, untraced, speed)
        # Every session did the same work; tracing must not change its numerics.
        digests = {"untraced": untraced.sessions[0].info.get("digest"), "traced": main_phase.sessions[0].info.get("digest")}
        for s in untraced.sessions + main_phase.sessions:
            if s.info.get("digest") != digests["untraced"]:
                s.failed = s.attempted
                s.errors.append(f"session digest {s.info.get('digest')} != first untraced {digests['untraced']}")
        record.update(per_layer=per_layer, exact_counts=exact, digests=digests, untraced_ops=untraced.attempted)
    else:
        main_phase = run_phase(wl, lambda i: _seed(args.seed, 100, i), wl.session_size, args.seconds,
                               wl.quality_sessions, speed)
        phases = [main_phase]
        quality, digests = wl.quality(main_phase.sessions[: wl.quality_sessions])
        metrics = e2e_metrics(main_phase, setups, quality, speed)
        record.update(
            quality=quality,
            digests=digests,
            minor_faults_per_op=main_phase.minor_faults_per_op,
            end_to_end=metrics,
            end_to_end_raw=e2e_metrics(main_phase, setups, quality, None),
        )
    record.update(
        sessions=len(main_phase.sessions),
        ops=len(main_phase.op_s()),
        op_ms=[1e3 * t for t in main_phase.op_s()],
        speed_samples_ms=[m[2] for m in speed.marks],
    )

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        errors=[e for p in phases for s in p.sessions for e in s.errors][:MAX_ERRORS],
        load_avg_start=load_start,
        load_avg_end=os.getloadavg(),
    )

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(args.out / f"{stem}-spans.jsonl")

    print(f"{args.workload} seed={args.seed} ops={record['ops']} sessions={record['sessions']}")
    if not args.trace:
        print(f"  {'metric':14s} {'ref. speed':>14s} {'as measured':>14s}")
        for name, unit in END_TO_END.items():
            print(f"  {name:14s} {metrics[name]:14.6g} {record['end_to_end_raw'][name]:14.6g} {unit}")
    print(f"  {'failed_frac':14s} {failed / attempted:14.6g} 1  ({failed} of {attempted} ops)")
    for line in report_lines:
        print(line)
    for err in record["errors"]:
        print(err, file=sys.stderr)

    if args.trace:
        out_metrics = {k: {"value": record["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
