"""The benchmark (bench/) still runs against the package.

The tracer (bench/tracer.py) patches package functions by name, and each
workload of bench/run.py checks its own results; a rename or a broken layer
in the package would otherwise surface only when someone runs the benchmark.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import flowbridge
import flowbridge.analysis
import flowbridge.nn
import flowbridge.ot
import flowbridge.sampler
import flowbridge.tasks
import flowbridge.training
from flowbridge.nn import ModelConfig
from flowbridge.tasks import TaskSpec
from flowbridge.training import TrainConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    t = Tracer()
    try:
        # Inside the try: an install that fails half-way must not leave patches behind.
        t.install(flowbridge)
        yield t
    finally:
        t.uninstall()


def test_tracer_hooks_see_every_layer(tracer):
    fb = flowbridge
    train = fb.training.train
    train(
        ModelConfig(signal_length=2, hidden=8, depth=1),
        TaskSpec("eight_gaussians"),
        TrainConfig(iterations=2, batch_size=8, coupling="chunked_ot", chunk_size=2),
    )
    train(
        ModelConfig(signal_length=16, backbone="conv", hidden=4, depth=1, kernel_size=3,
                    cond_dim=1),
        TaskSpec("toy_signal", n=16, degradation="clip"),
        TrainConfig(iterations=2, batch_size=2, coupling="chunked_ot", chunk_size=4,
                    ot_method="sinkhorn", sinkhorn_epsilon=1.0),
    )
    ring = train(
        ModelConfig(signal_length=2, hidden=8, depth=1, cond_dim=1),
        TaskSpec("cond_ring"),
        TrainConfig(iterations=2, batch_size=8),
    ).model
    x, _ = fb.tasks.gen_cond_ring(8, np.random.default_rng(0))
    result = fb.sampler.gfb_transfer(
        ring, x, fb.sampler.schedule_raised_cosine(3), np.full((8, 1), 1.5, dtype=np.float32)
    )
    fb.analysis.empirical_w2(result.output, x)
    fb.analysis.curvature_profile([result.encode])
    tracer.uninstall()

    for name in ("solve_exact", "solve_sinkhorn", "conv1d", "velocity", "sampler_steps"):
        assert tracer.counts[name] > 0, name
    spans = {s[0] for s in tracer.spans}
    for name in ("training.loop", "tasks.draw", "coupling.couple", "ot.cost_matrix",
                 "ot.plan_to_pairs", "flow.cfm_loss", "nn.forward", "nn.matmul_fwd",
                 "nn.matmul_bwd", "nn.conv1d_bwd", "nn.backward", "nn.adam_step",
                 "sampler.integrate", "analysis.empirical_w2", "analysis.curvature"):
        assert name in spans, name


@pytest.fixture
def bench_run(monkeypatch):
    # run.py pins these at import; setenv restores them after the test.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    return run


def test_every_workload_passes_its_own_check(bench_run):
    # Each workload's first quality session at the seed a `--seed 0` run gives
    # it, with the checks that decide the run's `correct`; planar_ot_train's
    # 1000-iteration session is cut to 20 iterations.
    for name in bench_run.WORKLOADS:
        wl = bench_run.make_workload(flowbridge, name)
        wl.setup(0)
        size = 20 if name == "planar_ot_train" else wl.session_size
        s = wl.session(bench_run._seed(0, 100, 0), size, None)
        assert (s.attempted, s.failed, s.errors) == (size, 0, []), name
        if isinstance(wl, bench_run.TrainingWorkload):
            assert math.isfinite(s.info["w2"]), name
