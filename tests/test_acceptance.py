"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Each test prints
``criterion NN <label>: PASS/FAIL (<measured values>)`` before asserting, so
the printed record survives even when an assertion trips. The three trained
models come from session fixtures in conftest.py.
"""

import itertools
import time

import numpy as np

from flowbridge import ot
from flowbridge.analysis import curvature_profile, estimate_decay
from flowbridge.nn.autodiff import no_grad
from flowbridge.nn.model import ModelConfig, VectorFieldModel
from flowbridge.sampler import gfb_transfer, integrate, schedule_raised_cosine
from flowbridge.tasks import (
    SignalBatch,
    clip_to_sdr,
    compute_c50,
    gen_toy_signal,
    make_reverb_kernel,
)
from flowbridge.training import Coupling, cfm_loss, couple_chunked_ot, couple_independent

from conftest import EIGHT_GAUSS_ITERS, RING_ITERS


def _report(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _pair_cost(x0: np.ndarray, x1: np.ndarray) -> float:
    return float(np.sum((x0.astype(np.float64) - x1.astype(np.float64)) ** 2))


def _brute_force_cost(c: np.ndarray) -> float:
    m = c.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, float(c[np.arange(m), perm].sum()))
    return best


class TestAcceptance:
    def test_01_exact_ot_matches_brute_force(self):
        rng = np.random.default_rng(101)
        t0 = time.time()
        worst = 0.0
        for _ in range(200):
            a = rng.standard_normal((6, 3))
            b = rng.standard_normal((6, 3))
            c = ot.cost_matrix(a, b)
            got = ot.transport_cost(c, ot.solve_exact(c))
            want = _brute_force_cost(c.values)
            worst = max(worst, abs(got - want))
        elapsed = time.time() - t0
        ok = worst <= 1e-9 and elapsed < 5.0
        assert _report(1, "exact OT vs brute force", ok,
                       f"max |cost diff| {worst:.2e}, {elapsed:.2f}s for 200 M=6")

    def test_02_sinkhorn_fidelity(self):
        rng = np.random.default_rng(102)
        t0 = time.time()
        worst_ratio = 0.0
        worst_marginal = 0.0
        for _ in range(50):
            a = rng.standard_normal((8, 4))
            b = rng.standard_normal((8, 4))
            c = ot.cost_matrix(a, b)
            eps = 0.01 * float(c.values.mean())
            plan = ot.solve_sinkhorn(c, epsilon=eps)
            approx = ot.transport_cost(c, plan)
            exact = ot.transport_cost(c, ot.solve_exact(c))
            worst_ratio = max(worst_ratio, approx / exact - 1.0)
            target = 1.0 / c.m
            worst_marginal = max(
                worst_marginal,
                float(np.abs(plan.pi.sum(axis=0) - target).max()),
                float(np.abs(plan.pi.sum(axis=1) - target).max()),
            )
        elapsed = time.time() - t0
        ok = worst_ratio <= 0.02 and worst_marginal <= 1e-6 and elapsed < 10.0
        assert _report(2, "Sinkhorn fidelity", ok,
                       f"worst cost excess {worst_ratio*100:.3f}%, "
                       f"worst marginal dev {worst_marginal:.2e}, {elapsed:.2f}s")

    def test_03_gradient_exactness(self):
        # 2-16-16-2: two residual blocks of width 16 between 2-D projections.
        rng = np.random.default_rng(103)
        config = ModelConfig(signal_length=2, hidden=16, depth=2, dtype="float64")
        model = VectorFieldModel(config, rng)
        for p in model.parameters():
            p.data += 0.05 * rng.standard_normal(p.data.shape)
        x0 = rng.standard_normal((4, 2))
        x1 = rng.standard_normal((4, 2))
        tau = rng.random(4)
        coup = Coupling(x0.astype(np.float64), x1.astype(np.float64))

        def loss_value() -> float:
            with no_grad():
                return cfm_loss(model, coup, tau)

        model.zero_grad()
        cfm_loss(model, coup, tau)
        h = 1e-3
        names = list(model.params)
        worst = 0.0
        for _ in range(20):
            name = names[rng.integers(len(names))]
            p = model.params[name]
            idx = tuple(rng.integers(s) for s in p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + h
            up = loss_value()
            p.data[idx] = orig - h
            down = loss_value()
            p.data[idx] = orig
            fd = (up - down) / (2 * h)
            ana = p.grad[idx]
            scale = max(abs(fd), abs(ana), 1e-8)
            worst = max(worst, abs(fd - ana) / scale)
        ok = worst < 1e-3
        assert _report(3, "gradient exactness", ok,
                       f"max rel err {worst:.2e} over 20 probes, h=1e-3")

    def test_04_coupling_dominance(self):
        rng = np.random.default_rng(104)
        b, n = 8, 16
        strict = 0
        monotone_ok = True
        dominance_ok = True
        for draw in range(100):
            values = rng.standard_normal((b, n)).astype(np.float32)
            batch = SignalBatch(values=values)
            seed = 10_000 + draw
            ind = couple_independent(batch, np.random.default_rng(seed))
            cost_ind = _pair_cost(ind.x0, ind.x1)
            costs = {}
            for n_c in (n, n // 2, n // 4):
                coup = couple_chunked_ot(batch, np.random.default_rng(seed), n_c=n_c)
                costs[n_c] = _pair_cost(coup.x0, coup.x1)
            if any(costs[n_c] > cost_ind + 1e-9 for n_c in costs):
                dominance_ok = False
            if all(costs[n_c] < cost_ind - 1e-12 for n_c in costs):
                strict += 1
            if not (costs[n // 4] <= costs[n // 2] + 1e-9
                    and costs[n // 2] <= costs[n] + 1e-9):
                monotone_ok = False
        ok = dominance_ok and strict >= 95 and monotone_ok
        assert _report(4, "coupling dominance", ok,
                       f"dominated in 100/100: {dominance_ok}, strict in {strict}/100, "
                       f"monotone in n_c: {monotone_ok}")

    def test_05_curvature_ordering(self, eight_gauss_pair):
        res_ind, res_ot = eight_gauss_pair
        schedule = schedule_raised_cosine(25)
        z = np.random.default_rng(77).standard_normal((512, 2)).astype(np.float32)
        prof_ind = curvature_profile(
            [integrate(res_ind.model, z, schedule, direction="backward")]
        )
        prof_ot = curvature_profile(
            [integrate(res_ot.model, z, schedule, direction="backward")]
        )
        reduction = 1.0 - prof_ot.time_average / prof_ind.time_average
        interior = slice(1, -1)
        violations = int(np.sum(prof_ot.mean[interior] >= prof_ind.mean[interior]))
        ok = reduction >= 0.20 and violations == 0
        assert _report(
            5, "curvature ordering", ok,
            f"time-avg {prof_ind.time_average:.4f} -> {prof_ot.time_average:.4f} "
            f"({reduction*100:.1f}% lower, need >=20%), "
            f"interior violations {violations}/23, {EIGHT_GAUSS_ITERS} iters each")

    def test_06_schedule_exactness(self):
        t_steps = 25
        sched = schedule_raised_cosine(t_steps)
        i = np.arange(t_steps + 1)
        expected = 0.5 + 0.5 * np.cos(np.pi * i / t_steps + np.pi)
        worst = float(np.abs(sched.taus - expected).max())
        endpoints = sched.taus[0] == 0.0 and sched.taus[-1] == 1.0
        monotone = bool(np.all(np.diff(sched.taus) > 0))
        uniform_step = 1.0 / t_steps
        steps = np.diff(sched.taus)
        dense_extremes = (steps[0] < uniform_step and steps[-1] < uniform_step
                          and steps[t_steps // 2] > uniform_step)
        ok = worst <= 1e-12 and endpoints and monotone and dense_extremes
        assert _report(6, "raised-cosine schedule", ok,
                       f"max formula dev {worst:.2e}, endpoints exact {endpoints}, "
                       f"monotone {monotone}, denser at extremes {dense_extremes}")

    def test_07_bridge_round_trip(self, eight_gauss_pair, test_points_8g):
        _, res_ot = eight_gauss_pair
        x = test_points_8g

        def median_rel_err(t_steps: int) -> float:
            sched = schedule_raised_cosine(t_steps)
            result = gfb_transfer(res_ot.model, x, sched, None, method="midpoint")
            rel = (np.linalg.norm(result.output - x, axis=1)
                   / np.linalg.norm(x, axis=1))
            return float(np.median(rel))

        err_25 = median_rel_err(25)
        err_100 = median_rel_err(100)
        ok = err_100 <= 0.05 and err_100 < err_25
        assert _report(7, "bridge round trip", ok,
                       f"median rel L2: T=25 {err_25:.5f}, T=100 {err_100:.5f} "
                       f"(need <=0.05 and decreasing), 256 points, midpoint")

    def test_08_conditional_steering(self, ring_model):
        rng = np.random.default_rng(9)
        theta = rng.uniform(0.0, 2.0 * np.pi, 256)
        x_in = (0.7 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
                ).astype(np.float32)
        cond = np.full((256, 1), 1.5, dtype=np.float32)
        sched = schedule_raised_cosine(25)
        bridged = gfb_transfer(ring_model, x_in, sched, cond, gamma=1.0)
        mean_radius = float(np.linalg.norm(bridged.output, axis=1).mean())
        disp_bridge = float(np.linalg.norm(bridged.output - x_in, axis=1).mean())
        z = np.random.default_rng(10).standard_normal((256, 2)).astype(np.float32)
        fresh = integrate(
            ring_model, z, sched, direction="backward", condition=cond, gamma=1.0
        )
        disp_fresh = float(np.linalg.norm(fresh.final - x_in, axis=1).mean())
        ok = abs(mean_radius - 1.5) <= 0.15 and disp_bridge < disp_fresh
        assert _report(
            8, "conditional steering", ok,
            f"mean radius {mean_radius:.3f} (target 1.5 +/- 0.15), "
            f"bridge disp {disp_bridge:.3f} < resample disp {disp_fresh:.3f}: "
            f"{disp_bridge < disp_fresh}, {RING_ITERS} iters")

    def test_09_clip_to_sdr_accuracy(self):
        rng = np.random.default_rng(109)
        worst = 0.0
        for _ in range(50):
            x = gen_toy_signal(1, 128, 8000.0, rng)[0]
            for target in (3.0, 6.0, 12.0):
                _, reached = clip_to_sdr(x, target)
                worst = max(worst, abs(reached - target))
        ok = worst <= 0.1
        assert _report(9, "clip-to-SDR accuracy", ok,
                       f"worst |achieved - target| {worst:.4f} dB over 50 signals "
                       f"x targets {{3, 6, 12}}")

    def test_10_toy_reverb_consistency(self):
        rng = np.random.default_rng(110)
        fs = 8000.0
        worst_rel = 0.0
        for t60 in (0.1, 0.3, 0.6):
            kernel = make_reverb_kernel(t60, fs, duration=max(2.0 * t60, 0.25), rng=rng)
            t60_est = estimate_decay(kernel, fs)
            assert np.isfinite(t60_est)
            worst_rel = max(worst_rel, abs(t60_est - t60) / t60)
        k = make_reverb_kernel(0.3, fs, duration=0.6, rng=rng)
        c50_dev = abs(compute_c50(k, fs) - compute_c50(123.456 * k, fs))
        ok = worst_rel <= 0.10 and c50_dev <= 1e-6
        assert _report(10, "toy-reverb consistency", ok,
                       f"worst T60 rel err {worst_rel*100:.2f}% (need <=10%), "
                       f"C50 scale dev {c50_dev:.2e} dB (need <=1e-6)")

    def test_11_training_determinism(self, tmp_path):
        import json

        from flowbridge.cli import main

        cfg = {
            "task": {"family": "two_moons"},
            "model": {"hidden": 16, "depth": 2},
            "train": {"iterations": 40, "batch_size": 16, "lr": 1e-3, "seed": 4,
                      "coupling": "chunked_ot", "chunk_size": 2, "log_every": 10},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
            outs.append(out)
        ckpt_same = (outs[0] / "model.fbc").read_bytes() == (outs[1] / "model.fbc").read_bytes()
        csv_same = (outs[0] / "loss.csv").read_bytes() == (outs[1] / "loss.csv").read_bytes()
        ok = ckpt_same and csv_same
        assert _report(11, "training determinism", ok,
                       f"checkpoint bitwise identical: {ckpt_same}, "
                       f"loss CSV identical: {csv_same}")
