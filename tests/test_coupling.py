"""Tests for the data/noise couplings and their containers."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbridge import ot
from flowbridge.exceptions import ShapeError, ValidationError
from flowbridge.tasks import SignalBatch, TaskSpec, make_training_stream
from flowbridge.training import Coupling, couple_chunked_ot, couple_independent


def _batch(rng, b=4, n=16, k=None):
    values = rng.standard_normal((b, n)).astype(np.float32)
    cond = None if k is None else rng.standard_normal((b, k)).astype(np.float32)
    return SignalBatch(values, cond)


class TestSignalBatch:
    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValidationError):
            SignalBatch(np.zeros((2, 4)))

    def test_rejects_non_2d_values(self):
        with pytest.raises(ShapeError, match=r"batch values must be \(B, N\)"):
            SignalBatch(np.zeros(4, dtype=np.float32))

    def test_rejects_float64_condition(self):
        with pytest.raises(ValidationError, match="condition must be float32, got float64"):
            SignalBatch(np.zeros((2, 4), dtype=np.float32), np.zeros((2, 1)))

    def test_rejects_nan(self):
        v = np.zeros((2, 4), dtype=np.float32)
        v[0, 0] = np.nan
        with pytest.raises(ValidationError):
            SignalBatch(v)

    def test_rejects_condition_row_mismatch(self):
        with pytest.raises(ShapeError):
            SignalBatch(
                np.zeros((2, 4), dtype=np.float32),
                np.zeros((3, 1), dtype=np.float32),
            )


class TestCoupleIndependent:
    def test_noise_is_standard_gaussian(self):
        rng = np.random.default_rng(11)
        batch = _batch(rng, b=64, n=256)
        cpl = couple_independent(batch, rng)
        assert abs(float(cpl.x1.mean())) < 0.02
        assert abs(float(cpl.x1.std()) - 1.0) < 0.02

    def test_data_passes_through_untouched(self):
        rng = np.random.default_rng(12)
        batch = _batch(rng)
        cpl = couple_independent(batch, rng)
        assert cpl.x0 is batch.values

    def test_condition_carried(self):
        rng = np.random.default_rng(13)
        batch = _batch(rng, k=3)
        cpl = couple_independent(batch, rng)
        assert cpl.condition is batch.condition

    def test_seed_reproducibility(self):
        batch = _batch(np.random.default_rng(14))
        a = couple_independent(batch, np.random.default_rng(99))
        b = couple_independent(batch, np.random.default_rng(99))
        assert np.array_equal(a.x1, b.x1)


class TestCoupleChunkedOT:
    def test_noise_is_permutation_of_independent_draw(self):
        # Same seed, same noise marginal: the OT coupling only reorders
        # chunks, never changes their contents.
        batch = _batch(np.random.default_rng(21), b=4, n=16)
        indep = couple_independent(batch, np.random.default_rng(7))
        coupled = couple_chunked_ot(batch, np.random.default_rng(7), n_c=4)
        got = np.sort(coupled.x1.ravel())
        want = np.sort(indep.x1.ravel())
        assert np.array_equal(got, want)

    def test_cost_never_above_independent(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            batch = _batch(rng, b=4, n=16)
            seed = int(rng.integers(2**32))
            indep = couple_independent(batch, np.random.default_rng(seed))
            coupled = couple_chunked_ot(batch, np.random.default_rng(seed), n_c=4)
            cost_i = float(np.sum((indep.x0 - indep.x1) ** 2))
            cost_c = float(np.sum((coupled.x0 - coupled.x1) ** 2))
            assert cost_c <= cost_i + 1e-6

    def test_matches_manual_solve(self):
        batch = _batch(np.random.default_rng(23), b=2, n=8)
        seed = 31
        noise = np.random.default_rng(seed).standard_normal((2, 8), dtype=np.float32)
        c = ot.cost_matrix(batch.values.reshape(-1, 4), noise.reshape(-1, 4))
        sigma = ot.solve_exact(c).sigma
        want = noise.reshape(-1, 4)[sigma].reshape(2, 8)
        got = couple_chunked_ot(batch, np.random.default_rng(seed), n_c=4)
        assert np.array_equal(got.x1, want)

    def test_whole_sample_chunks_permute_rows(self):
        # n_c == N degenerates to sample-level minibatch OT: each x1 row is
        # one of the drawn noise rows.
        batch = _batch(np.random.default_rng(24), b=6, n=8)
        coupled = couple_chunked_ot(batch, np.random.default_rng(3), n_c=8)
        raw = np.random.default_rng(3).standard_normal((6, 8), dtype=np.float32)
        matched = {tuple(row) for row in coupled.x1}
        assert matched == {tuple(row) for row in raw}

    @pytest.mark.parametrize("n_c", [3, 0])
    def test_rejects_chunk_size_not_dividing_the_length(self, n_c):
        batch = _batch(np.random.default_rng(26), b=2, n=10)
        with pytest.raises(ValidationError):
            couple_chunked_ot(batch, np.random.default_rng(0), n_c=n_c)

    def test_sinkhorn_route(self):
        batch = _batch(np.random.default_rng(25), b=4, n=16)
        cpl = couple_chunked_ot(batch, np.random.default_rng(4), n_c=4, epsilon=0.1)
        assert cpl.x1.shape == batch.values.shape

    def test_condition_carried(self):
        batch = _batch(np.random.default_rng(28), k=2)
        cpl = couple_chunked_ot(batch, np.random.default_rng(0), n_c=4)
        assert cpl.condition is batch.condition

    def test_eight_gaussian_pairings_golden_digest(self, monkeypatch):
        """The first 20 pairings of the seed-11 8-Gaussian training are bit for
        bit the ones the exact solver has always made."""
        sigmas = []
        solve = ot.solve_exact

        def recording_solve(c):
            a = solve(c)
            sigmas.append(a.sigma)
            return a

        monkeypatch.setattr(ot, "solve_exact", recording_solve)
        # The data and coupling child streams of train(seed=11).
        _, data_rng, couple_rng, _, _ = map(
            np.random.default_rng, np.random.SeedSequence(11).spawn(5)
        )
        stream = make_training_stream(TaskSpec("eight_gaussians"), 256, data_rng)
        for _ in range(20):
            couple_chunked_ot(next(stream), couple_rng, n_c=2)
        h = hashlib.sha256()
        for sigma in sigmas:
            h.update(sigma.astype(np.int64).tobytes())
        assert len(sigmas) == 20
        assert h.hexdigest() == "e8bb2d5443597b879528f26c55a73251f2596b7711a50093e3f7b12932bb0815"


class TestCoupling:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Coupling(np.zeros((2, 4)), np.zeros((2, 5)))

    def test_non_2d_endpoints_rejected(self):
        with pytest.raises(ShapeError, match=r"coupling endpoints must be \(B, N\)"):
            Coupling(np.zeros(4), np.zeros(4))


# Batch size B, chunk size n_c, chunks per row (so n_c divides N), and a seed.
_shapes = st.tuples(
    st.integers(1, 6), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**16)
)


def _drawn(shape):
    """Batch, chunk size and seed for one hypothesis example."""
    b, n_c, per_row, seed = shape
    values = np.random.default_rng(seed).standard_normal((b, n_c * per_row)).astype(np.float32)
    return SignalBatch(values), n_c, seed


def _chunk_rows(values, n_c):
    return sorted(map(tuple, values.reshape(-1, n_c)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=_shapes)
def test_exact_coupling_permutes_the_drawn_chunks_at_no_higher_cost(shape):
    batch, n_c, seed = _drawn(shape)
    indep = couple_independent(batch, np.random.default_rng(seed + 1))
    coupled = couple_chunked_ot(batch, np.random.default_rng(seed + 1), n_c=n_c)
    assert _chunk_rows(coupled.x1, n_c) == _chunk_rows(indep.x1, n_c)
    cost_i = float(np.sum((indep.x0.astype(np.float64) - indep.x1) ** 2))
    cost_c = float(np.sum((coupled.x0.astype(np.float64) - coupled.x1) ** 2))
    assert cost_c <= cost_i + 1e-9 * (1.0 + cost_i)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=_shapes, epsilon=st.sampled_from([0.05, 0.5, 5.0]))
def test_sinkhorn_coupling_matches_only_drawn_chunks(shape, epsilon):
    batch, n_c, seed = _drawn(shape)
    drawn = couple_independent(batch, np.random.default_rng(seed + 1)).x1
    coupled = couple_chunked_ot(batch, np.random.default_rng(seed + 1), n_c=n_c, epsilon=epsilon)
    assert set(_chunk_rows(coupled.x1, n_c)) <= set(_chunk_rows(drawn, n_c))
