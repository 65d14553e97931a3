"""Pairing data batches (`tasks.SignalBatch`) with noise batches.

The independent coupling draws noise i.i.d. per sample. The chunked-OT
coupling splits every sample in a minibatch into fixed-length chunks, solves
one optimal transport problem over the pooled chunks (data chunks vs noise
chunks, squared-L2 cost), and reassembles the noise so that each data chunk
trains against its transport partner. Chunks may cross sample boundaries: the
pool is flattened over the whole minibatch before the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ot
from .exceptions import ShapeError, ValidationError
from .tasks import SignalBatch

__all__ = [
    "Coupling",
    "couple_independent",
    "couple_chunked_ot",
]


@dataclass(frozen=True)
class Coupling:
    """Matched (data, noise) pair for flow-matching training.

    x0 is the data endpoint, x1 the noise endpoint; row i of x0 trains
    against row i of x1.
    """

    x0: np.ndarray
    x1: np.ndarray
    condition: np.ndarray | None = None

    def __post_init__(self):
        if self.x0.shape != self.x1.shape:
            raise ShapeError(f"endpoint shape mismatch: {self.x0.shape} vs {self.x1.shape}")
        if self.x0.ndim != 2:
            raise ShapeError(f"coupling endpoints must be (B, N), got {self.x0.shape}")


def couple_independent(batch: SignalBatch, rng: np.random.Generator) -> Coupling:
    """Pair each sample with freshly drawn standard Gaussian noise."""
    x1 = rng.standard_normal(batch.values.shape, dtype=np.float32)
    return Coupling(batch.values, x1, batch.condition)


def couple_chunked_ot(
    batch: SignalBatch,
    rng: np.random.Generator,
    n_c: int,
    epsilon: float | None = None,
) -> Coupling:
    """Pair data with noise through chunk-level optimal transport.

    Noise is drawn exactly as in couple_independent (same rng consumption, so
    the two couplings are comparable under a shared seed), then both streams
    are chunked, a squared-L2 cost matrix over all B*N/n_c chunks is solved,
    and the noise chunks are permuted into their matched data slots before
    reassembly. Without ``epsilon`` the assignment solver runs; with it, the
    entropy-regularized solver runs at that epsilon and pairs are sampled
    from the plan rows.
    """
    n = batch.values.shape[1]
    if n_c < 1 or n % n_c != 0:
        raise ValidationError(f"chunk size {n_c} does not divide signal length {n}")
    x1 = rng.standard_normal(batch.values.shape, dtype=np.float32)
    data_chunks = batch.values.reshape(-1, n_c)
    noise_chunks = x1.reshape(-1, n_c)
    c = ot.cost_matrix(data_chunks, noise_chunks)
    if epsilon is None:
        sigma = ot.solve_exact(c).sigma
    else:
        plan = ot.solve_sinkhorn(c, epsilon=epsilon)
        sigma = ot.plan_to_pairs(plan, rng)
    matched = noise_chunks[sigma].reshape(x1.shape)
    return Coupling(batch.values, matched, batch.condition)
