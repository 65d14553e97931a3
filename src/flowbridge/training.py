"""Training a vector-field model: couplings, the flow-matching loss and the loop.

A coupling pairs a data batch (`tasks.SignalBatch`) with noise: row i of x0
(data) trains against row i of x1 (noise). The independent coupling draws noise
i.i.d. per sample. The chunked-OT coupling splits every sample in a minibatch
into fixed-length chunks, solves one optimal transport problem over the pooled
chunks (data chunks vs noise chunks, squared-L2 cost), and reassembles the noise
so that each data chunk trains against its transport partner. Chunks may cross
sample boundaries: the pool is flattened over the whole minibatch before the solve.

The path between x0 and x1 is linear, x_tau = (1 - tau) * x0 + tau * x1, so the
regression target for the velocity network is the constant displacement x1 - x0.
The loss is the mean squared error between the predicted field at a random tau
and that target; condition dropout replaces a random subset of conditions with
the learned null embedding so one network serves both guided and unguided sampling.

Each iteration draws a task batch, couples it with noise, picks uniform random
flow times, applies condition dropout, and takes one Adam step on that loss.
All randomness flows from a single seed through named child streams,
so reruns are bitwise identical and coupling variants see the same data.
An OT coupling reads only the data and coupling streams, never the model,
so it is made one step ahead on a worker thread while the current step runs;
each stream is still read by one thread at a time, in the same order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import ot
from .config import check_int_fields, check_real_fields
from .exceptions import ConfigError, ShapeError, TrainingDivergedError, ValidationError
from .nn.adam import Adam
from .nn.model import ModelConfig, VectorFieldModel
from .tasks import SignalBatch, TaskSpec, make_training_stream

__all__ = ["Coupling", "couple_independent", "couple_chunked_ot", "cfm_loss", "TrainConfig",
           "TrainResult", "check_model_fits_task", "train"]


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


def cfm_loss(
    model: VectorFieldModel,
    coupling: Coupling,
    tau,
    drop_condition: np.ndarray | None = None,
) -> float:
    """Flow-matching MSE at the given times; gradients land on the model.

    drop_condition marks rows whose condition is withheld this step (trained
    through the null branch). The loss gradient 2 * (v - u) / (B * N) is
    pushed through the tape onto model.params; inside ``nn.autodiff.no_grad()``
    no tape is recorded, so the call only computes the loss.
    """
    x0, x1 = coupling.x0, coupling.x1
    b = x0.shape[0]
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim == 0:
        tau = np.full(b, float(tau))
    if tau.shape != (b,):
        raise ShapeError(f"tau must be scalar or ({b},), got {tau.shape}")
    if not np.all((tau >= 0.0) & (tau <= 1.0)):
        raise ValidationError("tau must lie in [0, 1]")
    w = tau[:, None].astype(x0.dtype)
    xt = (1.0 - w) * x0 + w * x1
    target = x1 - x0
    out = model.forward(xt, tau, coupling.condition, drop=drop_condition)
    r = out.data - target.astype(out.data.dtype)
    loss = float(np.mean(r * r))
    out.backward(2.0 * r / r.size)
    return loss


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    batch_size: int = 8
    lr: float = 1e-4
    coupling: str = "independent"
    chunk_size: int | None = None
    ot_method: str = "exact"
    sinkhorn_epsilon: float | None = None
    cond_dropout: float = 0.2
    seed: int = 0
    log_every: int = 100

    def __post_init__(self):
        check_int_fields(self, "iterations", "batch_size", "log_every", low=1)
        check_int_fields(self, "seed", low=0)
        check_real_fields(self, "lr", positive=True)
        check_real_fields(self, "cond_dropout", unit=True)
        if self.chunk_size is not None:
            check_int_fields(self, "chunk_size", low=1)
        if self.sinkhorn_epsilon is not None:
            check_real_fields(self, "sinkhorn_epsilon", positive=True)
        if self.coupling not in ("independent", "chunked_ot"):
            raise ConfigError(f"unknown coupling {self.coupling!r}")
        if self.coupling == "chunked_ot" and self.chunk_size is None:
            raise ConfigError("chunked_ot coupling requires chunk_size")
        if self.ot_method not in ("exact", "sinkhorn"):
            raise ConfigError(f"unknown ot_method {self.ot_method!r}")
        if self.ot_method == "sinkhorn" and self.sinkhorn_epsilon is None:
            raise ConfigError("sinkhorn ot_method requires sinkhorn_epsilon")
        if self.coupling == "independent" and self.chunk_size is not None:
            raise ConfigError("chunk_size only applies to chunked_ot coupling")
        if self.coupling == "independent" and self.ot_method == "sinkhorn":
            raise ConfigError("sinkhorn ot_method only applies to chunked_ot coupling")
        if self.ot_method == "exact" and self.sinkhorn_epsilon is not None:
            raise ConfigError("sinkhorn_epsilon only applies to sinkhorn ot_method")


@dataclass
class TrainResult:
    model: VectorFieldModel
    history: list[tuple[int, float]] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1][1]


def check_model_fits_task(model_config: ModelConfig, task: TaskSpec) -> None:
    """Raise ConfigError unless the model's signal length and condition width fit the task."""
    if model_config.signal_length != task.n:
        raise ConfigError(f"model signal_length {model_config.signal_length} != task n {task.n}")
    if model_config.cond_dim != task.cond_dim:
        raise ConfigError(
            f"model cond_dim {model_config.cond_dim} != task descriptor count {task.cond_dim}"
        )


def train(
    model_config: ModelConfig,
    task: TaskSpec,
    config: TrainConfig,
) -> TrainResult:
    """Train a model on a task; returns the model and its loss history.

    The seed is split into independent child streams for (in order) model
    init, the data stream, coupling noise, flow times, and condition dropout.
    Iteration 1's coupling is made in the caller's thread; while step t runs,
    a chunked-OT coupling for step t + 1 is made on one worker thread, which
    is joined before train returns or raises. The independent coupling, too
    cheap to hand over, and a one-iteration run stay in the caller's thread.
    Each stream has one reader at a time, so the outcome is bitwise that of
    the serial loop, and a run that returns made exactly `iterations`
    couplings. History records iteration 1, every log_every-th iteration,
    and the final one. A non-finite loss aborts with TrainingDivergedError
    naming the iteration.
    """
    check_model_fits_task(model_config, task)
    if config.chunk_size is not None and task.n % config.chunk_size != 0:
        raise ConfigError(f"chunk_size {config.chunk_size} does not divide task n {task.n}")
    init_rng, data_rng, couple_rng, tau_rng, drop_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(5)
    )
    model = VectorFieldModel(model_config, init_rng)
    optimizer = Adam(model.parameters(), lr=config.lr)
    stream = make_training_stream(task, config.batch_size, data_rng)
    history: list[tuple[int, float]] = []

    def draw_coupling():
        batch = next(stream)
        if config.coupling == "independent":
            return couple_independent(batch, couple_rng)
        # TrainConfig sets sinkhorn_epsilon exactly when ot_method is "sinkhorn".
        return couple_chunked_ot(batch, couple_rng, config.chunk_size, config.sinkhorn_epsilon)

    # The pool starts its thread on the first submit, so a run that never
    # submits starts none; leaving the block waits for a coupling in flight.
    with ThreadPoolExecutor(max_workers=1) as pool:
        cpl = draw_coupling()
        for it in range(1, config.iterations + 1):
            last = it == config.iterations
            ahead = None if last or config.coupling == "independent" else pool.submit(draw_coupling)
            tau = tau_rng.random(config.batch_size)
            drop = drop_rng.random(config.batch_size) < config.cond_dropout
            model.zero_grad()
            loss = cfm_loss(model, cpl, tau, drop_condition=drop)
            if not np.isfinite(loss):
                raise TrainingDivergedError(iteration=it, loss=loss)
            optimizer.step()
            if it == 1 or it % config.log_every == 0 or last:
                history.append((it, loss))
            if not last:
                cpl = draw_coupling() if ahead is None else ahead.result()
    return TrainResult(model=model, history=history)
