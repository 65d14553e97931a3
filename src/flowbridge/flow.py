"""Conditional flow matching on straight-line probability paths.

The path between a data sample x0 and its coupled noise x1 is linear,
x_tau = (1 - tau) * x0 + tau * x1, so the regression target for the velocity
network is the constant displacement x1 - x0. Training minimizes the mean
squared error between the predicted field at a random tau and that target;
condition dropout replaces a random subset of conditions with the learned
null embedding so one network serves both guided and unguided sampling.
"""

from __future__ import annotations

import numpy as np

from .coupling import Coupling
from .exceptions import ShapeError, ValidationError
from .nn.model import VectorFieldModel

__all__ = ["interpolate", "cfm_target", "cfm_loss", "cfg_combine"]


def _broadcast_tau(tau, batch_size: int) -> np.ndarray:
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim == 0:
        tau = np.full(batch_size, float(tau))
    if tau.shape != (batch_size,):
        raise ShapeError(f"tau must be scalar or ({batch_size},), got {tau.shape}")
    if np.any(tau < 0.0) or np.any(tau > 1.0):
        raise ValidationError("tau must lie in [0, 1]")
    return tau


def interpolate(x0: np.ndarray, x1: np.ndarray, tau) -> np.ndarray:
    """Points on the straight path: (1 - tau) * x0 + tau * x1, tau scalar or per row."""
    if x0.shape != x1.shape:
        raise ShapeError(f"endpoint shape mismatch: {x0.shape} vs {x1.shape}")
    w = _broadcast_tau(tau, x0.shape[0])[:, None].astype(x0.dtype)
    return (1.0 - w) * x0 + w * x1


def cfm_target(coupling: Coupling) -> np.ndarray:
    """Constant velocity of the straight path, x1 - x0."""
    return coupling.x1 - coupling.x0


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
    b = coupling.batch_size
    tau = _broadcast_tau(tau, b)
    xt = interpolate(coupling.x0, coupling.x1, tau)
    target = cfm_target(coupling)
    present = np.full(b, coupling.condition is not None)
    if drop_condition is not None:
        if drop_condition.shape != (b,):
            raise ShapeError(f"drop_condition must be ({b},), got {drop_condition.shape}")
        present = present & ~drop_condition
    out = model.forward(xt, tau, coupling.condition, present)
    r = out.data - target.astype(out.data.dtype)
    loss = float(np.mean(r * r))
    out.backward(2.0 * r / r.size)
    return loss


def cfg_combine(v_cond: np.ndarray, v_null: np.ndarray, gamma: float) -> np.ndarray:
    """Guided field: gamma * v_cond + (1 - gamma) * v_null.

    gamma = 1 returns the conditional field, gamma = 0 the unconditional one;
    values above 1 extrapolate away from the null prediction.
    """
    if v_cond.shape != v_null.shape:
        raise ShapeError(f"field shape mismatch: {v_cond.shape} vs {v_null.shape}")
    return gamma * v_cond + (1.0 - gamma) * v_null
