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

__all__ = ["cfm_loss"]


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
