"""Session-scoped trained models shared by the acceptance suite, and the table
of binary frame faults shared by the `.fbs`/`.fbc` loader and CLI tests.

Training these once keeps the acceptance module inside its stated runtime
budgets; every test that consumes them is read-only.
"""

import struct

import numpy as np
import pytest

from flowbridge.nn.model import ModelConfig
from flowbridge.tasks import TaskSpec
from flowbridge.training import TrainConfig, train

EIGHT_GAUSS_ITERS = 5000
RING_ITERS = 10000
_BATCH = 256
_LR = 1e-3
_SEED = 11


def _reframed(raw, version=None, header=None, header_len=None):
    """A valid frame with its version, header bytes or stated header length replaced."""
    old_version, old_len = struct.unpack_from("<II", raw, 8)
    head = raw[16 : 16 + old_len] if header is None else header
    version = old_version if version is None else version
    header_len = len(head) if header_len is None else header_len
    return raw[:8] + struct.pack("<II", version, header_len) + head + raw[16 + old_len :]


# Each fault maps the bytes of a valid `.fbs` or `.fbc` file to a malformed one.
FRAME_FAULTS = {
    "too_short": lambda raw: raw[:12],
    "bad_magic": lambda raw: b"NOTMAGIC" + raw[8:],
    "wrong_version": lambda raw: _reframed(raw, version=99),
    "header_past_end": lambda raw: _reframed(raw, header_len=len(raw)),
    "header_not_utf8": lambda raw: _reframed(raw, header=b'{"a": "\xff"}'),
    "header_not_json": lambda raw: _reframed(raw, header=b"{nope"),
    "header_not_object": lambda raw: _reframed(raw, header=b"[]"),
    "truncated_payload": lambda raw: raw[:-4],
    "trailing_bytes": lambda raw: raw + b"\x00" * 4,
}


@pytest.fixture(scope="session")
def eight_gauss_pair():
    """(independent, chunked-OT) models trained identically seeded on 8 Gaussians."""
    task = TaskSpec(family="eight_gaussians")
    mc = ModelConfig(signal_length=2, hidden=64, depth=3)
    base = dict(iterations=EIGHT_GAUSS_ITERS, batch_size=_BATCH, lr=_LR, seed=_SEED)
    res_ind = train(mc, task, TrainConfig(**base))
    res_ot = train(mc, task, TrainConfig(**base, coupling="chunked_ot", chunk_size=2))
    return res_ind, res_ot


@pytest.fixture(scope="session")
def ring_model():
    """Conditional model trained on the radius-conditioned ring task.

    Trained with the independent coupling on purpose: minibatch-OT pairing
    correlates the noise marginal with the condition (larger-radius data
    attracts larger-norm noise), so the conditional flow it induces no longer
    transports N(0, I) — decoding fresh or encoded Gaussian latents then
    undershoots the requested radius. Independent pairing keeps x1 exactly
    N(0, I) for every condition value.
    """
    task = TaskSpec(family="cond_ring")
    mc = ModelConfig(signal_length=2, hidden=64, depth=3, cond_dim=1)
    res = train(mc, task, TrainConfig(
        iterations=RING_ITERS, batch_size=_BATCH, lr=_LR, seed=21,
        cond_dropout=0.2,
    ))
    return res.model


@pytest.fixture(scope="session")
def test_points_8g():
    rng = np.random.default_rng(5)
    from flowbridge.tasks import gen_eight_gaussians
    return gen_eight_gaussians(256, rng).astype(np.float32)
