"""Memory freed by a training step is reused by the next one, not faulted back in.

The package pins glibc's malloc thresholds when it is imported, and backward
frees the tape as it walks it. The check runs in a fresh interpreter, whose
allocator has no history from other tests.
"""

import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import flowbridge

_SCRIPT = textwrap.dedent(
    """
    import resource

    import numpy as np

    from flowbridge.nn import Adam, ModelConfig, VectorFieldModel
    from flowbridge.tasks import TaskSpec, make_training_stream
    from flowbridge.training import cfm_loss, couple_chunked_ot

    rng = np.random.default_rng(0)
    config = ModelConfig(signal_length=256, backbone="conv", hidden=32, depth=3, kernel_size=5,
                         cond_dim=2)
    model = VectorFieldModel(config, rng)
    optimizer = Adam(model.parameters(), lr=1e-3)
    stream = make_training_stream(TaskSpec("toy_signal", n=256, degradation="reverb"), 16, rng)

    def step():
        coupling = couple_chunked_ot(next(stream), rng, 16, 1.0)
        model.zero_grad()
        cfm_loss(model, coupling, rng.random(16))
        optimizer.step()

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        step()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc thresholds are glibc's")
def test_conv_training_steps_take_no_page_faults():
    # Without the pinned thresholds a step of this training (the bench's
    # signal_conv_train model) takes about 3,000 minor faults; with them, about 1.
    src = Path(flowbridge.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, cwd=src, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 50
