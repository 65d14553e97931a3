"""numpy is the package's only heavy import: no scipy module loads before the first exact solve.

The check runs in a fresh interpreter, since other test modules import
scipy.optimize themselves.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import flowbridge

_SCRIPT = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    import numpy as np

    import flowbridge
    from flowbridge.nn import ModelConfig
    from flowbridge.ot import CostMatrix, solve_exact
    from flowbridge.tasks import TaskSpec
    from flowbridge.training import TrainConfig, train

    names = [i.name for i in pkgutil.walk_packages(flowbridge.__path__, prefix="flowbridge.")]
    assert "flowbridge.cli" in names, names
    for name in names:
        importlib.import_module(name)

    train(
        ModelConfig(signal_length=64, backbone="conv", hidden=8, depth=1, cond_dim=2),
        TaskSpec("toy_signal", n=64, degradation="reverb"),
        TrainConfig(iterations=2, batch_size=4, coupling="chunked_ot", chunk_size=16,
                    ot_method="sinkhorn", sinkhorn_epsilon=1.0),
    )
    train(
        ModelConfig(signal_length=2, hidden=8, depth=1, cond_dim=1),
        TaskSpec("cond_ring"),
        TrainConfig(iterations=2, batch_size=4),
    )
    heavy = sorted(m for m in sys.modules if m == "scipy" or m.startswith(("scipy.", "xml.sax")))
    assert not heavy, heavy

    c = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    assert solve_exact(CostMatrix(c)).sigma.tolist() == [1, 0, 2]
    assert "scipy.optimize" in sys.modules
    """
)


def test_scipy_optimize_loads_only_on_the_first_exact_solve():
    # `python -c` puts its working directory first on sys.path.
    src = Path(flowbridge.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, cwd=src, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
