"""numpy is the package's only heavy import: no scipy module loads before the
first exact solve, and that solve loads only scipy's compiled assignment
solver, ``scipy.optimize._lsap``, never ``scipy.optimize`` itself. The data
layer imports nothing above it: making a batch loads no model, sampler or
analysis module.

The checks run in fresh interpreters, since other test modules import
scipy.optimize themselves.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import flowbridge
from flowbridge.ot import cost_matrix, solve_exact
from flowbridge.tasks import gen_eight_gaussians

_SCRIPT = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import resource
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

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    assert solve_exact(CostMatrix(c)).sigma.tolist() == [1, 0, 2]
    grown_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb) / 1024
    assert "scipy.optimize" not in sys.modules
    assert "scipy.optimize._lsap" in sys.modules
    assert grown_mb < 8, grown_mb
    """
)

# The 3x3 fixture of the scripts below and its optimal pairing.
_FIXTURE = """
import sys

import numpy as np

from flowbridge import ot

c = ot.CostMatrix(np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]))
"""


def _run(script: str) -> str:
    """Run a script in a fresh interpreter that imports this checkout's flowbridge; its stdout."""
    # `python -c` puts its working directory first on sys.path.
    src = Path(flowbridge.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=src, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_the_assignment_solver_loads_on_the_first_exact_solve():
    _run(_SCRIPT)


def test_the_data_layer_imports_nothing_above_it():
    out = _run("""
import json
import sys

import flowbridge.tasks

tasks = sorted(m for m in sys.modules if m.startswith("flowbridge."))
import flowbridge.training

training = sorted(m for m in sys.modules if m.startswith("flowbridge."))
print(json.dumps([tasks, training]))
""")
    tasks, training = json.loads(out)
    assert tasks == ["flowbridge.config", "flowbridge.exceptions", "flowbridge.tasks"]
    assert not {"flowbridge.analysis", "flowbridge.sampler"} & set(training), training


def test_scipy_optimize_imported_later_reuses_the_loaded_solver():
    _run(_FIXTURE + """
assert ot.solve_exact(c).sigma.tolist() == [1, 0, 2]
lsap = sys.modules["scipy.optimize._lsap"]
solver = ot._linear_sum_assignment()
assert solver is lsap.linear_sum_assignment

import scipy.optimize
from scipy.optimize import _lsap

assert scipy.optimize.linear_sum_assignment is solver
assert _lsap is lsap
assert sys.modules["scipy.optimize._lsap"] is lsap
""")


def test_scipy_optimize_imported_first_is_not_loaded_again():
    _run(_FIXTURE + """
import importlib.machinery

import scipy.optimize

lsap = sys.modules["scipy.optimize._lsap"]


def refuse(*args, **kwargs):
    raise AssertionError("the solver's extension was loaded a second time")


importlib.machinery.ExtensionFileLoader = refuse
assert ot.solve_exact(c).sigma.tolist() == [1, 0, 2]
assert ot._linear_sum_assignment() is scipy.optimize.linear_sum_assignment
assert sys.modules["scipy.optimize._lsap"] is lsap
""")


def test_missing_extension_file_takes_the_public_import():
    out = _run(_FIXTURE + """
import importlib.machinery
import json

from flowbridge.tasks import gen_eight_gaussians

# No extension file has this suffix, so the lookup finds no file.
importlib.machinery.EXTENSION_SUFFIXES[:] = [".missing"]
fixture = ot.solve_exact(c).sigma.tolist()
assert "scipy.optimize" in sys.modules

# One 256x256 chunk pool of the 8-Gaussian training: data against noise.
rng = np.random.default_rng(5)
pool = ot.cost_matrix(gen_eight_gaussians(256, rng), rng.standard_normal((256, 2), dtype=np.float32))
print(json.dumps([fixture, ot.solve_exact(pool).sigma.tolist()]))
""")
    fixture, sigma = json.loads(out)
    assert fixture == [1, 0, 2]
    # The same seeded pool, solved here by the extension itself.
    rng = np.random.default_rng(5)
    pool = cost_matrix(gen_eight_gaussians(256, rng), rng.standard_normal((256, 2), dtype=np.float32))
    assert sigma == solve_exact(pool).sigma.tolist()
