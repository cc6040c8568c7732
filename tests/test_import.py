"""The package's import surface: every exported name resolves, importing
stays light (no scipy module it uses only lazily), as does fitting, and the
simulators do not depend on the fitting engine."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import fusionshrink


def test_simulate_imports_nothing_from_engine():
    # Read from the source, so that no import made elsewhere in the package
    # hides the dependency: the simulators take the link from likelihoods.
    source = Path(fusionshrink.__file__).with_name("simulate.py").read_text()
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert [n for n in names if "engine" in n.split(".")] == []


def test_import_loads_neither_scipy_stats_nor_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fusionshrink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import fusionshrink, sys; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


FIT_PATH_WITHOUT_SCIPY = """
import math, sys, tempfile
import fusionshrink
from fusionshrink import simulate
from fusionshrink.dataio import save_fit
from fusionshrink.engine import CaviEngine, ModelConfig, predict_stack
from fusionshrink.postprocess import align_modes, kmeans_rows, row_normalize

cases = [
    (simulate.gen_case1(5, 4, 4, seed=1), {}),
    (simulate.gen_case3_tensor((3, 3, 3), 3, seed=2), {"prior": "iglsm"}),
    (simulate.gen_cluster_case(8, 4, seed=3), {"intercept": True}),
]
with tempfile.TemporaryDirectory() as tmp:
    for j, (data, extra) in enumerate(cases):
        eng = CaviEngine(data.observations, ModelConfig(d=2, max_cycles=2, **extra))
        result = eng.run()
        assert math.isfinite(eng.elbo())
        assert predict_stack(result).shape == data.observations.values.shape
        save_fit(f"{tmp}/fit{j}", result)
        paths = align_modes([row_normalize(m.mean) for m in result.modes])
        if paths is not None:
            kmeans_rows(paths[0][:, -1], 2)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_fit_path_loads_no_scipy():
    # Fits of all three kinds, with both priors and the network intercept,
    # then the ELBO, the prediction, the saved artifacts and the alignment
    # and k-means of postprocess: none of them loads scipy.  Before,
    # engine.py imported scipy.special when the package was imported.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fusionshrink.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", FIT_PATH_WITHOUT_SCIPY],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.strip() == "[]"


def test_all_names_resolve_once():
    names = fusionshrink.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(fusionshrink, name) is not None, name
