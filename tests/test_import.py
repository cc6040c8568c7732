"""The package's import surface: every exported name resolves, and importing
stays light (no scipy module it uses only lazily)."""
import os
import subprocess
import sys

import fusionshrink


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


def test_all_names_resolve_once():
    names = fusionshrink.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(fusionshrink, name) is not None, name
