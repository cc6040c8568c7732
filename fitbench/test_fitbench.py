"""Tests of the fit benchmark itself: every check can fail, tracing survives
a missing hook target, and an untraced run never touches tracing.

    python3 -m pytest -q fitbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fusionshrink.metrics import auc as package_auc  # noqa: E402
from fusionshrink.postprocess import rand_index as package_rand_index  # noqa: E402

TINY = {
    "network-cluster": lambda: workloads.NetworkCluster(n=16, T=8, sweeps=4, datasets=1),
    "matrix-files": lambda: workloads.MatrixFiles(n=8, p=6, T=8, sweeps=4, datasets=2),
    "tensor-large": lambda: workloads.TensorLarge(dims=(5, 6, 7), T=8, datasets=1),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def fitted(request, tmp_path_factory):
    workload = TINY[request.param]()
    workdir = tmp_path_factory.mktemp(request.param)
    ds = workload.make(seed=3, workdir=workdir)[0]
    return workload, ds, workload.run_job(ds, workdir), workdir


# ----- reference figures --------------------------------------------------

def test_auc_matches_package_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=200).astype(float)
    labels = (rng.random(200) < 0.4).astype(float)
    assert checks.auc(scores, labels) == pytest.approx(package_auc(scores, labels), rel=1e-12)


def test_rand_index_matches_package():
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, 4, size=30), rng.integers(0, 3, size=30)
    assert checks.rand_index(a, b) == pytest.approx(package_rand_index(a, b), rel=1e-12)
    assert checks.rand_index(a, (a + 1) % 4) == 1.0


def test_svd_per_time_is_exact_at_full_rank():
    Y = np.random.default_rng(2).standard_normal((3, 5, 4))
    np.testing.assert_allclose(checks.svd_per_time(Y, 4), Y, atol=1e-12)


def test_cp_means_match_generator():
    from fusionshrink.simulate import gen_case3_tensor

    data = gen_case3_tensor((3, 4, 5), 6, seed=0)
    np.testing.assert_allclose(checks.cp_means(data.truth_factors), data.truth_means, atol=1e-12)


# ----- every check passes on real output and fails on corrupted output ------

def test_jobs_pass_their_checks(fitted):
    workload, ds, out, _ = fitted
    assert workload.check(ds, out) == []


def test_property_check_passes(fitted):
    workload, ds, _, workdir = fitted
    assert workload.property_check(ds, workdir) == []


def test_perturbed_prediction_fails_trace_check(fitted):
    workload, ds, out, _ = fitted
    pred = out.pred.copy()
    pred[0, 1, 2] += 0.25
    pred[0, 2, 1] += 0.25  # stays symmetric, so only the trace check can catch it
    bad = checks.final_trace(workload.kind, out.trace_last, pred, ds.Y)
    assert bad and "final trace" in bad[0]


def test_non_finite_output_fails(fitted):
    _, _, out, _ = fitted
    assert checks.finite(prediction=out.pred, elbo=float("nan"))
    pred = out.pred.copy()
    pred.flat[3] = np.inf
    assert checks.finite(prediction=pred)


def test_network_probability_checks_fail():
    probs = np.full((2, 3, 3), 0.5)
    np.einsum("tii->ti", probs)[:] = 0.0
    assert checks.network_probs(probs) == []
    for corrupt in ("range", "asymmetric", "diagonal"):
        bad = probs.copy()
        if corrupt == "range":
            bad[0, 0, 1] = bad[0, 1, 0] = 1.5
        elif corrupt == "asymmetric":
            bad[1, 0, 2] = 0.4
        else:
            bad[0, 1, 1] = 0.1
        assert len(checks.network_probs(bad)) == 1, corrupt


def test_shuffled_labels_fail_rand_check():
    rng = np.random.default_rng(4)
    truth = rng.integers(0, 4, size=(10, 40))
    assert checks.rand_above((truth + 1) % 4, truth) == []
    shuffled = np.stack([rng.permutation(row) for row in truth])
    assert checks.rand_above(shuffled, truth)


def test_rmse_above_noise_fails():
    assert checks.below_noise(0.29) == []
    assert checks.below_noise(0.31)


def test_fit_no_better_than_svd_fails():
    rng = np.random.default_rng(5)
    truth = rng.standard_normal((4, 6, 2)) @ rng.standard_normal((4, 2, 5))
    Y = truth + 0.3 * rng.standard_normal(truth.shape)
    svd = checks.svd_per_time(Y, 2)
    assert checks.beats_svd(truth, Y, truth, 2) == []
    assert checks.beats_svd(svd, Y, truth, 2)


def test_lowered_elbo_fails():
    elbos = [-100.0, -90.0, -89.0]
    assert checks.elbo_monotone(elbos) == []
    assert checks.elbo_monotone([-100.0, -90.0, -90.0 - 1e-12]) == []
    assert checks.elbo_monotone([-100.0, -90.0, -90.01])


def test_changed_artifact_fails(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "x.txt").write_text("1.5\n")
    assert checks.identical_dirs(a, b) == []
    (b / "x.txt").write_text("1.50000001\n")
    assert checks.identical_dirs(a, b)
    (b / "x.txt").write_text("1.5\n")
    (b / "y.txt").write_text("")
    assert checks.identical_dirs(a, b)


# ----- tracing ----------------------------------------------------------------

def test_nested_spans_count_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap(tracing.Hook("inner", "m", "f"), lambda: sum(range(20000)))
    outer = tracer.wrap(tracing.Hook("outer", "m", "g"), lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls == {"inner": 3, "outer": 1}
    assert tracer.self_s["inner"] > 0 and tracer.self_s["outer"] >= 0


def test_missing_hook_target_is_a_missing_layer():
    from fusionshrink import engine

    original = engine.CaviEngine.metric
    hooks = tracing.HOOKS + (
        tracing.Hook("engine.metric", "fusionshrink.engine", "CaviEngine.renamed_metric"),
        tracing.Hook("gone", "fusionshrink.no_such_module", "f"),
    )
    installed = tracing.Installed(tracing.Tracer(), hooks)
    try:
        assert len(installed.missing) == 2
        assert "engine.metric" not in installed.layers()
        assert "gone" not in installed.layers()
        assert "chain.smooth" in installed.layers()
    finally:
        installed.restore()
    assert engine.CaviEngine.metric is original


def test_restore_puts_originals_back():
    from fusionshrink import chain, engine

    before = (engine.smooth_core, chain.smooth_core, engine.CaviEngine.__dict__["run"])
    installed = tracing.Installed(tracing.Tracer())
    assert engine.smooth_core is not before[0]
    installed.restore()
    assert (engine.smooth_core, chain.smooth_core, engine.CaviEngine.__dict__["run"]) == before


# ----- whole runs on tiny workloads -------------------------------------------

def _main(monkeypatch, capsys, name, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", {name: TINY[name]})
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_never_imports_tracing(monkeypatch, capsys, name):
    monkeypatch.setitem(sys.modules, "tracing", None)  # any import now fails
    result = _main(monkeypatch, capsys, name, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY[name]().datasets + 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_traced_run_reports_every_layer(monkeypatch, capsys):
    result = _main(monkeypatch, capsys, "network-cluster", trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = set(run.PER_LAYER) | {"dataio.bytes_written", "simulate.generate_s",
                                     "trace.overhead_s"}
    assert set(result["metrics"]) == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.sweeps"] == 4
    assert metrics["chain.smooth_calls"] == 4 * 16
    assert metrics["chain.chains"] == 4 * 16


def test_traced_run_survives_a_renamed_function(monkeypatch, capsys):
    hooks = tuple(h for h in tracing.HOOKS if h.layer != "engine.metric") + (
        tracing.Hook("engine.metric", "fusionshrink.engine", "CaviEngine.renamed_metric"),)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    result = _main(monkeypatch, capsys, "tensor-large", trace=1)
    assert result["failed"] == 0
    assert "engine.metric_s" not in result["metrics"]
    assert "chain.smooth_s" in result["metrics"]


def test_missing_package_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "matrix-files",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
