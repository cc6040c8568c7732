"""Command-line surface: artifact layout, determinism, exit codes."""
import shutil
import subprocess

import numpy as np
import pytest

from fusionshrink.cli import main


def run_cli(*argv):
    return main(list(argv))


def simulate_small(tmp_path, scenario="case1", **extra):
    out = tmp_path / f"data_{scenario}"
    argv = [
        "simulate", "--scenario", scenario, "--n", "4", "--T", "3",
        "--seed", "1", "--out", str(out),
    ]
    for key, val in extra.items():
        argv += [f"--{key}", str(val)]
    assert run_cli(*argv) == 0
    return out


def test_simulate_writes_dataset(tmp_path):
    out = simulate_small(tmp_path)
    assert (out / "manifest.txt").is_file()
    assert (out / "t0002.txt").is_file()
    assert (out / "truth_t0000.txt").is_file()
    manifest = (out / "manifest.txt").read_text()
    assert "kind=gaussian-matrix" in manifest
    assert "T=3" in manifest


def test_simulate_cluster_writes_labels(tmp_path):
    out = simulate_small(tmp_path, scenario="cluster")
    labels = np.loadtxt(out / "labels.txt", dtype=int)
    assert labels.shape == (3, 4)


def test_simulate_rejects_bad_dims(tmp_path, capsys):
    rc = run_cli(
        "simulate", "--scenario", "case3", "--dims", "4,4", "--T", "2",
        "--out", str(tmp_path / "x"),
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, flag, value, message",
    [
        ("case1", "--rho", "2", "error: rho must lie in [0, 1]"),
        ("case1", "--sigma", "-1", "error: sigma must be finite and nonnegative"),
        ("case1", "--n", "0", "error: n must be at least 1"),
        ("case1", "--T", "0", "error: T must be at least 1"),
        ("case1", "--d", "0", "error: d must be at least 1"),
        ("case2", "--rho", "-0.5", "error: rho must lie in [0, 1]"),
        ("case3", "--dims", "2,0,2", "error: dims[1] must be at least 1"),
        ("cluster", "--rho", "1.5", "error: p_stay must lie in [0, 1]"),
        ("two-movers", "--rho", "3", "error: transit_prob must lie in [0, 1]"),
    ],
)
def test_simulate_rejects_bad_arguments(tmp_path, capsys, scenario, flag, value, message):
    out = tmp_path / "x"
    rc = run_cli(
        "simulate", "--scenario", scenario, "--T", "3", flag, value, "--out", str(out)
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_fit_and_artifacts(tmp_path):
    data = simulate_small(tmp_path)
    out = tmp_path / "fit"
    rc = run_cli(
        "fit", "--data", str(data), "--kind", "gaussian", "--d", "2",
        "--max-cycles", "3", "--out", str(out),
    )
    assert rc == 0
    assert (out / "summary.txt").is_file()
    assert (out / "mean_m0.txt").is_file()
    assert (out / "predicted_t0002.txt").is_file()
    summary = (out / "summary.txt").read_text()
    assert "prior=ffs" in summary


def test_fit_deterministic_artifacts(tmp_path):
    data = simulate_small(tmp_path)
    a, b = tmp_path / "fa", tmp_path / "fb"
    for out in (a, b):
        assert run_cli(
            "fit", "--data", str(data), "--max-cycles", "3", "--out", str(out)
        ) == 0
    for name in ("summary.txt", "mean_m0.txt", "mean_m1.txt", "trace.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_iglsm_prior(tmp_path):
    data = simulate_small(tmp_path)
    out = tmp_path / "fit_iglsm"
    rc = run_cli(
        "fit", "--data", str(data), "--prior", "iglsm", "--max-cycles", "2",
        "--out", str(out),
    )
    assert rc == 0
    assert "prior=iglsm" in (out / "summary.txt").read_text()


def test_fit_missing_dataset_exits_2(tmp_path, capsys):
    rc = run_cli("fit", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_fit_kind_mismatch_exits_2(tmp_path, capsys):
    data = simulate_small(tmp_path)
    rc = run_cli(
        "fit", "--data", str(data), "--kind", "tensor", "--out", str(tmp_path / "o")
    )
    assert rc == 2
    assert "manifest" in capsys.readouterr().err


def test_fit_bad_manifest_names_file_and_key(tmp_path, capsys):
    data = simulate_small(tmp_path)
    manifest = data / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(text.replace("dims=4,", "dims=x,"))
    rc = run_cli("fit", "--data", str(data), "--out", str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: dims=x,")
    assert "is not two positive integers" in err


def test_fit_non_finite_data_exits_2(tmp_path, capsys):
    data = simulate_small(tmp_path)
    slice_path = data / "t0001.txt"
    values = np.loadtxt(slice_path)
    values[2, 3] = np.nan
    np.savetxt(slice_path, values)
    rc = run_cli("fit", "--data", str(data), "--out", str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: values must be finite")
    assert "nan at index (1, 2, 3)" in err


@pytest.mark.parametrize(
    "scenario, field", [("case1", "tol_rmse"), ("cluster", "tol_auc")]
)
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_fit_bad_tolerance_exits_2(tmp_path, capsys, scenario, field, tol):
    data = simulate_small(tmp_path, scenario=scenario)
    out = tmp_path / "o"
    rc = run_cli("fit", "--data", str(data), "--tol", tol, "--out", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be nonnegative and finite"), err
    assert err.count("\n") == 1
    assert not out.exists()


def test_fit_data_at_extreme_scale_exits_2(tmp_path, capsys):
    # Values around 1e200 overflow the posterior; the fit must end in a
    # ValueError (a degenerate chain or a non-finite scale), never a
    # traceback, a numpy warning or a fit built on inf or NaN.
    data = simulate_small(tmp_path)
    for slice_path in sorted(data.glob("t[0-9]*.txt")):
        np.savetxt(slice_path, 1e200 * np.loadtxt(slice_path), fmt="%.17g")
    out = tmp_path / "o"
    rc = run_cli("fit", "--data", str(data), "--out", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_fit_network_without_edges_exits_2(tmp_path, capsys):
    data = simulate_small(tmp_path, scenario="cluster")
    for slice_path in sorted(data.glob("t[0-9]*.txt")):
        np.savetxt(slice_path, np.zeros((4, 4)))
    out = tmp_path / "o"
    rc = run_cli("fit", "--data", str(data), "--kind", "bernoulli", "--out", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: network data must hold an edge and a non-edge")
    assert not out.exists()


def test_network_fit_with_intercept(tmp_path):
    data = simulate_small(tmp_path, scenario="cluster")
    out = tmp_path / "fit_net"
    rc = run_cli(
        "fit", "--data", str(data), "--kind", "bernoulli", "--intercept", "true",
        "--max-cycles", "2", "--out", str(out),
    )
    assert rc == 0
    assert "intercept=" in (out / "summary.txt").read_text()


def test_postprocess_pipeline(tmp_path):
    data = simulate_small(tmp_path, scenario="cluster")
    fit_dir = tmp_path / "fit"
    assert run_cli(
        "fit", "--data", str(data), "--max-cycles", "2", "--out", str(fit_dir)
    ) == 0
    out = tmp_path / "post"
    rc = run_cli(
        "postprocess", "--fit", str(fit_dir), "--align", "--normalize",
        "--kmeans", "2", "--out", str(out),
    )
    assert rc == 0
    post = np.loadtxt(out / "post_m0.txt")
    assert post.shape == (3 * 4, 2)  # T*n rows, d columns
    norms = np.linalg.norm(post, axis=1)
    np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-12)
    labels = np.loadtxt(out / "labels.txt", dtype=int)
    assert labels.shape == (3, 4)
    assert set(labels.ravel()) <= {0, 1}


def test_postprocess_align_rejected_for_tensor(tmp_path, capsys):
    data = tmp_path / "tens"
    assert run_cli(
        "simulate", "--scenario", "case3", "--dims", "3,3,3", "--T", "2",
        "--out", str(data),
    ) == 0
    fit_dir = tmp_path / "fit"
    assert run_cli(
        "fit", "--data", str(data), "--max-cycles", "2", "--out", str(fit_dir)
    ) == 0
    rc = run_cli(
        "postprocess", "--fit", str(fit_dir), "--align", "--out", str(tmp_path / "p")
    )
    assert rc == 2
    assert "two latent modes" in capsys.readouterr().err


def test_postprocess_missing_fit_exits_2(tmp_path, capsys):
    rc = run_cli("postprocess", "--fit", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
    assert rc == 2
    capsys.readouterr()


def test_postprocess_summary_without_mode_sizes_exits_2(tmp_path, capsys):
    data = simulate_small(tmp_path)
    fit_dir = tmp_path / "fit"
    assert run_cli(
        "fit", "--data", str(data), "--max-cycles", "1", "--out", str(fit_dir)
    ) == 0
    (fit_dir / "summary.txt").write_text("kind=gaussian-matrix\nT=3\n")
    capsys.readouterr()
    rc = run_cli("postprocess", "--fit", str(fit_dir), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: summary missing 'mode_sizes'")


def test_postprocess_bad_kmeans_writes_nothing(tmp_path, capsys):
    # Before, post_m0.txt and post_m1.txt were written before K was checked.
    data = simulate_small(tmp_path)
    fit_dir = tmp_path / "fit"
    assert run_cli(
        "fit", "--data", str(data), "--max-cycles", "1", "--out", str(fit_dir)
    ) == 0
    capsys.readouterr()
    out = tmp_path / "post"
    for k in ("99", "0"):
        rc = run_cli("postprocess", "--fit", str(fit_dir), "--kmeans", k, "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == "error: need 1 <= k <= number of rows\n"
        assert not list(out.glob("post_m*.txt")) and not (out / "labels.txt").exists()


@pytest.mark.parametrize(
    "summary, message",
    [
        (b"format_version=1\nmode_sizes=5,4\nT=3\n", "mean_m0.txt holds 12 rows"),
        (b"\xff\xfe\nmode_sizes=4,4\n", "summary is not UTF-8 text"),
    ],
)
def test_postprocess_bad_summary_names_file(tmp_path, capsys, summary, message):
    data = simulate_small(tmp_path)
    fit_dir = tmp_path / "fit"
    assert run_cli(
        "fit", "--data", str(data), "--max-cycles", "1", "--out", str(fit_dir)
    ) == 0
    (fit_dir / "summary.txt").write_bytes(summary)
    capsys.readouterr()
    rc = run_cli("postprocess", "--fit", str(fit_dir), "--out", str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert str(fit_dir) in err


@pytest.mark.skipif(shutil.which("fusionshrink") is None, reason="script not installed")
def test_console_script_exit_code(tmp_path):
    proc = subprocess.run(
        ["fusionshrink", "fit", "--data", str(tmp_path / "missing"), "--out",
         str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
