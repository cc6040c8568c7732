"""Round trips and failure modes of the plain-text artifact formats."""
import numpy as np
import pytest

from fusionshrink.dataio import (
    _write_matrix,
    aligned_trajectories,
    load_dataset,
    load_fit_factors,
    save_dataset,
    save_fit,
    write_results_csv,
)
from fusionshrink.engine import ModelConfig, fit
from fusionshrink.likelihoods import ObservationSet
from fusionshrink.simulate import gen_case1, gen_case2_network, gen_case3_tensor


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((3, 4, 5))
    obs = ObservationSet(kind="gaussian-matrix", values=Y)
    save_dataset(tmp_path / "ds", obs, seed=42)
    loaded, seed = load_dataset(tmp_path / "ds")
    assert seed == 42
    assert loaded.kind == "gaussian-matrix"
    np.testing.assert_array_equal(loaded.values, Y)  # %.17g is exact
    assert loaded.mask is None


def test_masked_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((2, 3, 3))
    mask = rng.random((2, 3, 3)) < 0.5
    obs = ObservationSet(kind="gaussian-matrix", values=Y, mask=mask.astype(float))
    save_dataset(tmp_path / "ds", obs)
    loaded, _ = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(np.asarray(loaded.mask, dtype=float), mask)


def test_tensor_roundtrip_uses_fortran_unfolding(tmp_path):
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((2, 3, 4, 2))
    obs = ObservationSet(kind="gaussian-tensor", values=Y)
    save_dataset(tmp_path / "ds", obs)
    raw = np.loadtxt(tmp_path / "ds" / "t0000.txt")
    np.testing.assert_array_equal(raw, Y[0].reshape(3, -1, order="F"))
    loaded, _ = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(loaded.values, Y)


def test_network_roundtrip(tmp_path):
    data = gen_case2_network(n=6, T=3, seed=5)
    save_dataset(tmp_path / "net", data.observations, seed=5)
    loaded, seed = load_dataset(tmp_path / "net")
    assert loaded.kind == "bernoulli-network"
    np.testing.assert_array_equal(loaded.values, data.observations.values)


def test_save_dataset_byte_identical(tmp_path):
    data = gen_case1(4, 3, 3, seed=9)
    save_dataset(tmp_path / "a", data.observations, seed=9)
    save_dataset(tmp_path / "b", data.observations, seed=9)
    for name in ("manifest.txt", "t0000.txt", "t0002.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_write_matrix_matches_savetxt_bytes(tmp_path):
    # The writer formats a whole file with one `%`; its bytes must be those
    # of np.savetxt with the same format, special values included.
    rng = np.random.default_rng(12)
    cases = [
        rng.standard_normal(7),
        rng.standard_normal((20, 20)),
        np.array([[3.25]]),
        np.array([[-0.0, 0.0, np.nan, -np.nan], [np.inf, -np.inf, 5e-324, 1e300]]),
        1e-310 * rng.standard_normal((30, 3)),
        np.arange(12.0).reshape(3, 4),
    ]
    for i, values in enumerate(cases):
        ours, ref = tmp_path / f"a{i}.txt", tmp_path / f"b{i}.txt"
        _write_matrix(ours, values)
        np.savetxt(ref, np.atleast_2d(values), fmt="%.17g")
        assert ours.read_bytes() == ref.read_bytes(), i


def test_load_dataset_failure_modes(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nowhere")
    ds = tmp_path / "ds"
    data = gen_case1(3, 3, 3, seed=0)
    save_dataset(ds, data.observations)
    (ds / "t0001.txt").unlink()
    with pytest.raises(FileNotFoundError, match="slice"):
        load_dataset(ds)


def test_manifest_validation(tmp_path):
    ds = tmp_path / "ds"
    ds.mkdir()
    manifest = ds / "manifest.txt"
    manifest.write_text("format_version=2\nkind=gaussian-matrix\ndims=2,2\nT=1\n")
    with pytest.raises(ValueError, match="format_version"):
        load_dataset(ds)
    manifest.write_text("format_version=1\nkind=volcano\ndims=2,2\nT=1\n")
    with pytest.raises(ValueError, match="kind"):
        load_dataset(ds)
    manifest.write_text("format_version=1\nkind=gaussian-matrix\nT=1\n")
    with pytest.raises(ValueError, match="dims"):
        load_dataset(ds)


def test_missing_mask_file(tmp_path):
    rng = np.random.default_rng(3)
    obs = ObservationSet(
        kind="gaussian-matrix",
        values=rng.standard_normal((2, 2, 2)),
        mask=np.ones((2, 2, 2)),
    )
    save_dataset(tmp_path / "ds", obs)
    (tmp_path / "ds" / "m0001.txt").unlink()
    with pytest.raises(FileNotFoundError, match="mask"):
        load_dataset(tmp_path / "ds")


def test_fit_artifacts_roundtrip(tmp_path):
    data = gen_case1(4, 3, 4, seed=7)
    result = fit(data.observations, ModelConfig(d=2, max_cycles=3))
    out = save_fit(tmp_path / "fit", result)
    factors, entries = load_fit_factors(out)
    assert entries["kind"] == "gaussian-matrix"
    assert entries["prior"] == "ffs"
    assert int(entries["T"]) == 4
    assert len(factors) == 2
    np.testing.assert_array_equal(factors[0], result.modes[0].mean)
    np.testing.assert_array_equal(factors[1], result.modes[1].mean)
    pred = np.loadtxt(out / "predicted_t0000.txt")
    assert pred.shape == (4, 3)
    assert (out / "aligned_m0.txt").is_file()
    assert (out / "trace.txt").read_text().count("\n") == result.cycles


def test_tensor_fit_has_no_aligned_files(tmp_path):
    data = gen_case3_tensor((3, 3, 3), T=2, seed=1)
    result = fit(data.observations, ModelConfig(d=2, max_cycles=2))
    assert aligned_trajectories(result) is None
    out = save_fit(tmp_path / "fit", result)
    assert not (out / "aligned_m0.txt").exists()
    factors, _ = load_fit_factors(out)
    assert [f.shape for f in factors] == [(3, 2, 2)] * 3


def test_load_fit_factors_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_fit_factors(tmp_path / "nowhere")


def test_results_csv_layout(tmp_path):
    rows = [
        {"scenario": "case1", "method": "ffs", "replicate": 0, "seed": 10,
         "metric": "rmse", "value": 0.5},
        {"scenario": "case1", "method": "ffs", "replicate": 1, "seed": 11,
         "metric": "rmse", "value": 0.3},
        {"scenario": "case1", "method": "svd1", "replicate": 0, "seed": 10,
         "metric": "rmse", "value": 0.7},
    ]
    path = write_results_csv(tmp_path / "res.csv", rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,method,replicate,seed,metric,value"
    assert len(lines) == 1 + 3 + 2  # header, rows, two median groups
    assert lines[4] == "case1,ffs,median,,rmse,0.40000000000000002"
    assert lines[5] == "case1,svd1,median,,rmse,0.69999999999999996"
    # byte-identical rerun
    again = write_results_csv(tmp_path / "res2.csv", rows)
    assert path.read_bytes() == again.read_bytes()
