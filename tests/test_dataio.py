"""Round trips and failure modes of the plain-text artifact formats."""
import re

import numpy as np
import pytest

from fusionshrink.dataio import (
    _write_matrix,
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


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 1, 6), (2, 3, 2, 4), (3, 1, 1)])
def test_mask_files_match_integer_savetxt(tmp_path, shape):
    # Masks are written by the value writer; for 0/1 cells its bytes are
    # those of the per-slice integer savetxt it replaced, and they load back.
    rng = np.random.default_rng(13)
    Y = rng.standard_normal(shape)
    mask = (rng.random(shape) < 0.6).astype(float)
    kind = "gaussian-matrix" if len(shape) == 3 else "gaussian-tensor"
    save_dataset(tmp_path / "ds", ObservationSet(kind, Y, mask))
    for t in range(shape[0]):
        ref = tmp_path / f"ref{t}.txt"
        flat = mask[t].astype(int).reshape(shape[1], -1, order="F")
        np.savetxt(ref, np.atleast_2d(flat), fmt="%d")
        assert (tmp_path / "ds" / f"m{t:04d}.txt").read_bytes() == ref.read_bytes()
    loaded, _ = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(loaded.mask, mask)
    np.testing.assert_array_equal(loaded.values, Y)


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


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("manifest.txt", "T=3", "T=x", "T=x is not an integer >= 1"),
        ("manifest.txt", "T=3", "T=-1", "T=-1 is not an integer >= 1"),
        ("manifest.txt", "T=3", "T=0", "T=0 is not an integer >= 1"),
        ("manifest.txt", "T=3", "T=3,1", "T=3,1 is not an integer >= 1"),
        ("manifest.txt", "seed=0", "seed=x", "seed=x is not an integer"),
        ("manifest.txt", "dims=4,3", "dims=4", "dims=4 is not two positive integers"),
        ("manifest.txt", "dims=4,3", "dims=4,x", "dims=4,x is not two positive integers"),
        ("manifest.txt", "dims=4,3", "dims=4,0", "dims=4,0 is not two positive integers"),
        ("manifest.txt", "kind=gaussian-matrix", "kind=gaussian-tensor",
         "dims=4,3 is not three or more positive integers for gaussian-tensor"),
        ("t0001.txt", None, "1 2 3\n", "holds 3 value(s), not the 4 x 3 of a slice"),
        ("t0001.txt", None, "1 2 x\n", "unreadable slice file"),
        ("m0002.txt", None, "1 1\n1 1\n", "holds 4 value(s), not the 4 x 3 of a mask"),
        ("m0002.txt", None, "1 1 1\n1 ? 1\n", "unreadable mask file"),
    ],
)
def test_load_dataset_errors_name_file_and_key(tmp_path, name, old, new, message):
    # case1 n=4, p=3, T=3 with a mask.  Before, each of these gave numpy's
    # bare message ("invalid literal for int()", "negative dimensions are
    # not allowed", "cannot reshape array of size 3 ...") without the file.
    data = gen_case1(4, 3, 3, seed=1)
    obs = ObservationSet("gaussian-matrix", data.observations.values, np.ones((3, 4, 3)))
    ds = save_dataset(tmp_path / "ds", obs)
    path = ds / name
    path.write_text(path.read_text().replace(old, new) if old else new)
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        load_dataset(ds)
    assert str(path) in str(err.value)


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
    out = save_fit(tmp_path / "fit", result)
    assert not (out / "aligned_m0.txt").exists()
    factors, _ = load_fit_factors(out)
    assert [f.shape for f in factors] == [(3, 2, 2)] * 3


def test_load_fit_factors_missing(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing summary"):
        load_fit_factors(tmp_path / "nowhere")


@pytest.mark.parametrize(
    "summary", ["format_version=1\nkind=gaussian-matrix\nT=4\n", "\x00garbage\n\n"]
)
def test_load_fit_factors_summary_without_mode_sizes(tmp_path, summary):
    data = gen_case1(4, 3, 4, seed=7)
    out = save_fit(tmp_path / "fit", fit(data.observations, ModelConfig(d=2, max_cycles=1)))
    (out / "summary.txt").write_text(summary)
    with pytest.raises(ValueError, match="summary missing 'mode_sizes'"):
        load_fit_factors(out)


@pytest.mark.parametrize(
    "sizes, named",
    [("5,4", "mean_m0.txt"), ("2,4", "mean_m1.txt"), ("4,2", "mean_m1.txt"),
     ("0,4", "summary.txt"), ("4,x", "summary.txt")],
)
def test_load_fit_factors_mode_sizes_mismatch_names_file(tmp_path, sizes, named):
    # n=4, p=3, T=4: mean_m0 and mean_m1 hold 16 and 12 rows.  Before,
    # "5,4" gave numpy's bare "cannot reshape array of size ..." and "2,4"
    # or "4,2" read paths of different lengths without an error.
    data = gen_case1(4, 3, 4, seed=7)
    out = save_fit(tmp_path / "fit", fit(data.observations, ModelConfig(d=2, max_cycles=1)))
    summary = out / "summary.txt"
    text = summary.read_text().replace("mode_sizes=4,3", f"mode_sizes={sizes}")
    summary.write_text(text)
    with pytest.raises(ValueError, match=f"mode_sizes={sizes}") as err:
        load_fit_factors(out)
    assert str(err.value).startswith(str(out / named))


def test_load_fit_factors_non_utf8_summary_names_path(tmp_path):
    data = gen_case1(4, 3, 4, seed=7)
    out = save_fit(tmp_path / "fit", fit(data.observations, ModelConfig(d=2, max_cycles=1)))
    (out / "summary.txt").write_bytes(b"\xffmode_sizes=4,3\n")
    with pytest.raises(ValueError, match="summary is not UTF-8 text .*summary.txt"):
        load_fit_factors(out)


def test_load_fit_factors_unreadable_factor_names_file(tmp_path):
    data = gen_case1(4, 3, 4, seed=7)
    out = save_fit(tmp_path / "fit", fit(data.observations, ModelConfig(d=2, max_cycles=1)))
    (out / "mean_m1.txt").write_text("1 2\nx y\n")
    with pytest.raises(ValueError, match="unreadable factor file .*mean_m1.txt"):
        load_fit_factors(out)


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
