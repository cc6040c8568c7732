"""Plain-text dataset and fit artifacts.

A dataset directory holds a manifest plus one whitespace-separated matrix
per time step, the mask (if any) likewise.  Order-3 slices are stored as
their mode-0 unfolding (`likelihoods.unfold`: columns ordered
Fortran-style over the remaining modes) so every file is two dimensional.
All floats are written with %.17g, which round-trips IEEE doubles exactly;
reruns with the same inputs are byte identical.
"""
from __future__ import annotations

import csv
from pathlib import Path
from statistics import median

import numpy as np

from .engine import FitResult, predict_stack
from .likelihoods import KINDS, ObservationSet, fold, unfold
from .postprocess import align_modes

_FMT = "%.17g"


def _write_matrix(path: Path, values: np.ndarray) -> None:
    """The bytes of `np.savetxt(path, np.atleast_2d(values), fmt=_FMT)`,
    formatted by one `%` over a whole-file template and written at once
    (savetxt formats and writes row by row)."""
    values = np.atleast_2d(values)
    nrows, ncols = values.shape
    row = " ".join([_FMT] * ncols) + "\n"
    with open(path, "w") as fh:
        fh.write((row * nrows) % tuple(values.ravel().tolist()))


def write_slices(directory: str | Path, prefix: str, slices: np.ndarray) -> None:
    """Write a (T, *dims) stack as one text matrix per time step,
    `{prefix}{t:04d}.txt`, each the slice's mode-0 unfolding."""
    directory = Path(directory)
    for t, flat in enumerate(unfold(slices, 0)):
        _write_matrix(directory / f"{prefix}{t:04d}.txt", flat)


def save_dataset(
    directory: str | Path, obs: ObservationSet, seed: int = 0
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        "format_version=1",
        f"kind={obs.kind}",
        "dims=" + ",".join(str(s) for s in obs.dims),
        f"T={obs.horizon}",
        f"seed={seed}",
        f"has_mask={0 if obs.mask is None else 1}",
    ]
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")
    write_slices(directory, "t", obs.values)
    if obs.mask is not None:
        write_slices(directory, "m", obs.mask)
    return directory


def _read_keys(path: Path, required: tuple[str, ...]) -> dict[str, str]:
    """The key=value lines of a manifest or summary file; names the file by
    its stem in the errors for a missing file or a missing required key."""
    if not path.is_file():
        raise FileNotFoundError(f"missing {path.stem}: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.stem} is not UTF-8 text ({exc.reason}): {path}") from exc
    entries: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    for key in required:
        if key not in entries:
            raise ValueError(f"{path.stem} missing '{key}': {path}")
    return entries


def _parse_manifest(path: Path) -> dict[str, str]:
    entries = _read_keys(path, ("format_version", "kind", "dims", "T"))
    if entries["format_version"] != "1":
        raise ValueError(f"unsupported format_version={entries['format_version']}")
    if entries["kind"] not in KINDS:
        raise ValueError(f"unknown kind '{entries['kind']}' in {path}")
    return entries


def load_dataset(directory: str | Path) -> tuple[ObservationSet, int]:
    """Read a dataset directory; returns (observations, seed)."""
    directory = Path(directory)
    entries = _parse_manifest(directory / "manifest.txt")
    dims = tuple(int(s) for s in entries["dims"].split(","))
    T = int(entries["T"])
    seed = int(entries.get("seed", "0"))
    has_mask = entries.get("has_mask", "0") == "1"
    values = np.empty((T, dims[0], int(np.prod(dims[1:]))))
    mask = np.empty_like(values) if has_mask else None
    for t in range(T):
        slice_path = directory / f"t{t:04d}.txt"
        if not slice_path.is_file():
            raise FileNotFoundError(f"missing slice: {slice_path}")
        values[t] = np.loadtxt(slice_path).reshape(dims[0], -1)
        if has_mask:
            mask_path = directory / f"m{t:04d}.txt"
            if not mask_path.is_file():
                raise FileNotFoundError(f"missing mask: {mask_path}")
            mask[t] = np.loadtxt(mask_path).reshape(dims[0], -1) != 0
    if has_mask:
        mask = fold(mask, 0, dims)
    return ObservationSet(entries["kind"], fold(values, 0, dims), mask), seed


def _stack_time_major(mean: np.ndarray) -> np.ndarray:
    # (n, T, d) -> (T * n, d), rows grouped by time step
    return mean.transpose(1, 0, 2).reshape(-1, mean.shape[2])


def _unstack_time_major(flat: np.ndarray, n: int) -> np.ndarray:
    T = flat.shape[0] // n
    return flat.reshape(T, n, flat.shape[1]).transpose(1, 0, 2)


def write_factors(directory: str | Path, prefix: str, factors: list[np.ndarray]) -> None:
    """Write (n, T, d) factor paths as `{prefix}{k}.txt`, each a (T * n, d)
    matrix with rows grouped by time step."""
    directory = Path(directory)
    for k, factor in enumerate(factors):
        _write_matrix(directory / f"{prefix}{k}.txt", _stack_time_major(factor))


def save_fit(directory: str | Path, fit: FitResult) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    means = [mode.mean for mode in fit.modes]
    lines = [
        "format_version=1",
        f"kind={fit.kind}",
        "mode_sizes=" + ",".join(str(m.shape[0]) for m in means),
        f"T={means[0].shape[1]}",
        f"d={fit.config.d}",
        f"prior={fit.config.prior}",
        f"alpha={_FMT % fit.config.alpha}",
        f"seed={fit.config.seed}",
        f"cycles={fit.cycles}",
        f"converged={int(fit.converged)}",
    ]
    if fit.trace:
        lines.append(f"final_metric={_FMT % fit.trace[-1]}")
    if fit.aux.intercept is not None:
        lines.append(f"intercept={_FMT % fit.aux.intercept.mean}")
    (directory / "summary.txt").write_text("\n".join(lines) + "\n")
    (directory / "trace.txt").write_text(
        "".join(_FMT % v + "\n" for v in fit.trace)
    )
    write_factors(directory, "mean_m", means)
    aligned = align_modes(means)
    if aligned is not None:
        write_factors(directory, "aligned_m", aligned)
    write_slices(directory, "predicted_t", predict_stack(fit))
    return directory


def load_fit_factors(directory: str | Path) -> tuple[list[np.ndarray], dict[str, str]]:
    """Read mean_m{k}.txt files back as (n_k, T, d) arrays plus the
    summary entries."""
    directory = Path(directory)
    summary = directory / "summary.txt"
    entries = _read_keys(summary, ("mode_sizes",))
    listed = f"mode_sizes={entries['mode_sizes']}"
    try:
        sizes = [int(s) for s in entries["mode_sizes"].split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ValueError(f"{summary}: {listed} is not a list of positive integers")
    factors: list[np.ndarray] = []
    for k, n in enumerate(sizes):
        path = directory / f"mean_m{k}.txt"
        if not path.is_file():
            raise FileNotFoundError(f"missing factor file: {path}")
        try:
            flat = np.atleast_2d(np.loadtxt(path))
        except ValueError as exc:
            raise ValueError(f"unreadable factor file {path}: {exc}") from exc
        rows = flat.shape[0]
        if rows % n or (factors and rows // n != factors[0].shape[1]):
            raise ValueError(
                f"{path} holds {rows} rows, not {n} per time step over the "
                f"time steps of every mode, as {listed} in {summary} needs"
            )
        factors.append(_unstack_time_major(flat, n))
    return factors, entries


RESULT_FIELDS = ("scenario", "method", "replicate", "seed", "metric", "value")


def write_results_csv(path: str | Path, rows: list[dict]) -> Path:
    """Write benchmark rows plus one median summary row per
    (scenario, method, metric) group, in first-appearance order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple[str, str, str], list[float]] = {}
    for row in rows:
        key = (row["scenario"], row["method"], row["metric"])
        groups.setdefault(key, []).append(float(row["value"]))
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=RESULT_FIELDS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["value"] = _FMT % float(row["value"])
            writer.writerow(out)
        for (scenario, method, metric), values in groups.items():
            writer.writerow(
                {
                    "scenario": scenario,
                    "method": method,
                    "replicate": "median",
                    "seed": "",
                    "metric": metric,
                    "value": _FMT % median(values),
                }
            )
    return path
