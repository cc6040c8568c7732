"""Plain-text dataset and fit artifacts.

A dataset directory holds a manifest plus one whitespace-separated matrix
per time step.  Order-3 slices are stored as their first-mode unfolding
(columns ordered Fortran-style over the remaining modes) so every file is
two dimensional.  All floats are written with %.17g, which round-trips
IEEE doubles exactly; reruns with the same inputs are byte identical.
"""
from __future__ import annotations

import csv
from pathlib import Path
from statistics import median

import numpy as np

from .engine import FitResult, predict_stack
from .likelihoods import KINDS, ObservationSet
from .postprocess import sequential_align

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


def _slice_to_2d(slice_t: np.ndarray) -> np.ndarray:
    if slice_t.ndim <= 2:
        return slice_t
    return slice_t.reshape(slice_t.shape[0], -1, order="F")


def write_slices(directory: str | Path, prefix: str, slices: np.ndarray) -> None:
    """Write a (T, *dims) stack as one text matrix per time step,
    `{prefix}{t:04d}.txt`, order-3 slices as their first-mode unfolding."""
    directory = Path(directory)
    for t, slice_t in enumerate(slices):
        _write_matrix(directory / f"{prefix}{t:04d}.txt", _slice_to_2d(slice_t))


def _slice_from_2d(flat: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    flat = np.atleast_2d(np.asarray(flat, dtype=float))
    if len(dims) <= 2:
        return flat.reshape(dims)
    return flat.reshape(dims, order="F")


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
        for t in range(obs.horizon):
            np.savetxt(
                directory / f"m{t:04d}.txt",
                np.atleast_2d(_slice_to_2d(obs.mask[t].astype(int))),
                fmt="%d",
            )
    return directory


def _parse_manifest(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise FileNotFoundError(f"missing manifest: {path}")
    entries: dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    for key in ("format_version", "kind", "dims", "T"):
        if key not in entries:
            raise ValueError(f"manifest missing '{key}': {path}")
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
    values = np.empty((T, *dims))
    mask = np.empty((T, *dims), dtype=bool) if has_mask else None
    for t in range(T):
        slice_path = directory / f"t{t:04d}.txt"
        if not slice_path.is_file():
            raise FileNotFoundError(f"missing slice: {slice_path}")
        values[t] = _slice_from_2d(np.loadtxt(slice_path), dims)
        if has_mask:
            mask_path = directory / f"m{t:04d}.txt"
            if not mask_path.is_file():
                raise FileNotFoundError(f"missing mask: {mask_path}")
            mask[t] = _slice_from_2d(np.loadtxt(mask_path), dims) != 0
    return ObservationSet(kind=entries["kind"], values=values, mask=mask), seed


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


def aligned_trajectories(fit: FitResult) -> list[np.ndarray] | None:
    """Rotation-resolved factor paths, or None where alignment is not
    defined (more than two latent modes).

    Matrix kinds rotate both modes by the transform fitted on the rows of
    the two factor blocks stacked per time step; the network kind aligns
    its single mode directly.
    """
    means = [m.mean for m in fit.modes]
    if len(means) == 1:
        return [sequential_align(means[0].transpose(1, 0, 2))[0].transpose(1, 0, 2)]
    if len(means) == 2:
        stacked = np.concatenate(means, axis=0)
        aligned, _ = sequential_align(stacked.transpose(1, 0, 2))
        aligned = aligned.transpose(1, 0, 2)
        n0 = means[0].shape[0]
        return [aligned[:n0], aligned[n0:]]
    return None


def save_fit(directory: str | Path, fit: FitResult) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sizes = [m.mean.shape[0] for m in fit.modes]
    lines = [
        "format_version=1",
        f"kind={fit.kind}",
        "mode_sizes=" + ",".join(str(s) for s in sizes),
        f"T={fit.modes[0].mean.shape[1]}",
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
    write_factors(directory, "mean_m", [mode.mean for mode in fit.modes])
    aligned = aligned_trajectories(fit)
    if aligned is not None:
        write_factors(directory, "aligned_m", aligned)
    write_slices(directory, "predicted_t", predict_stack(fit))
    return directory


def load_fit_factors(directory: str | Path) -> tuple[list[np.ndarray], dict[str, str]]:
    """Read mean_m{k}.txt files back as (n_k, T, d) arrays plus the
    summary entries."""
    directory = Path(directory)
    summary_path = directory / "summary.txt"
    if not summary_path.is_file():
        raise FileNotFoundError(f"missing summary: {summary_path}")
    entries: dict[str, str] = {}
    for line in summary_path.read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    sizes = [int(s) for s in entries["mode_sizes"].split(",")]
    factors = []
    for k, n in enumerate(sizes):
        path = directory / f"mean_m{k}.txt"
        if not path.is_file():
            raise FileNotFoundError(f"missing factor file: {path}")
        factors.append(_unstack_time_major(np.atleast_2d(np.loadtxt(path)), n))
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
