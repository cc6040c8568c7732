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


def _manifest_ints(
    path: Path, entries: dict[str, str], key: str, fewest: int, most: int | None, want: str
) -> tuple[int, ...]:
    """The comma-separated positive integers of a manifest key, between
    `fewest` and `most` (None: no limit) of them; `want` says so in the
    error, which names the manifest and the key."""
    text = entries[key]
    try:
        values = tuple(int(s) for s in text.split(","))
    except ValueError:
        values = ()
    if not fewest <= len(values) <= (most or len(values)) or min(values) < 1:
        raise ValueError(f"{path}: {key}={text} is not {want}")
    return values


def _parse_manifest(path: Path) -> tuple[str, tuple[int, ...], int, int, bool]:
    """The kind, dims, T, seed and has_mask of a dataset manifest, checked."""
    entries = _read_keys(path, ("format_version", "kind", "dims", "T"))
    if entries["format_version"] != "1":
        raise ValueError(f"unsupported format_version={entries['format_version']}")
    kind = entries["kind"]
    if kind not in KINDS:
        raise ValueError(f"unknown kind '{kind}' in {path}")
    if kind == "gaussian-tensor":
        dims = _manifest_ints(
            path, entries, "dims", 3, None, f"three or more positive integers for {kind}"
        )
    else:
        dims = _manifest_ints(path, entries, "dims", 2, 2, f"two positive integers for {kind}")
    (T,) = _manifest_ints(path, entries, "T", 1, 1, "an integer >= 1")
    try:
        seed = int(entries.get("seed", "0"))
    except ValueError:
        raise ValueError(f"{path}: seed={entries['seed']} is not an integer") from None
    has_mask = entries.get("has_mask", "0")
    if has_mask not in ("0", "1"):
        raise ValueError(f"{path}: has_mask={has_mask} is not 0 or 1")
    return kind, dims, T, seed, has_mask == "1"


def _read_slice(path: Path, what: str, shape: tuple[int, int]) -> np.ndarray:
    """One slice file (`what` is "slice" or "mask") as a `shape` matrix;
    the errors name the file and the shape."""
    if not path.is_file():
        raise FileNotFoundError(f"missing {what}: {path}")
    try:
        flat = np.loadtxt(path)
    except ValueError as exc:
        raise ValueError(f"unreadable {what} file {path}: {exc}") from exc
    if flat.size != shape[0] * shape[1]:
        raise ValueError(
            f"{path} holds {flat.size} value(s), not the {shape[0]} x {shape[1]} "
            f"of a {what} that the manifest's dims give"
        )
    return flat.reshape(shape)


def load_dataset(directory: str | Path) -> tuple[ObservationSet, int]:
    """Read a dataset directory; returns (observations, seed)."""
    directory = Path(directory)
    kind, dims, T, seed, has_mask = _parse_manifest(directory / "manifest.txt")
    shape = (dims[0], int(np.prod(dims[1:])))
    values = np.empty((T, *shape))
    mask = np.empty_like(values) if has_mask else None
    for t in range(T):
        values[t] = _read_slice(directory / f"t{t:04d}.txt", "slice", shape)
        if has_mask:
            mask[t] = _read_slice(directory / f"m{t:04d}.txt", "mask", shape) != 0
    if has_mask:
        mask = fold(mask, 0, dims)
    return ObservationSet(kind, fold(values, 0, dims), mask), seed


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
