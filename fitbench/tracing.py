"""Per-layer tracing for the fit benchmark, installed from outside the package.

Hooks replace a package function (or a `CaviEngine` method) by a wrapper
that records a span around each call.  Spans nest: a layer's self time is
its span's duration minus the time of the traced spans it encloses, so a
chain smoother call inside a sweep counts once, under `chain.smooth`, and
the sweep keeps only its own glue.

A hook whose target a refactor renamed or removed is reported as a missing
layer; the remaining layers are still traced.  Nothing here is imported by
an untraced run.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _chains(args: tuple, kwargs: dict) -> dict[str, float]:
    # smooth_core(rho0, rho, precision, shift): leading axes of precision
    # beyond (T, d, d) are independent chains.
    precision = args[2] if len(args) > 2 else kwargs["precision"]
    return {"chain.chains": float(np.prod(np.shape(precision)[:-3]))}


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    target: str  # "function" or "Class.method"
    counter: Callable[[tuple, dict], dict[str, float]] | None = None
    outermost_only: bool = False  # skip the span when called inside another


HOOKS = (
    Hook("chain.smooth", "fusionshrink.chain", "smooth_core", counter=_chains),
    Hook("likelihoods.sites", "fusionshrink.likelihoods", "gaussian_matrix_sites"),
    Hook("likelihoods.sites", "fusionshrink.likelihoods", "bernoulli_site_subject"),
    Hook("likelihoods.sites", "fusionshrink.likelihoods", "tensor_sites"),
    Hook("likelihoods.aux", "fusionshrink.likelihoods", "gaussian_noise_update"),
    Hook("likelihoods.aux", "fusionshrink.likelihoods", "xi_update"),
    Hook("likelihoods.aux", "fusionshrink.likelihoods", "intercept_update"),
    Hook("scales.update", "fusionshrink.scales", "update_eta"),
    Hook("scales.update", "fusionshrink.scales", "update_lambda2"),
    Hook("scales.update", "fusionshrink.scales", "update_tau2"),
    Hook("scales.update", "fusionshrink.scales", "update_sigma0"),
    Hook("scales.update", "fusionshrink.chain", "all_expected_transition_sq"),
    Hook("engine.init", "fusionshrink.engine", "CaviEngine.__init__"),
    Hook("engine.run", "fusionshrink.engine", "CaviEngine.run"),
    Hook("engine.sweep", "fusionshrink.engine", "CaviEngine.sweep"),
    Hook("engine.metric", "fusionshrink.engine", "CaviEngine.metric"),
    Hook("engine.elbo", "fusionshrink.engine", "CaviEngine.elbo"),
    # metric() predicts internally; only the job's own call counts here.
    Hook("engine.predict", "fusionshrink.engine", "CaviEngine.predict_stack",
         outermost_only=True),
    Hook("postprocess.align", "fusionshrink.postprocess", "sequential_align"),
    Hook("postprocess.align", "fusionshrink.postprocess", "row_normalize"),
    Hook("postprocess.kmeans", "fusionshrink.postprocess", "kmeans_rows"),
    Hook("dataio.load", "fusionshrink.dataio", "load_dataset"),
    Hook("dataio.save", "fusionshrink.dataio", "save_fit"),
    Hook("simulate.generate", "fusionshrink.simulate", "gen_case1"),
    Hook("simulate.generate", "fusionshrink.simulate", "gen_cluster_case"),
    Hook("simulate.generate", "fusionshrink.simulate", "gen_case3_tensor"),
)


class Tracer:
    """Collects self time, call counts and extra counts per layer."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # [start, time of child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook.outermost_only and stack:
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.self_s[hook.layer] += duration - frame[1]
                self.calls[hook.layer] += 1
                if hook.counter is not None:
                    for name, value in hook.counter(args, kwargs).items():
                        self.counts[name] += value

        return traced

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()


class Installed:
    """Hooks in place; `restore()` puts every original back."""

    def __init__(self, tracer: Tracer, hooks: tuple[Hook, ...] | None = None) -> None:
        self.hooks = HOOKS if hooks is None else hooks
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        for hook in self.hooks:
            try:
                self._install(tracer, hook)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{hook.layer} ({hook.module}.{hook.target})")

    def _install(self, tracer: Tracer, hook: Hook) -> None:
        module = importlib.import_module(hook.module)
        owner_name, _, method = hook.target.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._set(owner, method, original, tracer.wrap(hook, original))
            return
        original = getattr(module, method)
        wrapped = tracer.wrap(hook, original)
        # Patch every package module that imported the function by name,
        # since callers look it up in their own namespace.
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "fusionshrink" and getattr(mod, method, None) is original:
                self._set(mod, method, original, wrapped)

    def _set(self, owner: object, name: str, original: object, value: object) -> None:
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def layers(self) -> set[str]:
        missing = {entry.split(" ")[0] for entry in self.missing}
        return {hook.layer for hook in self.hooks} - missing
