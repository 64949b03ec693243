"""Spans around pvflock's public functions, recorded from outside the package.

A span is (name, start, end, parent, run id).  Spans are appended to flat
arrays while the program runs and summarised or written out afterwards, so
recording one costs a few list and array appends.  A layer's self time is
the time inside its spans minus the time inside their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: The calls through which each layer is entered.  Calls inside a layer stay
#: in the caller's self time, so a layer's self time does not depend on how
#: finely it is wrapped; wrapping only the entry points keeps the tracing
#: overhead down on the per-building calls.  Names a module no longer has
#: are skipped.
LAYERS: dict[str, tuple[str, ...]] = {
    "control": ("IpController.step", "IpController.record_applied"),
    "coordinator": ("coordinator_step", "power_band", "per_building_bounds", "clamp_to_bounds"),
    "plant": ("rk4_fleet",),
    "scenario": (
        "synth_disturbances", "synth_pv", "Profile.value_at", "load_config", "load_profile_csv",
    ),
    "simulate": ("run_simulation", "write_trace", "read_trace", "compute_metrics"),
    "cli": ("main",),
}

#: The stage calls that the end-to-end rates divide by; probed in every run.
STAGES: dict[str, tuple[str, ...]] = {"simulate": LAYERS["simulate"]}


class Tracer:
    """Wraps pvflock functions in place and records a span per call."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.last: dict[str, object] = {}  # label -> last value returned
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self, layers: dict[str, tuple[str, ...]]) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("pvflock.")]
        for layer, qualnames in layers.items():
            mod = sys.modules[f"pvflock.{layer}"]
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    continue
                wrapper = self._wrap(original, f"{layer}.{qualname}")
                # a function is called through every module that imported it
                owners = [owner] if owner_name else [m for m in modules if vars(m).get(attr) is original]
                for o in owners:
                    self._patched.append((o, attr, original))
                    setattr(o, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, label: str):
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, run, start, end = self.name, self.parent, self.run, self.start, self.end
        stack, last, clock = self._stack, self.last, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                last[label] = result
                return result
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    def durations(self, label: str) -> list[float]:
        """Wall time of every recorded call of one wrapped function."""
        name, _, _, dur = self._columns()
        nids = [i for i, lab in enumerate(self.labels) if lab == label]
        return dur[np.isin(name, nids)].tolist()

    def _columns(self):
        # copies, so that the arrays can keep growing afterwards
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        run = np.array(self.run, dtype=np.int32)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        return name, parent, run, dur

    def layer_totals(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per-layer self time and call count, and per-function wall time, in one run."""
        name, parent, run, dur = self._columns()
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        own = dur - child[: len(dur)]
        sel = run == run_id
        out: dict[str, dict[str, float]] = {}
        for nid, label in enumerate(self.labels):
            hit = sel & (name == nid)
            layer = label.split(".", 1)[0]
            acc = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += float(own[hit].sum())
            acc["calls"] += int(hit.sum())
            acc[label] = acc.get(label, 0.0) + float(dur[hit].sum())
            acc[label + ".self"] = acc.get(label + ".self", 0.0) + float(own[hit].sum())
        return out

    def save(self, path: Path) -> None:
        name, parent, run, dur = self._columns()
        np.savez(
            path,
            labels=np.array(self.labels),
            name=name,
            parent=parent,
            run=run,
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )
