"""Spans around the calls each fixaccel layer exposes to its callers.

``Tracer.install()`` replaces the module attributes that callers look
up at run time (``fixaccel.engine.transfer`` and so on) with wrappers
that record a span per call: name, start, end, parent span and the
analysis it belongs to.  Spans stay in memory, column by column, until
the run writes them out; ``layer_metrics`` turns them into the
per-layer metrics.
"""
from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) -> span name.  The span name's prefix is the layer.
WRAPPED = {
    ("fixaccel.engine", "transfer"): "programs.transfer",
    ("fixaccel.engine", "state_join"): "intervals.join",
    ("fixaccel.engine", "state_widen_std"): "intervals.widen",
    ("fixaccel.engine", "state_widen_thresholds"): "intervals.widen",
    ("fixaccel.engine", "state_leq"): "intervals.leq",
    ("fixaccel.engine", "aitken"): "transforms.estimate",
    ("fixaccel.engine", "epsilon_diagonal"): "transforms.estimate",
    ("fixaccel.engine", "vector_epsilon_diagonal"): "transforms.estimate",
    ("fixaccel.engine", "converged"): "transforms.converged",
    ("fixaccel.engine", "combine_detailed"): "extraction.combine",
    ("fixaccel.engine", "verify_postfixpoint"): "engine.verify",
    ("fixaccel.cli", "main"): "cli.main",
    ("fixaccel.cli", "parse"): "programs.parse",
    ("fixaccel.cli", "analyze"): "engine.analyze",
    # the accelerate command's one-shot transforms
    ("fixaccel.cli", "aitken"): "transforms.estimate",
    ("fixaccel.cli", "epsilon_diagonal"): "transforms.estimate",
    ("fixaccel.cli", "vector_epsilon_diagonal"): "transforms.estimate",
}


def _terms(program) -> int:
    return sum(len(a.terms) for a in program.body)


def _extra(name: str, args, result):
    """A count recorded with the span, taken after its end time; None if
    the call's arguments or result are not shaped as this module expects,
    so that tracing never changes what the program does."""
    try:
        if name == "transforms.estimate":
            return (int(np.size(args[0])), len(result),
                    sum(1 for e in result if e.stalled))
        if name == "programs.transfer":
            return _terms(args[0])
        if name == "programs.parse":
            return _terms(result)
        if name == "transforms.converged":
            return bool(result)
        if name == "extraction.combine":
            return len(result[1])
    except (AttributeError, IndexError, TypeError):
        pass
    return None


class Tracer:
    """Records spans of wrapped calls; ``analysis`` tags the spans that
    follow with the id of the analysis the caller is running."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.aids = array("l")
        self.extras: list = []
        self.stack: list[int] = []
        self.analysis = -1
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn):
        names, starts, ends, parents, aids, extras = (
            self.names, self.starts, self.ends, self.parents, self.aids, self.extras)
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            aids.append(self.analysis)
            extras.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            extras[i] = _extra(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for (modname, attr), name in WRAPPED.items():
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "analysis": self.aids[i]}) + "\n")


def layer_metrics(tr: Tracer, analyses: dict[int, dict], rounds: int) -> dict:
    """Per-layer metrics, per round, from the spans of ``rounds`` rounds.

    ``analyses`` maps an analysis id to what the benchmark knows about
    it: ``mode``, ``iterations``, ``injections`` and ``bytes``.
    """
    dur = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)  # time covered by direct children, per span
    extras = defaultdict(list)
    transfers = defaultdict(list)  # analysis -> start times of its transfers
    verify_start: dict[int, float] = {}
    widened: set[int] = set()
    for i, name in enumerate(tr.names):
        d = tr.ends[i] - tr.starts[i]
        dur[name] += d
        calls[name] += 1
        if tr.parents[i] >= 0:
            child[tr.parents[i]] += d
        if tr.extras[i] is not None:
            extras[name].append(tr.extras[i])
        if name == "programs.transfer":
            transfers[tr.aids[i]].append(tr.starts[i])
        elif name == "engine.verify":
            verify_start[tr.aids[i]] = tr.starts[i]
        elif name == "intervals.widen":
            widened.add(tr.aids[i])

    def self_s(layer: str) -> float:
        return sum(tr.ends[i] - tr.starts[i] - child[i]
                   for i, name in enumerate(tr.names) if name.startswith(layer))

    # The loop makes one transfer per iteration and verify makes the
    # last one; the seal makes those in between.
    seal_transfers, seal_s, fallback_runs = 0, 0.0, 0
    for aid, info in analyses.items():
        starts, it = transfers.get(aid, []), info["iterations"]
        if len(starts) > it + 1 and aid in verify_start:
            seal_transfers += len(starts) - it - 1
            seal_s += verify_start[aid] - starts[it]
        if info["mode"] == "accel" and aid in widened:
            fallback_runs += 1

    est = extras["transforms.estimate"]
    elements = sum(e[1] for e in est)
    agreeing = sum(extras["transforms.converged"])
    injections = sum(a["injections"] for a in analyses.values())

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    r = float(rounds)
    ms = 1e3 / r
    return {
        "programs.parse_ms": (dur["programs.parse"] * ms, "ms"),
        "programs.parse_terms_per_s": (
            rate(sum(extras["programs.parse"]), dur["programs.parse"]), "terms/s"),
        "programs.transfer_ms": (dur["programs.transfer"] * ms, "ms"),
        "programs.transfer_calls": (calls["programs.transfer"] / r, "count"),
        "programs.transfer_terms_per_s": (
            rate(sum(extras["programs.transfer"]), dur["programs.transfer"]), "terms/s"),
        "intervals.join_ms": (dur["intervals.join"] * ms, "ms"),
        "intervals.join_calls": (calls["intervals.join"] / r, "count"),
        "intervals.widen_ms": (dur["intervals.widen"] * ms, "ms"),
        "intervals.widen_calls": (calls["intervals.widen"] / r, "count"),
        "intervals.leq_ms": (dur["intervals.leq"] * ms, "ms"),
        "transforms.estimate_ms": (
            (dur["transforms.estimate"] + dur["transforms.converged"]) * ms, "ms"),
        "transforms.estimate_calls": (calls["transforms.estimate"] / r, "count"),
        "transforms.estimate_cells": (sum(e[0] for e in est) / r, "count"),
        "transforms.stalled_frac": (
            sum(e[2] for e in est) / elements if elements else 0.0, "ratio"),
        "extraction.combine_ms": (dur["extraction.combine"] * ms, "ms"),
        "extraction.combine_calls": (calls["extraction.combine"] / r, "count"),
        "extraction.swapped": (sum(extras["extraction.combine"]) / r, "count"),
        "engine.self_ms": (self_s("engine.") * ms, "ms"),
        "engine.iterations": (sum(a["iterations"] for a in analyses.values()) / r, "count"),
        "engine.injections": (injections / r, "count"),
        "engine.injection_yield": (injections / agreeing if agreeing else 0.0, "ratio"),
        "engine.fallback_runs": (fallback_runs / r, "count"),
        "engine.seal_transfers": (seal_transfers / r, "count"),
        "engine.seal_ms": (seal_s * ms, "ms"),
        "engine.verify_ms": (dur["engine.verify"] * ms, "ms"),
        "cli.self_ms": (self_s("cli.") * ms, "ms"),
        "cli.bytes_written": (sum(a["bytes"] for a in analyses.values()) / r, "bytes"),
    }
