"""Per-layer tracing by wrapping mppstat's module-boundary functions from outside.

The tracer replaces the public functions listed in ``TARGETS`` with thin
wrappers that record one span (name, start, end, parent) per call and a
few exact counts.  A function is replaced in every ``mppstat`` namespace
that binds it by name (``est``, ``infer`` and ``weights`` import
``band_pair_indices`` directly, ``cli`` imports ``write_pattern_csv`` and
``compute_weights``), so no caller reaches an unwrapped original.  Methods
are replaced on their class.  ``uninstall`` puts every original back, and
``leftover_wrappers`` proves that it did.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and properly nested, so the children
never overlap.  Spans stay in memory until ``write_spans`` at the end of
the run.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

from mppstat import cli, core, est, infer, markfn, oracle, sim, weights

_MARK = "__perfbench_original__"


def _pairs_counts(counts, args, kwargs, out):
    counts["core.pair_calls"] += 1
    counts["core.pairs_kept"] += int(out[0].size)


def _ground_counts(counts, args, kwargs, out):
    counts["sim.points"] += int(out.shape[0])


def _marks_counts(counts, args, kwargs, out):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    if isinstance(spec, sim.GaussianFieldMarks):
        n = len(out[0])
        counts["sim.field_n_max"] = max(counts["sim.field_n_max"], n)


def _init_counts(counts, args, kwargs, out):
    counts["core.pattern_inits"] += 1


def _markfn_counts(counts, args, kwargs, out):
    counts["markfn.calls"] += 1


def _csv_write_counts(counts, args, kwargs, out):
    counts["core.csv_write_bytes"] += os.path.getsize(args[1])


def _csv_read_counts(counts, args, kwargs, out):
    counts["core.csv_read_bytes"] += os.path.getsize(args[0])


# (owner, attribute, span name, count hook)
TARGETS = (
    (cli, "main", "cli.self", None),
    (cli, "cmd_simulate", "cli.self", None),
    (cli, "cmd_estimate", "cli.self", None),
    (cli, "cmd_report", "cli.self", None),
    (cli, "cmd_infer_clt", "cli.self", None),
    (cli, "load_config", "cli.config", None),
    (sim, "sample_mixture", "sim.mixture", None),
    (sim, "sample_ground", "sim.ground", _ground_counts),
    (sim, "sample_marks", "sim.marks", _marks_counts),
    (core.PointPattern, "__post_init__", "core.pattern_init", _init_counts),
    (core, "band_pair_indices", "core.pairs", _pairs_counts),
    (core, "write_pattern_csv", "core.csv_write", _csv_write_counts),
    (core, "read_pattern_csv", "core.csv_read", _csv_read_counts),
    (markfn.MarkFunction, "__call__", "markfn.eval", _markfn_counts),
    (est, "mean_mark_avg", "est.reduce", None),
    (est, "mean_mark_pooled", "est.reduce", None),
    (est, "mean_mark_weighted", "est.reduce", None),
    (weights, "compute_weights", "weights.compute", None),
    (weights, "mean_mark_conditional_variance", "weights.compute", None),
    (infer, "clt_experiment", "infer.clt", None),
    (oracle, "mixture_mean_mark", "oracle.closed_form", None),
    (oracle, "class_averaged_mean_mark", "oracle.closed_form", None),
    (oracle, "class_moments", "oracle.closed_form", None),
    (oracle, "threshold_excess_mean", "oracle.closed_form", None),
    (oracle, "monte_carlo_mean_mark", "oracle.mc", None),
)


def _mppstat_namespaces():
    return [m for name, m in sys.modules.items()
            if name == "mppstat" or name.startswith("mppstat.")]


class Tracer:
    """Records spans and counts while installed; one round at a time."""

    def __init__(self):
        self.rounds = []  # per round: (spans, self_s, counts, wall_s)
        self._patches = []  # (namespace, attribute, original)
        self._spans = []
        self._stack = []
        self._child = []
        self._self_s = defaultdict(float)
        self._counts = defaultdict(int)

    def _wrap(self, fn, name, count_hook):
        spans, stack, child, self_s, counts = (
            self._spans, self._stack, self._child, self._self_s, self._counts
        )

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - child.pop()
                if child:
                    child[-1] += dur
                spans[idx] = (name, t0, t1, parent)
            if count_hook is not None:
                count_hook(counts, args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in _mppstat_namespaces():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches = []

    def round(self, fn):
        """Run fn() traced as one round; returns its result."""
        self._spans, self._stack, self._child = [], [], []
        self._self_s, self._counts = defaultdict(float), defaultdict(int)
        self.install()
        try:
            t0 = perf_counter()
            out = fn()
            wall = perf_counter() - t0
        finally:
            self.uninstall()
        self.rounds.append((self._spans, dict(self._self_s), dict(self._counts), wall))
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for r, (spans, _, _, _) in enumerate(self.rounds):
                for i, (name, t0, t1, parent) in enumerate(spans):
                    fh.write(json.dumps([r, i, parent, name, t0, t1]) + "\n")


def leftover_wrappers() -> int:
    """Number of tracer wrappers still reachable from mppstat namespaces or classes."""
    found = 0
    owners = _mppstat_namespaces() + [core.PointPattern, markfn.MarkFunction]
    for owner in owners:
        for value in list(vars(owner).values()):
            if hasattr(value, _MARK):
                found += 1
    return found

