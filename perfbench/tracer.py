"""Span tracing of gfrma's public functions, installed from outside.

Wrappers replace the traced functions in every loaded ``gfrma`` module that
refers to them (``from .pattern import build_access_graph`` makes a second
reference), so calls between modules are seen too. Nothing under ``src/``
changes. Spans are kept in memory as (name, start, end, parent, trial)
tuples and written out by the caller when the run ends.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import json
import statistics
import sys
import time

# (module, attribute path) of every traced public function. A target that a
# later version of the package no longer has stops the traced run: the change
# that removes it updates this list and the per-layer metrics.
TARGETS = (
    ("harness", "monte_carlo"),
    ("harness", "run_trial"),
    ("harness", "trial_stats"),
    ("ldpc", "construct_parity_check"),
    ("ldpc", "encode"),
    ("ldpc", "check_messages"),
    ("ldpc", "EdgeLayout.from_code"),
    ("pattern", "build_access_graph"),
    ("phy", "make_ground_truth"),
    ("phy", "superpose"),
    ("receiver", "joint_decode"),
    ("de", "j_function"),
    ("de", "j_inverse"),
    ("de", "mi_step"),
    ("de", "run_de"),
    ("de", "de_converges"),
    ("de", "threshold_search"),
)

# The spans of one Monte Carlo trial share the trial id this call opens.
TRIAL_SPAN = "harness.run_trial"


class Tracer:
    """In-memory span recorder plus exact counts taken from return values."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, trial)
        self.counts = collections.Counter()
        self._stack = []
        self._trial = None
        self._n_trials = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            outer_trial = self._trial
            if name == TRIAL_SPAN:
                self._trial = self._n_trials
                self._n_trials += 1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._trial)
                self._trial = outer_trial
            self._count(name, out)
            return out
        return traced

    def _count(self, name, out):
        if name == "pattern.build_access_graph":
            self.counts["pattern.edges"] += int(out.n_edges)
            self.counts["pattern.draws"] += int(out.K) * int(out.T)
        elif name == "receiver.joint_decode":
            self.counts["receiver.iterations"] += int(out.iterations)
            self.counts[f"receiver.stop.{out.converged}"] += 1

    @contextlib.contextmanager
    def installed(self):
        """Trace the TARGETS inside the block; restore the originals after."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gfrma" or n.startswith("gfrma."))]
        undo = []
        try:
            for mod_name, path in TARGETS:
                name = f"{mod_name}.{path}"
                owner = sys.modules.get(f"gfrma.{mod_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    raise LookupError(f"trace target gfrma.{name} not found")
                if isinstance(raw, classmethod):
                    undo.append((owner, attr, raw))
                    setattr(owner, attr,
                            classmethod(self._wrap(name, raw.__func__)))
                    continue
                traced = self._wrap(name, raw)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            undo.append((mod, key, raw))
                            setattr(mod, key, traced)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    @staticmethod
    def span_cost(calls=10000, reps=5):
        """Seconds that one traced call adds to the function it wraps.

        Times a no-op called bare and through the wrapper and returns the
        median over ``reps`` of the difference per call.
        """
        def noop():
            return None

        traced = Tracer()._wrap("noop", noop)
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            samples.append((t2 - 2 * t1 + t0) / calls)
        return statistics.median(samples)

    def totals(self):
        """{name: [calls, total seconds, self seconds]} over all spans.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return out

    def write_spans(self, path):
        """One JSON object per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start_s": start - t0,
                    "end_s": end - t0, "parent": parent, "trial": trial,
                }) + "\n")
