"""Spans and counters around the calls into crowdtrack's layers.

The tracer replaces each traced public function at every module attribute
the program reaches it through (``filters`` imports ``sample_transition_batch``
by name, ``bench`` imports ``hpf_step`` by name, ``cli`` imports the data
functions by name), and the traced methods on their classes.  Nothing in the
package itself changes.

A span records its name, start, end, parent span and operation id.  Spans
are kept in memory and written out once at the end.  A span's self time is
its duration minus the wrapper intervals of its child spans, so the
bookkeeping of a child never lands in its parent's self time; the
bookkeeping itself is summed as the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from perfbench import checks

class MissedWrapper(RuntimeError):
    """A module attribute still points at an unwrapped traced function."""


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self._stack = []         # open span frames: dict(index, cover, name, ...)
        self.op_id = None
        self.op_kind = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.kind_counts = defaultdict(float)   # (op kind, key) -> count
        self.overhead_s = 0.0
        self.violations = []

    def begin_op(self, op_id, kind):
        self.op_id = op_id
        self.op_kind = kind

    def end_op(self):
        self.op_id = None
        self.op_kind = None

    def add(self, key, value):
        self.counts[key] += value
        if self.op_kind is not None:
            self.kind_counts[(self.op_kind, key)] += value

    def enclosing(self, name):
        """Innermost open span frame with this name, or None."""
        for frame in reversed(self._stack):
            if frame["name"] == name:
                return frame
        return None

    def wrap(self, name, func, before=None, after=None):
        """Span around `func`; hooks run outside the timed interval."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            t_enter = perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0,
                                 None if parent is None else parent["index"],
                                 tracer.op_id])
            frame = {"index": index, "cover": 0.0, "name": name}
            if before is not None:
                before(frame, args, kwargs)
            tracer._stack.append(frame)
            t_start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t_end = perf_counter()
                tracer._stack.pop()
            record = tracer.spans[index]
            record[1] = t_start
            record[2] = t_end
            self_time = (t_end - t_start) - frame["cover"]
            tracer.calls[name] += 1
            tracer.self_s[name] += self_time
            if tracer.op_kind is not None:
                tracer.kind_counts[(tracer.op_kind, name + ".calls")] += 1
                tracer.kind_counts[(tracer.op_kind, name + ".self_s")] += self_time
            if after is not None:
                after(frame, args, kwargs, result)
            t_exit = perf_counter()
            if parent is not None:
                parent["cover"] += t_exit - t_enter
            tracer.overhead_s += (t_start - t_enter) + (t_exit - t_end)
            return result

        return traced

    def observe(self, func, after):
        """Look at a function's output without a span; the look is overhead."""
        tracer = self

        @functools.wraps(func)
        def observed(*args, **kwargs):
            result = func(*args, **kwargs)
            t0 = perf_counter()
            after(args, kwargs, result)
            spent = perf_counter() - t0
            if tracer._stack:
                tracer._stack[-1]["cover"] += spent
            tracer.overhead_s += spent
            return result

        return observed

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "crowdtrack" or key.startswith("crowdtrack."))]


def _replace_everywhere(original, replacement, restore):
    hits = 0
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                restore.append((module, attr, original))
                hits += 1
    return hits


def install(tracer: Tracer):
    """Wrap every traced function and method; return a restore list.

    Raises :class:`MissedWrapper` if any module attribute still references
    an original afterwards.
    """
    from crowdtrack import bench, cli, data, filters, kernels, motion, rvo

    restore = []
    originals = []

    def function(module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        originals.append(original)
        if _replace_everywhere(original, tracer.wrap(name, original, before, after),
                               restore) == 0:
            raise MissedWrapper(f"{module.__name__}.{attr} not found")

    def method(cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, before, after))
        restore.append((cls, attr, original))

    # kernels: rows, in-range particle x neighbour pairs, speed limit.
    def kernel_after(frame, args, kwargs, result):
        states, _, max_speed, nbr_pos = args[0], args[1], args[2], args[3]
        neighbor_radius, out_vel = args[8], args[9]
        tracer.add("kernels.rows", states.shape[0])
        if nbr_pos.shape[0]:
            d = states[:, None, 0:2] - nbr_pos[None, :, :]
            in_range = np.sum(d * d, axis=2) <= neighbor_radius * neighbor_radius
            tracer.add("kernels.pairs", int(np.count_nonzero(in_range)))
        tracer.violations += checks.check_speeds(out_vel, max_speed)

    function(kernels, "rvo_velocity_batch", "kernels.rvo_velocity_batch",
             after=kernel_after)

    def transition_after(frame, args, kwargs, result):
        rows = result.shape[0]
        tracer.add("motion.rows", rows)
        step = tracer.enclosing("filters.hpf_step")
        if step is not None:
            step["rows"] += rows

    function(motion, "sample_transition_batch", "motion.sample_transition_batch",
             after=transition_after)
    method(motion.CrowdContext, "__init__", "motion.CrowdContext")

    # filters: transitions per agent-frame, split by filter kind, counted on
    # frames whose history already holds K posteriors.
    def step_before(frame, args, kwargs):
        history, cfg = args[0], args[4]
        frame["rows"] = 0
        frame["full"] = len(history) >= cfg.order_k
        frame["kind"] = "pf" if cfg.order_k == 1 else "hpf"
        frame["m"] = cfg.particles_m

    def step_after(frame, args, kwargs, result):
        if frame["full"]:
            tracer.add(f"transitions.{frame['kind']}.rows", frame["rows"])
            tracer.add(f"transitions.{frame['kind']}.slots", frame["m"])

    function(filters, "hpf_step", "filters.hpf_step", before=step_before, after=step_after)
    function(filters, "resample", "filters.resample")

    def mixture_after(args, kwargs, result):
        pooled_weights, flagged = result[1], result[4]
        w = pooled_weights / pooled_weights.sum()
        tracer.add("filters.ess_ratio.sum", (1.0 / float(np.dot(w, w))) / w.size)
        tracer.add("filters.ess_ratio.n", 1)
        tracer.add("filters.flagged_frames", int(bool(flagged)))

    original_mixture = filters.mixture_update
    originals.append(original_mixture)
    _replace_everywhere(original_mixture, tracer.observe(original_mixture, mixture_after),
                        restore)

    # bench
    method(bench.GaussianPositionLikelihood, "log_likelihood", "bench.log_likelihood")

    def joint_step_after(frame, args, kwargs, result):
        tracer.add("bench.expected_hpf_calls", len(args[0].ids))

    method(bench.JointTracker, "step", "bench.JointTracker.step", after=joint_step_after)

    def rollout_after(frame, args, kwargs, result):
        steps = args[1] if len(args) > 1 else kwargs["steps"]
        tracer.add("bench.rollout_means.steps", steps)

    method(bench.JointTracker, "rollout_means", "bench.rollout_means", after=rollout_after)
    function(bench, "run_prediction_protocol", "bench.run_prediction_protocol")
    function(bench, "run_tracking_protocol", "bench.run_tracking_protocol")

    # data, rvo, cli
    function(data, "make_scenario", "data.make_scenario")
    function(data, "corrupt", "data.corrupt")

    def write_after(frame, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.add("data.write_trajectories.bytes", os.path.getsize(path))

    function(data, "write_trajectories", "data.write_trajectories", after=write_after)
    function(data, "parse_trajectories", "data.parse_trajectories")
    function(rvo, "rvo_step", "rvo.rvo_step")
    function(cli, "main", "cli.main")

    for original in originals:
        for module in _package_modules():
            for attr, value in vars(module).items():
                if value is original:
                    raise MissedWrapper(f"{module.__name__}.{attr} is not wrapped")
    return restore


def uninstall(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int):
    """Per-layer metrics, per round of the workload (ratios are run-wide)."""
    c, s, n = tracer.counts, tracer.self_s, tracer.calls
    per = 1.0 / rounds
    kernel = "kernels.rvo_velocity_batch"
    values = {
        f"{kernel}.calls": (n[kernel] * per, "calls/round"),
        f"{kernel}.rows": (c["kernels.rows"] * per, "rows/round"),
        f"{kernel}.self_s": (s[kernel] * per, "s/round"),
        f"{kernel}.pairs": (c["kernels.pairs"] * per, "pairs/round"),
        f"{kernel}.ns_per_pair": (_ratio(s[kernel] * 1e9, c["kernels.pairs"]), "ns/pair"),
        "motion.sample_transition_batch.rows": (c["motion.rows"] * per, "rows/round"),
        "motion.sample_transition_batch.self_s":
            (s["motion.sample_transition_batch"] * per, "s/round"),
        "motion.transitions_per_agent_frame.pf":
            (_ratio(c["transitions.pf.rows"], c["transitions.pf.slots"]), "ratio"),
        "motion.transitions_per_agent_frame.hpf":
            (_ratio(c["transitions.hpf.rows"], c["transitions.hpf.slots"]), "ratio"),
        "motion.CrowdContext.built": (n["motion.CrowdContext"] * per, "count/round"),
        "filters.hpf_step.calls": (n["filters.hpf_step"] * per, "calls/round"),
        "filters.hpf_step.self_s": (s["filters.hpf_step"] * per, "s/round"),
        "filters.resample.calls": (n["filters.resample"] * per, "calls/round"),
        "filters.resample.self_s": (s["filters.resample"] * per, "s/round"),
        "filters.ess_ratio": (_ratio(c["filters.ess_ratio.sum"], c["filters.ess_ratio.n"]),
                              "ratio"),
        "filters.flagged_frames": (c["filters.flagged_frames"] * per, "count/round"),
        "bench.log_likelihood.calls": (n["bench.log_likelihood"] * per, "calls/round"),
        "bench.log_likelihood.self_s": (s["bench.log_likelihood"] * per, "s/round"),
        "bench.JointTracker.step.calls": (n["bench.JointTracker.step"] * per, "calls/round"),
        "bench.JointTracker.step.self_s": (s["bench.JointTracker.step"] * per, "s/round"),
        "bench.rollout_means.steps": (c["bench.rollout_means.steps"] * per, "steps/round"),
        "bench.rollout_means.self_s": (s["bench.rollout_means"] * per, "s/round"),
        "data.make_scenario.self_s": (s["data.make_scenario"] * per, "s/round"),
        "data.corrupt.self_s": (s["data.corrupt"] * per, "s/round"),
        "data.write_trajectories.self_s": (s["data.write_trajectories"] * per, "s/round"),
        "data.write_trajectories.bytes":
            (c["data.write_trajectories.bytes"] * per, "bytes/round"),
        "data.parse_trajectories.self_s": (s["data.parse_trajectories"] * per, "s/round"),
        "rvo.rvo_step.calls": (n["rvo.rvo_step"] * per, "calls/round"),
        "rvo.rvo_step.self_s": (s["rvo.rvo_step"] * per, "s/round"),
        "cli.main.self_s": (s["cli.main"] * per, "s/round"),
        "trace.overhead_s": (tracer.overhead_s * per, "s/round"),
    }
    return values


def consistency_failures(tracer: Tracer):
    """Cross-checks that show a missed wrapper or a broken output."""
    failures = list(tracer.violations)
    expected = int(tracer.counts["bench.expected_hpf_calls"])
    got = tracer.calls["filters.hpf_step"]
    if got != expected:
        failures.append(f"filters.hpf_step calls {got} != JointTracker.step calls x agents "
                        f"{expected}")
    lin_kernel_calls = tracer.kind_counts.get(("lin", "kernels.rvo_velocity_batch.calls"), 0)
    if lin_kernel_calls:
        failures.append(f"LIN trials made {int(lin_kernel_calls)} kernel calls")
    return failures
