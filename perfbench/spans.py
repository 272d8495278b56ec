"""Spans around the calls from one package module into the next, taken from outside.

Nothing in the package is edited.  :func:`instrument` replaces names on the
package's modules and classes with wrappers that time each call, and returns
a function that puts the originals back.  The wrappers pass arguments and
results through untouched, so traced curves stay bit-identical.

Spans are kept as per-name totals (calls, total and self nanoseconds), not
as one record per call: a traced battery makes millions of calls.  Self time
is a span's duration minus the durations of the spans opened directly inside
it.  Spans are grouped by scope, one scope per config, so one config's layers
can be read apart from the workload's totals.
"""

from __future__ import annotations

import math
import time
from collections import Counter

from metrics import median, tail

# Policy name -> class name in ``corrupted_bandits.policies``.
POLICY_CLASSES = {
    "huber_ucb": "HuberUCB",
    "seq_huber_ucb": "SeqHuberUCB",
    "robust_ucb_catoni": "RobustUCBCatoni",
    "robust_ucb_mom": "RobustUCBMOM",
    "exp3": "Exp3",
}


class Tracer:
    """Collects span totals, event counts and per-call observations."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.scopes: dict[str, dict[str, list[int]]] = {}
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = {}
        # Child-time accumulator of every open span; the base entry collects
        # the top-level spans and is never read.
        self._open = [0]
        self.set_scope("")

    def set_scope(self, label: str) -> None:
        self.stats = self.scopes.setdefault(label, {})

    def sample_list(self, name: str) -> list:
        return self.samples.setdefault(name, [])

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe(args, result, ns)`` runs after."""
        open_spans, clock = self._open, self.clock

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                open_spans[-1] += duration
                record = self.stats.get(name)
                if record is None:
                    record = self.stats[name] = [0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - children
            if observe is not None:
                observe(args, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call is counted, without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def totals(self, name: str, scope: str | None = None) -> tuple[int, int, int]:
        """``(calls, total_ns, self_ns)`` of span ``name`` in one scope or summed over all."""
        scopes = self.scopes.values() if scope is None else [self.scopes.get(scope, {})]
        calls = total = own = 0
        for stats in scopes:
            c, t, s = stats.get(name, (0, 0, 0))
            calls, total, own = calls + c, total + t, own + s
        return calls, total, own

    def count_signature(self) -> dict:
        """Everything that must repeat exactly between two traced runs of one workload."""
        calls = {
            f"{scope}|{name}": record[0]
            for scope, stats in self.scopes.items()
            for name, record in stats.items()
        }
        observed = {
            name: values for name, values in self.samples.items() if not name.endswith("_ns")
        }
        return {"calls": calls, "counts": dict(self.counts), "observed": observed}


def instrument(tracer: Tracer):
    """Wrap the package's layer boundaries with spans; return the undo function."""
    from corrupted_bandits import cli, confidence, envs, estimators, harness, policies

    undo = []

    def patch(owner, attr, wrapped):
        own = vars(owner)
        undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapped)

    def span(name, owner, attr, observe=None):
        patch(owner, attr, tracer.span(name, getattr(owner, attr), observe))

    solve_sizes = tracer.sample_list("estimators.huber_solve_n")
    episodes = tracer.sample_list("harness.episode_ns")
    cubes = tracer.sample_list("harness.agg_bytes")
    counts = tracer.counts
    anchor_samples: dict[int, int] = {}

    def observe_bonus(args, result, ns):
        if result == math.inf:
            counts["confidence.inf_bonus"] += 1

    def observe_seq(args, result, ns):
        # Read the estimator's public counter; a count of 1 marks a new
        # estimator, whose id may repeat one that is gone.
        est = args[0]
        key = id(est)
        before = 0 if est.count == 1 else anchor_samples[key]
        anchor_samples[key] = est.solver_samples
        counts["estimators.seq_solver_samples"] += est.solver_samples - before

    def observe_mc(args, curve, ns):
        cubes.append(curve.reps * len(curve.steps) * len(curve.gaps) * 8)

    span("envs.sample", envs.CorruptedArm, "sample")
    for name, cls_name in POLICY_CLASSES.items():
        cls = getattr(policies, cls_name)
        span(f"policies.select.{name}", cls, "select_arm")
        span(f"policies.update.{name}", cls, "update")
    patch(policies.RobustUCBMOM, "_estimate",
          tracer.counter("estimators.mom_evals", policies.RobustUCBMOM._estimate))
    span("confidence.bonus", confidence, "huber_bonus", observe_bonus)
    span("confidence.bonus", confidence, "seq_huber_bonus", observe_bonus)
    span("estimators.mom", policies, "median_of_means")
    span("estimators.huber_solve", policies._ArmBuffer, "huber_root",
         lambda args, result, ns: solve_sizes.append(args[0].count))
    span("estimators.seq_update", estimators.SequentialHuber, "update", observe_seq)
    span("harness.episode", harness, "run_episode",
         lambda args, result, ns: episodes.append(ns))
    # The CLI imported these names from the harness, so both bindings are wrapped.
    for module in (harness, cli):
        span("harness.monte_carlo_regret", module, "monte_carlo_regret", observe_mc)
        span("harness.write", module, "write_results")
        span("theory.overlay", module, "bound_overlay")

    def restore():
        for owner, attr, had_own, original in reversed(undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return restore


def _per_call(tracer: Tracer, name: str, scale: float, own: bool = False) -> float:
    calls, total, self_ns = tracer.totals(name)
    return (self_ns if own else total) / calls / scale if calls else 0.0


def layer_metrics(tracer: Tracer, episode_ns: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    Times are per call.  A layer the workload never calls reads 0.
    ``episode_ns`` may pool the episodes of several traced runs.
    """
    us, ms = 1e3, 1e6
    out: dict[str, tuple[float, str]] = {}
    out["envs.sample_us"] = (_per_call(tracer, "envs.sample", us), "us")
    out["envs.sample_calls"] = (tracer.totals("envs.sample")[0], "count")
    for name in POLICY_CLASSES:
        out[f"policies.select_self_us.{name}"] = (
            _per_call(tracer, f"policies.select.{name}", us, own=True), "us")
        out[f"policies.update_self_us.{name}"] = (
            _per_call(tracer, f"policies.update.{name}", us, own=True), "us")

    sizes = tracer.samples.get("estimators.huber_solve_n", [])
    out["estimators.huber_solve_us"] = (_per_call(tracer, "estimators.huber_solve", us), "us")
    out["estimators.huber_solves"] = (tracer.totals("estimators.huber_solve")[0], "count")
    out["estimators.huber_solve_n_p50"] = (median(sizes) if sizes else 0.0, "count")

    mom_calls = tracer.totals("estimators.mom")[0]
    mom_evals = tracer.counts["estimators.mom_evals"]
    out["estimators.mom_us"] = (_per_call(tracer, "estimators.mom", us), "us")
    out["estimators.mom_calls"] = (mom_calls, "count")
    out["estimators.mom_cache_hit_frac"] = (
        1.0 - mom_calls / mom_evals if mom_evals else 0.0, "frac")

    out["estimators.seq_update_us"] = (_per_call(tracer, "estimators.seq_update", us), "us")
    out["estimators.seq_solver_samples"] = (
        tracer.counts["estimators.seq_solver_samples"], "count")

    bonus_calls = tracer.totals("confidence.bonus")[0]
    out["confidence.bonus_us"] = (_per_call(tracer, "confidence.bonus", us), "us")
    out["confidence.bonus_calls"] = (bonus_calls, "count")
    out["confidence.inf_bonus_frac"] = (
        tracer.counts["confidence.inf_bonus"] / bonus_calls if bonus_calls else 0.0, "frac")

    episodes_ms = [ns / ms for ns in episode_ns]
    pct, value = tail(episodes_ms) if episodes_ms else (0.0, 0.0)
    out["harness.episode_ms_p50"] = (median(episodes_ms) if episodes_ms else 0.0, "ms")
    out["harness.episode_ms_tail"] = (value, "ms")
    out["harness.episode_tail_pct"] = (pct, "pct")
    out["harness.episodes"] = (len(episodes_ms), "count")
    out["harness.aggregate_ms"] = (
        _per_call(tracer, "harness.monte_carlo_regret", ms, own=True), "ms")
    cubes = tracer.samples.get("harness.agg_bytes", [])
    out["harness.agg_bytes"] = (max(cubes) if cubes else 0, "bytes")
    out["harness.write_ms"] = (_per_call(tracer, "harness.write", ms), "ms")
    out["theory.overlay_ms"] = (_per_call(tracer, "theory.overlay", ms), "ms")
    return out


def step_table(tracer: Tracer, scope: str) -> dict[str, float]:
    """Inclusive select, sample and update microseconds per step for one config."""
    steps = tracer.totals("envs.sample", scope)[0]
    row = {"steps": steps}
    for layer in ("select", "update"):
        total = sum(
            tracer.totals(f"policies.{layer}.{name}", scope)[1] for name in POLICY_CLASSES
        )
        row[f"{layer}_us"] = total / steps / 1e3 if steps else 0.0
    row["sample_us"] = tracer.totals("envs.sample", scope)[1] / steps / 1e3 if steps else 0.0
    return row
