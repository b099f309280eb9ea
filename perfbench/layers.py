"""Per-layer metrics, the per-step table and the dominant-layer predictions,
all computed from the spans of traced jobs.

Layers are stopsim's modules: cli, scenario, control, sensitivity,
evolution, spatial and hysteresis.  LU factorization and solves are counted
under ``spatial`` because the grid operator is what they factor.  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import math

from tracer import FACTORIZE, LU_SOLVE

STATE = "evolution.solve_state"
SENS = "sensitivity.solve_sensitivity"
OPTIMIZE = "control.optimize"
MAIN = "cli.main"
ADVANCE = "hysteresis.StopCursor.advance"
VALUE = "evolution.ReactionFunction.value"
DIRECTIONAL = "evolution.ReactionFunction.directional"
PICARD = "evolution.picard_slice_iterate"


class JobValues:
    """Values read off the results of traced calls during one job.

    Hooks run after a traced call returns.  A hook that finds its result
    without the expected attributes marks its span as broken, and the
    metrics built on it report as missing.
    """

    def __init__(self):
        self.values = {}
        self.broken = set()

    def add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def hooks(self):
        def on_state(traj):
            try:
                steps = traj.states.shape[0] - 1
                self.add("state_bytes", 8 * math.prod(traj.states.shape))
                self.add("state_steps", steps)
                self.add("picard_sweeps", sum(traj.picard_iterations))
                self.add("picard_slices", len(traj.picard_iterations))
            except (AttributeError, TypeError):
                self.broken.add(STATE)

        def on_sens(record):
            try:
                self.add("sens_steps", record.states.shape[0] - 1)
            except (AttributeError, TypeError):
                self.broken.add(SENS)

        def on_optimize(result):
            try:
                self.add("iterations", len(result.history))
                self.add("accepted", sum(1 for row in result.history if row[3] > 0))
            except (AttributeError, TypeError, IndexError):
                self.broken.add(OPTIMIZE)

        return {STATE: on_state, SENS: on_sens, OPTIMIZE: on_optimize}


def _calls(name):
    return (lambda s, v: s.count(name)), (name,)


def _total(name):
    return (lambda s, v: s.total(name)), (name,)


def _self(name):
    return (lambda s, v: s.self_s(name)), (name,)


def _value(key, span):
    return (lambda s, v: v.values.get(key, 0)), (span,)


def _ratio(num, den):
    return 0.0 if den == 0 else num / den


# name -> (unit, f(spans, job values), span names it needs); "trace.overhead"
# and "cli.artifact_bytes" are filled in by the runner.
PER_LAYER = {
    "sensitivity.solve_sensitivity_calls": ("count", *_calls(SENS)),
    "sensitivity.solve_sensitivity_self_s": ("s", *_self(SENS)),
    "evolution.reaction_directional_s": ("s", *_total(DIRECTIONAL)),
    "spatial.factorizations": ("count", *_calls(FACTORIZE)),
    "control.iterations": ("count", *_value("iterations", OPTIMIZE)),
    "control.reduced_cost_calls": ("count", *_calls("control.reduced_cost")),
    "control.accepted_ratio": (
        "ratio",
        lambda s, v: _ratio(v.values.get("accepted", 0), s.count("control.reduced_cost")),
        (OPTIMIZE, "control.reduced_cost")),
    "control.apply_B_s": ("s", *_total("control.apply_B")),
    "control.optimize_self_s": ("s", *_self(OPTIMIZE)),
    "spatial.lu_solves": ("count", *_calls(LU_SOLVE)),
    "spatial.lu_solve_s": ("s", *_total(LU_SOLVE)),
    "spatial.factorize_s": ("s", *_total(FACTORIZE)),
    "evolution.solve_state_calls": ("count", *_calls(STATE)),
    "evolution.solve_state_self_s": ("s", *_self(STATE)),
    "evolution.reaction_value_s": ("s", *_total(VALUE)),
    "evolution.picard_slice_iterate_self_s": ("s", *_self(PICARD)),
    "evolution.picard_sweeps": ("count", *_value("picard_sweeps", STATE)),
    "evolution.sweeps_per_slice": (
        "ratio",
        lambda s, v: _ratio(v.values.get("picard_sweeps", 0),
                            v.values.get("picard_slices", 0)),
        (STATE,)),
    "spatial.quad_norm_calls": ("count", *_calls("spatial.quad_norm")),
    "spatial.quad_norm_s": ("s", *_total("spatial.quad_norm")),
    "spatial.evaluate_S_calls": ("count", *_calls("spatial.evaluate_S")),
    "spatial.evaluate_S_s": ("s", *_total("spatial.evaluate_S")),
    "hysteresis.advance_calls": ("count", *_calls(ADVANCE)),
    "hysteresis.advance_s": ("s", *_total(ADVANCE)),
    "cli.self_s": ("s", *_self(MAIN)),
    "cli.read_signal_csv_s": ("s", *_total("cli.read_signal_csv")),
    "hysteresis.stop_evaluate_self_s": ("s", *_self("hysteresis.stop_evaluate")),
    "scenario.load_scenario_s": ("s", *_total("scenario.load_scenario")),
    "spatial.assemble_s": ("s", *_total("spatial.assemble")),
    "spatial.state_bytes": ("bytes-computed", *_value("state_bytes", STATE)),
}

RUNNER_METRICS = {
    "cli.artifact_bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.dominant_share": "ratio",
}

COUNT_METRICS = [name for name, spec in PER_LAYER.items() if spec[0] == "count"]


def job_metrics(spans, values, installed):
    """Per-layer metric values of one traced job; None marks a missing metric."""
    out = {}
    for name, (_, fn, needs) in PER_LAYER.items():
        if any(n not in installed or n in values.broken for n in needs):
            out[name] = None
        else:
            out[name] = fn(spans, values)
    return out


# Each workload's stated dominant layer: (description, f(spans) -> seconds).
PREDICTIONS = {
    "control-1d": ("sensitivity solves (inclusive)", (SENS,),
                   lambda s: s.total(SENS)),
    "grid-2d": ("spatial.lu_solve_s", (LU_SOLVE,), lambda s: s.total(LU_SOLVE)),
    "picard-fd-1d": (
        "Picard self + quad_norm + evaluate_S + cursor",
        (PICARD, "spatial.quad_norm", "spatial.evaluate_S", ADVANCE),
        lambda s: (s.self_s(PICARD) + s.total("spatial.quad_norm")
                   + s.total("spatial.evaluate_S") + s.total(ADVANCE))),
    "hyst-csv": ("cli self + read_signal_csv", (MAIN, "cli.read_signal_csv"),
                 lambda s: s.self_s(MAIN) + s.total("cli.read_signal_csv")),
}


def dominant_share(workload, spans, installed):
    """Share of the traced job the predicted dominant layer takes, or None."""
    _, needs, fn = PREDICTIONS[workload]
    if any(n not in installed for n in needs + (MAIN,)) or spans.total(MAIN) <= 0:
        return None
    return fn(spans) / spans.total(MAIN)


# Rows of the per-step table: label -> span name.
STEP_ROWS = (
    ("cursor", ADVANCE),
    ("evaluate_S", "spatial.evaluate_S"),
    ("reaction.value", VALUE),
    ("reaction.directional", DIRECTIONAL),
    ("LU solve", LU_SOLVE),
    ("LU factorize", FACTORIZE),
)


class StepTable:
    """Microseconds per time step, per layer, inside state and sensitivity solves."""

    ROOTS = ((STATE, "state_steps", "state step"),
             (SENS, "sens_steps", "sensitivity step"))

    def __init__(self):
        self.time = {}
        self.steps = {}

    def add(self, spans, values):
        anc = spans.under([root for root, _, _ in self.ROOTS])
        for root, step_key, _ in self.ROOTS:
            self.steps[root] = self.steps.get(root, 0) + values.values.get(step_key, 0)
            row = self.time.setdefault(root, {})
            for label, name in STEP_ROWS:
                row[label] = row.get(label, 0.0) + spans.total_under(name, anc, root)
            row["self"] = row.get("self", 0.0) + spans.self_s(root)
            row["total"] = row.get("total", 0.0) + spans.total(root)

    def lines(self):
        out = []
        for root, _, title in self.ROOTS:
            steps = self.steps.get(root, 0)
            if not steps:
                continue
            out.append(f"per {title} ({root}, {steps} steps, traced), us/step:")
            for label, seconds in self.time[root].items():
                out.append(f"  {label:<22}{1e6 * seconds / steps:10.2f}")
        return out
