"""What the traced run wraps, and the per-layer metrics it derives.

Units: ``s/step`` is self time per workload step (a grid pass, a bilevel
step, a retrain minibatch step); ``s/call`` is inclusive time of one call;
``calls/step`` counts calls per step.  ``kernels.grmc_stats.uniform_bytes``
is computed from array sizes (trials x K x N float64 uniforms), not
measured, hence its unit.

Which end-to-end metric each group should move, and on which workload:

* ``kernels.grmc_stats.*``, ``estimators.*``: ``op_time_s_min`` and
  ``work_per_s_max`` on estimator-grid.
* ``kernels.conditional_values.*``, ``kernels.gumbel_max_indices.*`` and
  ``search.*`` except ``DiscreteNetwork``: the step times on search-k100.
* ``search.DiscreteNetwork.forward``, ``metrics.*``: retrain-b64.
* ``search.Adam.step``, ``autodiff.*``, ``ops.*``: search-k100 and
  retrain-b64.
* ``data.gen_synthetic_bimodal.s``: ``setup_s`` on both.
"""

from __future__ import annotations

import os

from tracing import Target

PRIMITIVES = (
    "add", "sub", "mul", "scale", "scale_by", "take", "take_row", "sigmoid", "relu",
    "matmul", "transpose", "reshape", "concat", "sum_all", "mean_all", "sum_axis",
    "mean_axis", "softmax_last", "log_softmax_last",
)
OPS = ("zero", "sum", "attention", "linear_glu", "concat_fc")
GRID_K = (10, 100, 1000)
TAPE_RECORD = "autodiff.Tape.record"


def _grmc_label(args):
    return f"k{args[5]}"


def _grmc_tally(args, result):
    rows = len(args[1]) * int(args[5])
    return {
        "kernels.grmc_stats.rows": rows,
        "kernels.grmc_stats.uniform_bytes": rows * len(args[0]) * 8,
    }


def _checkpoint_tally(args, result):
    return {"search.save_checkpoint.bytes": os.path.getsize(args[0])}


TARGETS = (
    Target("kernels.grmc_stats", label=_grmc_label, tally=_grmc_tally),
    Target("kernels.conditional_values"),
    Target("kernels.gumbel_max_indices"),
    Target("estimators.estimator_stats", label=lambda args: args[2].kind),
    Target("search.grmc_mixture_weights"),
    Target("search.network_forward"),
    Target("search.bilevel_train_step"),
    Target("search.derive_architecture"),
    Target("search.save_checkpoint", tally=_checkpoint_tally),
    Target("search.DiscreteNetwork.forward"),
    Target("search.Adam.step"),
    Target("autodiff.Tape.backward"),
    Target(TAPE_RECORD),
    *(Target(f"autodiff.{p}") for p in PRIMITIVES),
    Target("ops.OpInstance.forward", label=lambda args: args[0].descriptor.name),
    Target("ops.channel_linear"),
    Target("metrics.classification_report"),
    Target("data.gen_synthetic_bimodal"),
)

# (metric, unit, how, key): how is one of
#   self   - self seconds of span ``key`` per step
#   calls  - calls of span ``key`` per step
#   call_s - inclusive seconds per call of span ``key``
#   count  - counter ``key`` per step
#   per_call - counter named like the metric, per call of span ``key``
PER_LAYER = (
    *(
        (f"kernels.grmc_stats.self_s.k{k}", "s/step", "self", f"kernels.grmc_stats.k{k}")
        for k in GRID_K
    ),
    ("kernels.grmc_stats.rows", "rows/step", "count", "kernels.grmc_stats.rows"),
    ("kernels.grmc_stats.uniform_bytes", "computed-B/step", "count",
     "kernels.grmc_stats.uniform_bytes"),
    *(
        metric
        for name in ("kernels.conditional_values", "kernels.gumbel_max_indices")
        for metric in (
            (f"{name}.self_s", "s/step", "self", name),
            (f"{name}.calls_per_step", "calls/step", "calls", name),
        )
    ),
    *(
        (f"estimators.estimator_stats.self_s.{kind}", "s/step", "self",
         f"estimators.estimator_stats.{kind}")
        for kind in ("stgs", "grmc")
    ),
    ("search.grmc_mixture_weights.self_s", "s/step", "self", "search.grmc_mixture_weights"),
    ("search.grmc_mixture_weights.calls_per_step", "calls/step", "calls",
     "search.grmc_mixture_weights"),
    ("search.network_forward.self_s", "s/step", "self", "search.network_forward"),
    ("search.bilevel_train_step.self_s", "s/step", "self", "search.bilevel_train_step"),
    ("search.derive_architecture.s", "s/call", "call_s", "search.derive_architecture"),
    ("search.save_checkpoint.s", "s/call", "call_s", "search.save_checkpoint"),
    ("search.save_checkpoint.bytes", "B/call", "per_call", "search.save_checkpoint"),
    ("search.DiscreteNetwork.forward.self_s", "s/step", "self", "search.DiscreteNetwork.forward"),
    ("search.Adam.step.self_s", "s/step", "self", "search.Adam.step"),
    ("autodiff.Tape.backward.s", "s/call", "call_s", "autodiff.Tape.backward"),
    ("autodiff.Tape.record.calls_per_step", "calls/step", "count", TAPE_RECORD),
    *(
        metric
        for p in PRIMITIVES
        for metric in (
            (f"autodiff.{p}.fwd_s", "s/step", "self", f"autodiff.{p}"),
            (f"autodiff.{p}.bw_s", "s/step", "self", f"autodiff.{p}.bw"),
            (f"autodiff.{p}.calls_per_step", "calls/step", "calls", f"autodiff.{p}"),
        )
    ),
    *(
        (f"ops.OpInstance.forward.{op}.self_s", "s/step", "self", f"ops.OpInstance.forward.{op}")
        for op in OPS
    ),
    ("ops.channel_linear.s", "s/call", "call_s", "ops.channel_linear"),
    ("metrics.classification_report.s", "s/call", "call_s", "metrics.classification_report"),
    ("data.gen_synthetic_bimodal.s", "s/call", "call_s", "data.gen_synthetic_bimodal"),
    ("trace.overhead_frac", "frac", "overhead", None),
)

# spans each workload must call at least once; a zero count is flagged
EXPECTED = {
    "estimator-grid": (
        *(f"kernels.grmc_stats.k{k}" for k in GRID_K),
        "estimators.estimator_stats.stgs",
        "estimators.estimator_stats.grmc",
    ),
    "search-k100": (
        "kernels.conditional_values", "kernels.gumbel_max_indices",
        "search.grmc_mixture_weights", "search.network_forward", "search.bilevel_train_step",
        "search.derive_architecture", "search.save_checkpoint", "search.Adam.step",
        "autodiff.Tape.backward", "ops.channel_linear", "data.gen_synthetic_bimodal",
        *(f"ops.OpInstance.forward.{op}" for op in OPS if op != "zero"),
    ),
    "retrain-b64": (
        "search.DiscreteNetwork.forward", "search.Adam.step", "autodiff.Tape.backward",
        "ops.channel_linear", "metrics.classification_report", "data.gen_synthetic_bimodal",
        *(f"ops.OpInstance.forward.{op}" for op in OPS if op != "zero"),
    ),
}


def per_layer_values(totals: dict, counts: dict, steps: int, setup_totals: dict,
                     overhead: float) -> dict:
    """Metric name -> value from folded span totals and counters.

    ``setup_totals`` adds the spans recorded during set-up to the per-call
    metrics, which is where ``data.gen_synthetic_bimodal`` runs.
    """
    out = {}
    for metric, unit, how, key in PER_LAYER:
        row = totals.get(key, (0, 0.0, 0.0))
        if how == "self":
            value = row[2] / steps
        elif how == "calls":
            value = row[0] / steps
        elif how == "count":
            value = counts.get(key, 0) / steps
        elif how == "call_s":
            setup = setup_totals.get(key, (0, 0.0, 0.0))
            calls = row[0] + setup[0]
            value = (row[1] + setup[1]) / calls if calls else 0.0
        elif how == "per_call":
            value = counts.get(metric, 0) / row[0] if row[0] else 0.0
        else:
            value = overhead
        out[metric] = (value, unit)
    return out
