"""Where the traced run wraps `sbo`, and the per-layer metrics it reports.

Every wrapper sits where the caller looks the name up: `cli` imports
`build_instance`, `fit_rate` and the solvers directly, `problems` imports
`min_norm_ls`, and `problems`/`metrics` import `solve_r_vfista` from
`sbo.solvers` at call time. Methods are wrapped on their classes.
"""

from __future__ import annotations

from tracer import Patches, Tracer, self_times

SOLVERS = ("ir_ista", "r_vfista", "ipr_vfista")
LEAVES = ("linalg.min_norm_ls", "linalg.spectral_norm_sq", "functions.gradient",
          "functions.value", "prox.combined", "prox.term", "bilevel.q_eta_step")
CALLS_SELF_SPANS = ("metrics.residual_norm", "metrics.fit_rate",
                    "cli.run_from_config", "cli.serialize")
# Metric evaluation a solver span contains but that is not the algorithm.
METRIC_SPANS = ("metrics.projector", "metrics.residual_norm")


def _per_layer() -> list:
    spec = []
    for name in LEAVES + CALLS_SELF_SPANS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for solver in SOLVERS:
        spec += [(f"solvers.{solver}.calls", "count", "lower"),
                 (f"solvers.{solver}.iters", "count", "lower"),
                 (f"solvers.{solver}.total_s", "s", "lower"),
                 (f"solvers.{solver}.us_per_iter", "us", "lower")]
    spec += [("metrics.projector.calls", "count", "lower"),
             ("metrics.projector.total_s", "s", "lower"),
             ("metrics.projector.s_per_call", "s", "lower"),
             ("problems.build_instance.calls", "count", "lower"),
             ("problems.build_instance.self_s", "s", "lower"),
             ("problems.build_instance.total_s", "s", "lower"),
             ("trace.overhead_ratio", "ratio", "lower"),
             ("trace.coverage", "ratio", "higher")]
    return spec


# (name, unit, better) of every metric a traced run prints.
PER_LAYER = _per_layer()


def _iters(report) -> int:
    """Inner iterations for ipr_vfista, K for the single-loop solvers."""
    return int(report.extras.get("total_inner", report.config["K"]))


def install(tracer: Tracer, patches: Patches) -> None:
    from sbo import bilevel, cli, functions, linalg, metrics, problems, prox, solvers

    def wrap_projector(problem):
        ref = problem.reference
        if ref is not None and ref.projector is not None:
            ref.projector = tracer.span("metrics.projector", ref.projector)

    patches.set(cli, "build_instance", tracer.span(
        "problems.build_instance", cli.build_instance, on_result=wrap_projector))
    patches.set(cli, "run_from_config",
                tracer.span("cli.run_from_config", cli.run_from_config))
    for name in ("trace_to_csv", "report_to_text", "render_svg"):
        patches.set(cli, name, tracer.span("cli.serialize", getattr(cli, name)))
    patches.set(cli, "fit_rate", tracer.span("metrics.fit_rate", cli.fit_rate))
    patches.set(metrics, "residual_norm",
                tracer.span("metrics.residual_norm", metrics.residual_norm))
    for solver in SOLVERS:
        attr = f"solve_{solver}"
        for owner in (cli, solvers):
            patches.set(owner, attr, tracer.span(
                f"solvers.{solver}", getattr(owner, attr), iters=_iters))

    patches.set(problems, "min_norm_ls",
                tracer.leaf("linalg.min_norm_ls", problems.min_norm_ls))
    patches.set(linalg, "spectral_norm_sq",
                tracer.leaf("linalg.spectral_norm_sq", linalg.spectral_norm_sq))
    for cls in (functions.LeastSquares, functions.ScaledSqNorm,
                functions.MoreauLogSum, functions.ZeroFunction):
        patches.set(cls, "gradient", tracer.leaf("functions.gradient", cls.gradient))
        patches.set(cls, "value", tracer.leaf("functions.value", cls.value))
    patches.set(prox.CombinedProx, "prox",
                tracer.leaf("prox.combined", prox.CombinedProx.prox))
    for cls in (prox.ZeroProx, prox.L1Prox, prox.BallProx, prox.BoxProx,
                prox.LogSumProx):
        patches.set(cls, "prox", tracer.leaf("prox.term", cls.prox))
    patches.set(bilevel.BilevelProblem, "q_eta_step", tracer.leaf(
        "bilevel.q_eta_step", bilevel.BilevelProblem.q_eta_step))


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict:
    """Every PER_LAYER metric of one traced command."""
    spans = tracer.spans
    leaves = tracer.leaf_totals()
    leaf_top: dict = {}
    for (parent, _), agg in leaves.items():
        leaf_top[parent] = leaf_top.get(parent, 0) + agg[3]
    selfs = self_times(spans, leaf_top)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    out = {}
    for name in LEAVES:
        aggs = [agg for (_, leaf), agg in leaves.items() if leaf == name]
        out[f"{name}.calls"] = sum(a[0] for a in aggs)
        out[f"{name}.self_s"] = sum(a[2] for a in aggs) / 1e9
    for name in CALLS_SELF_SPANS + ("problems.build_instance",):
        out[f"{name}.calls"] = len(named(name))
        out[f"{name}.self_s"] = sum(selfs[s.id] for s in named(name)) / 1e9
    out["problems.build_instance.total_s"] = sum(
        s.duration_ns for s in named("problems.build_instance")) / 1e9

    metric_ns: dict = {}
    for s in spans:
        if s.name in METRIC_SPANS:
            metric_ns[s.parent] = metric_ns.get(s.parent, 0) + s.duration_ns
    for solver in SOLVERS:
        runs = named(f"solvers.{solver}")
        total = sum(s.duration_ns - metric_ns.get(s.id, 0) for s in runs) / 1e9
        iters = sum(s.iters or 0 for s in runs)
        out[f"solvers.{solver}.calls"] = len(runs)
        out[f"solvers.{solver}.iters"] = iters
        out[f"solvers.{solver}.total_s"] = total
        out[f"solvers.{solver}.us_per_iter"] = total / iters * 1e6 if iters else 0.0

    projections = named("metrics.projector")
    proj_total = sum(s.duration_ns for s in projections) / 1e9
    out["metrics.projector.calls"] = len(projections)
    out["metrics.projector.total_s"] = proj_total
    out["metrics.projector.s_per_call"] = (proj_total / len(projections)
                                           if projections else 0.0)

    root = next(s for s in spans if s.id == tracer.root_id)
    out["trace.overhead_ratio"] = root.duration_ns / 1e9 / untraced_wall_s
    out["trace.coverage"] = 1.0 - selfs[root.id] / root.duration_ns
    return out
