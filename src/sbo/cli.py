"""Command-line harness.

    sbo run <config>                          run one experiment
    sbo rates <suite>                         run a rate-verification suite
    sbo plot <csv> --metric m --out f.svg     render a trace column
    sbo gen <instance-spec> --out <file>      write an instance file

Configs are flat UTF-8 "dotted.key = value" files. Traces are CSV with the
fixed header below; reruns of the same config produce byte-identical CSV
(wall-clock timings go to report.txt, or into the CSV only with
output.timings = 1).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bilevel import BilevelProblem
from .errors import ConfigurationError, DivergenceError, ParseError, SboError
from .metrics import default_fit_window, fit_rate
from .problems import (InstanceSpec, build_instance, generate_instance_arrays,
                       parse_items, parse_kv_lines, parse_value, read_text_lines,
                       save_instance, typed_items)
from .solvers import (SCHEMA_VERSION, ConstantIstaSchedule, ConstantVfistaSchedule,
                      DiminishingSchedule, FixedEtaSchedule, NcConfig,
                      RunReport, SolverConfig, TraceRecord, solve_ipr_vfista,
                      solve_ir_ista, solve_r_vfista)

TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))
CSV_HEADER = ",".join(TRACE_COLUMNS)
# The values a report states at the last record (all but k, the schedule
# state and the wall time), and the error metrics among them with a rate fit.
_FINAL = TRACE_COLUMNS[TRACE_COLUMNS.index("f_bar"):-1]
_FITTABLE = TRACE_COLUMNS[TRACE_COLUMNS.index("infeas"):-1]

EXIT_OK = 0
EXIT_RATE_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def parse_kv_file(path) -> dict:
    """Flat "key = value" lines; '#' starts a comment; blank lines ignored."""
    return parse_kv_lines(read_text_lines(path))


class _Keys:
    """Typed reads of a parsed config that remember which keys were read,
    so that a key nothing reads can be refused."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.read: set[str] = set()

    def get(self, key: str, default: str | None = None, kind: type = float,
            keyword: str | None = None, required: bool = False):
        """The value parsed as `kind` (`problems.parse_value`); `keyword` (e.g.
        "auto") passes through; an absent key without default gives None."""
        self.read.add(key)
        text = self.cfg.get(key, default)
        if text is None and required:
            raise ConfigurationError(f"missing required config key {key!r}")
        if text is None or text == keyword:
            return text
        return parse_value(f"config key {key!r}", text, kind)

    def refuse_unread(self, skip: tuple) -> None:
        """Refuse the first key not read, outside the sections in `skip`."""
        for key in sorted(self.cfg):
            if key not in self.read and not key.startswith(skip):
                raise ConfigurationError(f"unknown config key {key!r}")


def instance_from_config(cfg: dict) -> InstanceSpec:
    keys = _Keys(cfg)
    name = keys.get("instance.name", kind=str, required=True)
    n = keys.get("instance.n", kind=int, required=True)
    seed = keys.get("instance.seed", kind=int)
    params = {
        key.split(".", 1)[1]: value for key, value in cfg.items()
        if key.startswith("instance.") and key not in keys.read
    }
    return InstanceSpec(name=name, n=n, seed=seed, params=params)


def _resolve_eta(spec: str | float, problem: BilevelProblem) -> float:
    if spec == "weak_sharp":
        ref = problem.reference
        if (ref is None or ref.weak_sharp is None or ref.weak_sharp.order != 1.0
                or ref.subgradient is None or ref.subgradient.norm == 0.0):
            raise ConfigurationError(
                "eta = weak_sharp needs reference truth with order-1 weak-sharp "
                "constants and a subgradient at the optimum"
            )
        return ref.weak_sharp.alpha / (2.0 * ref.subgradient.norm)
    return spec


def run_from_config(cfg: dict) -> RunReport:
    """Build the instance and solver from a parsed config and execute. A key
    outside instance.* and output.* that the solver does not read is refused
    before the instance is built; `build_instance` refuses instance.* keys."""
    keys = _Keys(cfg)
    solver = keys.get("solver.name", kind=str, required=True)
    big_k = keys.get("solver.K", kind=int, required=True)
    if solver == "ipr_vfista":
        nc = NcConfig(big_k=big_k, allow_large_step=keys.get(
            "solver.allow_large_step", "0", kind=bool))
    elif solver in ("ir_ista", "r_ista_const", "r_vfista"):
        # the accelerated solver's gamma is fixed by its eta
        gamma = ("auto" if solver == "r_vfista"
                 else keys.get("solver.gamma", "auto", keyword="auto"))
        trace_every = keys.get("solver.trace_every", kind=int)
        eta = keys.get("solver.eta", keyword="weak_sharp")
        if eta is None and solver == "r_ista_const":
            schedule = ConstantIstaSchedule(p=keys.get("solver.p", "1"))
        elif eta is None and solver == "r_vfista":
            schedule = ConstantVfistaSchedule(p=keys.get("solver.p", "3"))
        else:  # replaced by the fixed schedule below when eta is set
            schedule = DiminishingSchedule()
    else:
        raise ConfigurationError(
            f"unknown solver {solver!r}; pick one of ir_ista, r_ista_const, "
            "r_vfista, ipr_vfista"
        )
    keys.refuse_unread(skip=("instance.", "output."))
    build_start = time.perf_counter_ns()
    problem = build_instance(instance_from_config(cfg))
    build_ns = time.perf_counter_ns() - build_start

    if solver == "ipr_vfista":
        report = solve_ipr_vfista(problem, nc)
    else:
        if eta is not None:
            schedule = FixedEtaSchedule(_resolve_eta(eta, problem))
        sc = SolverConfig(big_k=big_k, schedule=schedule, gamma=gamma,
                          trace_every=trace_every)
        solve = solve_r_vfista if solver == "r_vfista" else solve_ir_ista
        report = solve(problem, sc)
    report.build_ns = build_ns
    return report


# ---------------------------------------------------------------------------
# Trace / report serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def trace_to_csv(trace, include_timings: bool = False) -> str:
    lines = [CSV_HEADER]
    for r in trace:
        lines.append(",".join(
            "" if name == "elapsed_ns" and not include_timings else _fmt(getattr(r, name))
            for name in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def read_trace_csv(path) -> dict[str, list]:
    lines = read_text_lines(path)
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"unexpected trace header in {path}", 1)
    cols: dict[str, list] = {name: [] for name in TRACE_COLUMNS}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ParseError(f"expected {len(TRACE_COLUMNS)} fields, got {len(parts)}",
                             lineno)
        for name, part in zip(TRACE_COLUMNS, parts):
            try:
                cols[name].append(float(part) if part else None)
            except ValueError:
                raise ParseError(f"non-numeric {name} field {part!r}", lineno) from None
    return cols


def attach_rate_fits(report: RunReport) -> None:
    """Fit the default-window slope of every positive metric column."""
    big_k = max((r.k for r in report.trace), default=0)
    if big_k < 2:
        return
    window = default_fit_window(big_k)
    for name in _FITTABLE:
        samples = [(r.k, getattr(r, name)) for r in report.trace]
        try:
            report.rate_fits[name] = fit_rate(samples, window)
        except ConfigurationError:
            continue


def _record_values(record: TraceRecord) -> dict:
    """The values a trace record has, by column, but its wall time."""
    return {name: getattr(record, name) for name in TRACE_COLUMNS[:-1]
            if getattr(record, name) is not None}


def _config_lines(config: dict) -> list[str]:
    """The `config.<key> = value` lines of a resolved config, by key."""
    return [f"config.{key} = {_fmt(config[key])}" for key in sorted(config)
            if key != "solver"]


def report_to_text(report: RunReport) -> str:
    lines = [f"schema_version = {SCHEMA_VERSION}",
             f"solver = {report.solver}", *_config_lines(report.config)]
    x = report.x_final
    lines.append(f"final.norm = {_fmt(float(np.linalg.norm(x)))}")
    if report.trace:
        last = report.trace[-1]
        for name in _FINAL:
            value = getattr(last, name)
            if value is not None:
                lines.append(f"final.{name} = {_fmt(value)}")
    for key in sorted(report.extras):
        value = report.extras[key]
        if isinstance(value, (int, float)):
            lines.append(f"extras.{key} = {_fmt(value)}")
    for name in sorted(report.rate_fits):
        fit = report.rate_fits[name]
        lines.append(f"fit.{name}.slope = {_fmt(fit.slope)}")
        lines.append(f"fit.{name}.r_squared = {_fmt(fit.r_squared)}")
        lines.append(f"fit.{name}.window = {fit.window[0]}:{fit.window[1]}")
        lines.append(f"fit.{name}.n_samples = {fit.n_samples}")
    # wall-clock footer: excluded from the determinism contract; metrics_ns
    # is the part of wall_clock_ns spent evaluating trace records, build_ns
    # the instance build (with its reference manufacture) before the solve
    lines.append(f"wall_clock_ns = {report.wall_ns}")
    lines.append(f"metrics_ns = {report.metrics_ns}")
    lines.append(f"build_ns = {report.build_ns}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG line plots
# ---------------------------------------------------------------------------

_W, _H = 640.0, 480.0
_ML, _MR, _MT, _MB = 70.0, 20.0, 20.0, 50.0


def _axis(values, log: bool) -> tuple:
    """Halves of the plotted coordinates (log10 of the values on a log axis),
    their range and five ticks as (half, label). Halving is exact, so the
    quotients keep their bits, and the span of two halves cannot overflow."""
    halves = [(math.log10(v) if log else v) / 2 for v in values]
    lo, hi = min(halves), max(halves)
    if hi == lo:
        hi = lo + 0.5
        if hi == lo:  # 0.5 is below half an ulp of lo: widen by one ulp toward 0
            lo, hi = sorted((lo, math.nextafter(lo, 0.0)))
    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = min(lo + frac * (hi - lo), hi)
        try:
            ticks.append((t, f"{10 ** (2 * t) if log else 2 * t:.3g}"))
        except OverflowError:  # 10^(2t) rounds past the float range at the top
            ticks.append((t, f"{sys.float_info.max:.3g}"))
    return halves, lo, hi, ticks


def render_svg(xs, ys, logx: bool = False, logy: bool = False,
               ylabel: str = "value") -> str:
    """Self-contained SVG line chart of one data series over k; points with
    a missing or non-finite coordinate are skipped."""
    pts = [(x, y) for x, y in zip(xs, ys)
           if None not in (x, y) and math.isfinite(x) and math.isfinite(y)
           and (not logy or y > 0) and (not logx or x > 0)]
    if len(pts) < 2:
        raise ConfigurationError("plot needs at least 2 plottable points")
    px, x0, x1, x_ticks = _axis([x for x, _ in pts], logx)
    py, y0, y1, y_ticks = _axis([y for _, y in pts], logy)
    inner_w = _W - _ML - _MR
    inner_h = _H - _MT - _MB

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * inner_w

    def sy(v):
        return _MT + (y1 - v) / (y1 - y0) * inner_h

    coords = " ".join(f"{sx(a):.3f},{sy(b):.3f}" for a, b in zip(px, py))
    tick_lines = []
    for (vx, lx), (vy, ly) in zip(x_ticks, y_ticks):
        gx, gy = sx(vx), sy(vy)
        tick_lines.append(
            f'<line x1="{gx:.3f}" y1="{_H - _MB:.3f}" x2="{gx:.3f}" '
            f'y2="{_H - _MB + 6:.3f}" stroke="#333"/>'
            f'<text x="{gx:.3f}" y="{_H - _MB + 20:.3f}" font-size="11" '
            f'text-anchor="middle">{lx}</text>'
            f'<line x1="{_ML - 6:.3f}" y1="{gy:.3f}" x2="{_ML:.3f}" '
            f'y2="{gy:.3f}" stroke="#333"/>'
            f'<text x="{_ML - 10:.3f}" y="{gy + 4:.3f}" font-size="11" '
            f'text-anchor="end">{ly}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}" '
        f'viewBox="0 0 {_W:.0f} {_H:.0f}">'
        f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>'
        f'<rect x="{_ML:.1f}" y="{_MT:.1f}" width="{inner_w:.1f}" '
        f'height="{inner_h:.1f}" fill="none" stroke="#333"/>'
        + "".join(tick_lines)
        + f'<text x="{_ML + inner_w / 2:.1f}" y="{_H - 8:.1f}" font-size="13" '
          f'text-anchor="middle">k</text>'
        + f'<text x="16" y="{_MT + inner_h / 2:.1f}" font-size="13" '
          f'text-anchor="middle" transform="rotate(-90 16 {_MT + inner_h / 2:.1f})">'
          f'{ylabel}</text>'
        + f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{coords}"/>'
        + "</svg>\n"
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(config_path: str) -> int:
    try:
        cfg = parse_kv_file(config_path)
        keys = _Keys(cfg)
        out_dir = Path(keys.get("output.dir", kind=str, required=True))
        timings = keys.get("output.timings", "0", kind=bool)
        plots = [m.strip() for m in keys.get("output.plots", "", kind=str).split(",")
                 if m.strip()]
        keys.refuse_unread(skip=("instance.", "solver."))
        for metric in plots:
            if metric not in TRACE_COLUMNS:
                raise ConfigurationError(
                    f"config key 'output.plots': no trace column {metric!r}; "
                    f"have {', '.join(TRACE_COLUMNS)}")
        instance_keys = {k: v for k, v in cfg.items() if k.startswith("instance.")}
        report = run_from_config(cfg)
    except (OSError, ValueError) as exc:  # every sbo input error is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        # keep whatever was traced, and say what ran: the resolved config
        # and the last record whose values are all finite
        print(f"runtime divergence: {exc}", file=sys.stderr)
        config = {**exc.config, **instance_keys}
        lines = [f"diverged_at_step = {exc.k}", f"error = {exc}"]
        if "solver" in config:
            lines.append(f"solver = {config['solver']}")
        finite = [values for values in map(_record_values, exc.trace)
                  if all(map(math.isfinite, values.values()))]
        lines += _config_lines(config) + [
            f"last_finite.{name} = {_fmt(value)}"
            for name, value in (finite[-1] if finite else {}).items()]
        rc, files = EXIT_DIVERGED, {
            "trace.csv": trace_to_csv(exc.trace), "report.txt": "\n".join(lines) + "\n"}
    else:
        report.config.update(instance_keys)
        attach_rate_fits(report)
        rc, files = EXIT_OK, {
            "trace.csv": trace_to_csv(report.trace, include_timings=timings),
            "report.txt": report_to_text(report)}
        xs = [r.k for r in report.trace]
        for metric in plots:
            try:
                files[f"plot_{metric}.svg"] = render_svg(
                    xs, [getattr(r, metric) for r in report.trace], logx=True, logy=True,
                    ylabel=metric)
            except ConfigurationError as exc:
                print(f"config error: cannot plot {metric!r}: {exc}", file=sys.stderr)
                rc = EXIT_CONFIG
                break
    try:  # the directory is made only now, so a refused config leaves none
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"config error: cannot write to output.dir {str(out_dir)!r}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    if rc == EXIT_OK:
        print(f"ok: wrote {out_dir / 'trace.csv'}")
    return rc


# The keys a suite row may have, with the kind of each numeric one.
_ROW_KEYS = {"label": str, "config": str, "metric": str, "mode": str,
             "bound": str, "ks": str, "slope": float, "tol": float,
             "min_samples": int, "kmin": int, "kmax": int}


def _parse_suite_row(line: str, lineno: int) -> dict:
    try:
        row = typed_items(parse_items(line.split(), "suite item"), _ROW_KEYS, "suite key")
        if "ks" in row:
            row["ks"] = [parse_value("suite key 'ks'", k, int) for k in row["ks"].split(",")]
    except ConfigurationError as exc:
        raise ParseError(str(exc), lineno) from None
    for req in ("metric", "slope", "tol", "config"):
        if req not in row:
            raise ParseError(f"suite row missing {req!r}", lineno)
    if (row.get("mode", "finals") != "finals" or row.get("bound", "upper") != "upper"
            or ("mode" in row) != ("ks" in row)):
        raise ParseError("suite rows take bound=upper only, and mode=finals and ks "
                         "only together", lineno)
    if row["config"].startswith("selftest:"):
        if "ks" in row or row["metric"] != "value":
            raise ParseError("a selftest row takes metric=value and no mode or ks",
                             lineno)
    elif row["metric"] not in _FITTABLE:
        raise ParseError(f"metric {row['metric']!r} is not a fittable trace column; "
                         f"pick one of {', '.join(_FITTABLE)}", lineno)
    return row


def _selftest_samples(spec: str):
    # selftest:powerlaw:exp=-1,coeff=7
    parts = spec.split(":")
    if parts[1] != "powerlaw":
        raise ConfigurationError(f"unknown selftest kind {parts[1]!r}")
    params = {"exp": -1.0, "coeff": 1.0}
    if len(parts) > 2 and parts[2]:
        params.update(typed_items(parse_items(parts[2].split(","), "selftest parameter"),
                                  {"exp": float, "coeff": float}, "selftest parameter"))
    exponent, coeff = params["exp"], params["coeff"]
    try:
        return [(k, coeff * k ** exponent) for k in range(1, 1001)]
    except OverflowError:
        raise ConfigurationError(f"selftest powerlaw exp={exponent!r}, coeff={coeff!r} "
                                 "overflows for k <= 1000") from None


def _row_samples(row: dict, base_dir: Path) -> tuple[list, tuple]:
    """The (k, value) samples of a suite row's source and their default fit
    window: the whole selftest range, the default window of one run, or the
    span of ks, where each sample is the final value of a run at K = k."""
    if row["config"].startswith("selftest:"):
        samples = _selftest_samples(row["config"])
        return samples, (1, samples[-1][0])
    metric = row["metric"]
    cfg = parse_kv_file(base_dir / row["config"])
    if "ks" not in row:
        trace = run_from_config(cfg).trace
        return ([(r.k, getattr(r, metric)) for r in trace],
                default_fit_window(max(r.k for r in trace)))
    samples = []
    for k in row["ks"]:
        rep = run_from_config({**cfg, "solver.K": str(k)})
        value = getattr(rep.trace[-1], metric) if rep.trace else None
        if metric == "residual_sq" and "best_residual_sq" in rep.extras:
            value = rep.extras["best_residual_sq"]
        samples.append((k, value))
    return samples, (min(row["ks"]), max(row["ks"]))


def _run_suite_row(row: dict, base_dir: Path) -> tuple[bool, str]:
    """(passed, verdict line); a row that cannot run fails with the reason."""
    label = row.get("label", row["config"])
    metric = row["metric"]
    expected, tol = row["slope"], row["tol"]
    try:
        samples, (kmin, kmax) = _row_samples(row, base_dir)
        fit = fit_rate(samples, (row.get("kmin", kmin), row.get("kmax", kmax)),
                       min_samples=row.get("min_samples", 5))
    except (SboError, OSError) as exc:
        return False, f"FAIL {label}: {exc}"
    ok = abs(fit.slope - expected) <= tol if row.get("bound") != "upper" \
        else fit.slope <= expected + tol
    verdict = "PASS" if ok else "FAIL"
    return ok, (f"{verdict} {label}: metric={metric} slope={fit.slope:+.4f} "
                f"expected={expected:+.3f}+/-{tol:.3f} r2={fit.r_squared:.4f} "
                f"n={fit.n_samples}")


def cmd_rates(suite_path: str) -> int:
    try:
        base_dir = Path(suite_path).resolve().parent
        rows = []
        for lineno, raw in enumerate(read_text_lines(suite_path), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append(_parse_suite_row(line, lineno))
    except (ConfigurationError, ParseError, OSError) as exc:
        print(f"suite error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    all_ok = True
    for row in rows:
        ok, message = _run_suite_row(row, base_dir)
        print(message)
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_RATE_FAIL


def cmd_plot(csv_path: str, metric: str, out_svg: str, logx: bool, logy: bool) -> int:
    try:
        cols = read_trace_csv(csv_path)
        if metric not in cols:
            raise ConfigurationError(
                f"no column {metric!r} in {csv_path}; have {list(cols)}")
        svg = render_svg(cols["k"], cols[metric], logx=logx, logy=logy, ylabel=metric)
        Path(out_svg).write_text(svg, encoding="utf-8")
    except (SboError, OSError) as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: wrote {out_svg}")
    return EXIT_OK


def parse_instance_arg(spec: str) -> InstanceSpec:
    """name:key=value,key=value with n required, seed optional. The name is
    given before the colon only: a `name` item repeats it."""
    name, _, rest = spec.partition(":")
    cfg = {"instance.name": name}
    if rest:
        items = parse_items(rest.split(","), "instance parameter", ("name",))
        cfg.update((f"instance.{key}", value) for key, value in items.items())
    return instance_from_config(cfg)


def cmd_gen(spec: str, out: str) -> int:
    try:
        inst = parse_instance_arg(spec)
        a, b = generate_instance_arrays(inst)
        params = dict(inst.params)
        params["n"] = inst.n
        if inst.seed is not None:
            params["seed"] = inst.seed
        save_instance(out, inst.name, params, a, b)
    except (SboError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sbo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")

    p_rates = sub.add_parser("rates", help="run a rate-verification suite")
    p_rates.add_argument("suite")

    p_plot = sub.add_parser("plot", help="render a trace metric to SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--metric", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--logx", action="store_true")
    p_plot.add_argument("--logy", action="store_true")

    p_gen = sub.add_parser("gen", help="write an instance file")
    p_gen.add_argument("spec")
    p_gen.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "rates":
        return cmd_rates(args.suite)
    if args.command == "plot":
        return cmd_plot(args.csv, args.metric, args.out, args.logx, args.logy)
    return cmd_gen(args.spec, args.out)  # argparse admits no other command


if __name__ == "__main__":
    sys.exit(main())
