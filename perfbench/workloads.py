"""The benchmark's three workloads: the files each one writes, the `sbo`
command it runs, and the checks that command's output must pass.

Why these three (see README.md for the full table):

* acceptance_convex -- one long `ir_ista` run on the rank-deficient
  instance with a manufactured f_star: the prox-gradient step kernel does
  nearly all the work, in the solve and in the f_star manufacture, while
  the exact projector keeps metric cost small.
* nonconvex_ipr -- the shipped nonconvex config: the approximate projector
  behind the dist_lower/residual_sq columns takes most of the time and the
  paper's algorithm little of it.
* rate_suite -- `sbo rates` over many short runs, rebuilding the instance
  for every K and going through the suite's thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Final values for instance seeds 0 .. N_INSTANCE_SEEDS-1 are stored in
# expected.json; the benchmark's --seed picks one of them.
N_INSTANCE_SEEDS = 16
DEFAULT_SEED = 7

# Final values must match expected.json to |got - want| <= RTOL*|want| + ATOL.
# Bit-identical on one machine; the slack covers BLAS kernels that sum in
# another order on another CPU, and nothing that changes an algorithm.
RTOL = 1e-6
ATOL = 1e-12

# The instance of acceptance criteria 4-6: n = 50, rank = 25, lam = 0.1.
RANK_DEFICIENT = {
    "instance.name": "rank_deficient_ls",
    "instance.n": "50",
    "instance.rank": "25",
    "instance.mu_f": "1",
    "instance.lam": "0.1",
}
ACCEPTANCE_K = 100_000
F_STAR_BUDGET = 100_000
NONCONVEX_CONFIG = Path("configs") / "nonconvex_phillips_ipr.cfg"

# `sbo rates` rows in the shapes of acceptance criteria 5 and 6. The
# accelerated row checks the proven side of its rate only (bound=upper):
# on 11 of the 16 instance seeds its infeasibility decays faster than
# K^-2.3, which the two-sided -2 +/- 0.3 would count as a failure.
SUITE_ROWS = (
    ("constant-weight", "rate_const.cfg",
     "metric=infeas slope=-1 tol=0.3 mode=finals ks=1000,10000,100000 min_samples=3"),
    ("accelerated", "rate_accel.cfg",
     "metric=infeas slope=-2 tol=0.3 bound=upper mode=finals "
     "ks=100,316,1000,3162,10000"),
)
SUITE_SOLVERS = {
    "rate_const.cfg": {"solver.name": "r_ista_const", "solver.p": "1"},
    "rate_accel.cfg": {"solver.name": "r_vfista", "solver.p": "3"},
}


def instance_seed(seed: int) -> int:
    return seed % N_INSTANCE_SEEDS


def seed_key(seed: Optional[int]) -> str:
    """The key of an instance seed's values in expected.json."""
    return "unseeded" if seed is None else str(seed)


def _cfg_text(entries: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def read_report(path: Path) -> dict:
    """`key = value` lines of a report.txt."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def read_trace_column(path: Path, column: str) -> list:
    """(k, value) pairs of one trace.csv column, skipping empty fields."""
    lines = path.read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")
    k_at, col_at = names.index("k"), names.index(column)
    pairs = []
    for line in lines[1:]:
        fields = line.split(",")
        if fields[col_at]:
            pairs.append((int(fields[k_at]), float(fields[col_at])))
    return pairs


def loglog_slope(pairs, k_min: int, k_max: int) -> float:
    """Least-squares slope of ln(value) against ln(k) over positive values
    with k in [k_min, k_max]; NaN with fewer than two points."""
    pts = [(math.log(k), math.log(v)) for k, v in pairs
           if k_min <= k <= k_max and v > 0]
    if len(pts) < 2:
        return math.nan
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def compare_finals(got: dict, want: Optional[dict]) -> list:
    """Messages for every expected final value that is missing or off."""
    if want is None:
        return ["no expected final values stored for this instance seed"]
    problems = []
    for key, expected in sorted(want.items()):
        if key not in got:
            problems.append(f"{key} missing")
        elif not abs(got[key] - expected) <= RTOL * abs(expected) + ATOL:
            problems.append(f"{key} = {got[key]!r}, expected {expected!r}")
    return problems


@dataclass
class Outcome:
    """What one command left behind, as the checks see it."""

    rc: int
    stdout: str
    out_dir: Path
    runs: list  # (config dict, RunReport) of every run_from_config call


@dataclass
class Workload:
    name: str
    seeded: bool
    write_files: Callable[[Path, Optional[int], Path], list]  # -> argv
    finals: Callable[[Outcome], dict]
    check: Callable[[Outcome], list]  # failure messages, finals excluded


# ---------------------------------------------------------------------------
# acceptance_convex
# ---------------------------------------------------------------------------


def _acceptance_files(work: Path, seed: Optional[int], root: Path) -> list:
    entries = dict(RANK_DEFICIENT)
    entries.update({
        "instance.seed": str(seed),
        "instance.f_star_budget": str(F_STAR_BUDGET),
        "solver.name": "ir_ista",
        "solver.K": str(ACCEPTANCE_K),
        "output.dir": str(work / "out"),
        "output.plots": "infeas,h_bar",
    })
    cfg = work / "acceptance.cfg"
    cfg.write_text(_cfg_text(entries), encoding="utf-8")
    return ["run", str(cfg)]


def _report_finals(outcome: Outcome) -> dict:
    report = read_report(outcome.out_dir / "report.txt")
    return {k: float(v) for k, v in report.items() if k.startswith("final.")}


def _acceptance_check(outcome: Outcome) -> list:
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}"]
    infeas = read_trace_column(outcome.out_dir / "trace.csv", "infeas")
    problems = []
    # Only the proven side of -1 +/- 0.25: on instance seeds 6 and 12 the
    # infeasibility decays faster than k^-1.25.
    slope = loglog_slope(infeas, 100, ACCEPTANCE_K)
    if not slope <= -0.75:
        problems.append(f"infeas slope {slope:+.4f} over [100, K] is not <= -0.75")
    low = min(v for _, v in infeas)
    if low < -1e-8:
        problems.append(f"infeas dips to {low:.3e} < -1e-8")
    return problems


# ---------------------------------------------------------------------------
# nonconvex_ipr
# ---------------------------------------------------------------------------


def _nonconvex_files(work: Path, seed: Optional[int], root: Path) -> list:
    lines = (root / NONCONVEX_CONFIG).read_text(encoding="utf-8").splitlines()
    out = [f"output.dir = {work / 'out'}" if line.startswith("output.dir") else line
           for line in lines]
    cfg = work / "nonconvex.cfg"
    cfg.write_text("\n".join(out) + "\n", encoding="utf-8")
    return ["run", str(cfg)]


def _nonconvex_check(outcome: Outcome) -> list:
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}"]
    dist = read_trace_column(outcome.out_dir / "trace.csv", "dist_lower")
    big_k = max(k for k, _ in dist)
    slope = loglog_slope(dist, 2, big_k)
    if not slope <= -1.0:
        return [f"within-run dist_lower slope {slope:+.4f} is not <= -1.0"]
    return []


# ---------------------------------------------------------------------------
# rate_suite
# ---------------------------------------------------------------------------


def _suite_files(work: Path, seed: Optional[int], root: Path) -> list:
    for name, solver in SUITE_SOLVERS.items():
        entries = dict(RANK_DEFICIENT)
        entries.update({"instance.seed": str(seed), **solver, "solver.K": "100"})
        (work / name).write_text(_cfg_text(entries), encoding="utf-8")
    rows = "".join(f"label={label} config={cfg} {rest}\n"
                   for label, cfg, rest in SUITE_ROWS)
    suite = work / "suite.txt"
    suite.write_text(rows, encoding="utf-8")
    return ["rates", str(suite)]


def _suite_finals(outcome: Outcome) -> dict:
    return {f"{cfg['solver.name']}.K={cfg['solver.K']}.final.infeas":
            report.trace[-1].infeas for cfg, report in outcome.runs}


def _suite_check(outcome: Outcome) -> list:
    problems = [] if outcome.rc == 0 else [f"exit code {outcome.rc}"]
    verdicts = [line for line in outcome.stdout.splitlines()
                if line.startswith(("PASS", "FAIL"))]
    if len(verdicts) != len(SUITE_ROWS):
        problems.append(f"{len(verdicts)} row verdicts, expected {len(SUITE_ROWS)}")
    problems += [line for line in verdicts if not line.startswith("PASS")]
    return problems


WORKLOADS = {
    "acceptance_convex": Workload("acceptance_convex", True, _acceptance_files,
                                  _report_finals, _acceptance_check),
    # The shipped config has no instance seed; --seed does not change it.
    "nonconvex_ipr": Workload("nonconvex_ipr", False, _nonconvex_files,
                              _report_finals, _nonconvex_check),
    "rate_suite": Workload("rate_suite", True, _suite_files,
                           _suite_finals, _suite_check),
}
