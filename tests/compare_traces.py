"""Compares the trace, report and plots of every shipped config between
this checkout and another.

Each configs/*.cfg is run through `sbo run` at solver.K = 20 and at its
shipped solver.K, and once more at solver.K = 20 with output.plots set to
every column that has two or more points a log-log plot shows in its
golden trace (tests/fixtures/traces/) of both checkouts, so that a plot of
every such column is compared, not only the shipped output.plots. So are MANUFACTURE_RUN, the
one run that reaches the f_star manufacture of rank_deficient_ls (no
shipped config sets f_star_budget; the benchmark's acceptance_convex
workload does), and ACCELERATED_RUN, an r_vfista run whose iterates move
for its whole horizon (the shipped r_vfista config sits at x* from its
first step). r_vfista makes one accelerated run that stops at each trace
point, so ACCELERATED_RUN runs again at solver.trace_every = 1, where
every stretch between stops is one step, and the shipped r_vfista config
at solver.trace_every = 7, where stretches meet the fixed point and end
early. So is the shipped ipr_vfista config on other instances and
budgets (IPR_RUNS): phillips at solver.K = 64 and foxgood at K = 32 and
64, whose inner runs fall into cycles of period 1 to 90 after 40 to 125
steps, each seen one period after it starts (`bilevel.CYCLE_WINDOW`);
baart at K = 32, whose inner runs never repeat their state; and baart at
K = 64, where 7 inner runs of up to J = 4096 steps reach a fixed point
only after 1,383 to 2,646 steps. Each run goes once on this
checkout's src/ and once on the other checkout's src/, each in a
subprocess (both with this checkout's configs, so both render the same
output.plots). For each run the script prints "identical" when the two
trace.csv files are byte-identical, so is every plot_*.svg, and so are
the two report.txt files but for their timing footer (wall_clock_ns,
metrics_ns, build_ns). Otherwise it prints the
worst relative difference |a - b| / max(|a|, |b|) of every numeric trace
column that differs (elapsed_ns is ignored), how many fields of each
column are filled on one side only, a differing row count, every report key that differs,
with its worst relative difference when both values are numbers, and
every plot that differs or is written on one side only. Use it to show
that a change keeps the traces, reports and plots, or to bound how far it
moves them.

Then RATES_SUITE, `sbo rates configs/rates_quick.txt`, runs once in each
checkout, as the runs are, and the script prints "identical" when the two
exit codes and standard outputs are the same, else both exit codes and
the lines that differ. The suite types its configs through
`run_from_config` as `sbo run` does, and ignores their output.* keys.

Last, each check of CHECKS runs its snippet once in each checkout, in a
subprocess as the runs are, and the script prints "identical" when both
print the same lines, else how many lines differ and, over the differing
lines whose words agree, the largest relative difference
||u - v|| / max(||u||, ||v||) of their numbers (hex doubles and integers;
a sha256 compares as text). PROJECTOR_CHECK prints the output of
`problems.ls_ball_projector` for 300 seeded queries per family (phillips,
baart and foxgood at n = 32, PROJECTOR_WEIGHT, the unit ball). PAIR_CHECK
prints, for each of the 10 supported prox pairs built as
tests/test_kernel_bits.py's `_pair_problem` builds them, the sha256 of 50
chained `step_map` steps, whose eta sequence holds 0.0, -0.0, one eta
object twice, an equal eta of another object and an eta > 0 whose product
with gamma underflows to 0.0; no shipped run reaches the six pairs no
instance builds. LIPSCHITZ_CHECK prints `linalg.spectral_norm_sq` of the
phillips, baart and foxgood matrices at n = 8, 16, 32, 64 and 128 and of
the A of `rank_deficient_ls` at n = 50, rank 25 for seeds 0 to 15 (the
benchmark's instance seeds). STEPS_CHECK prints the accelerated steps
computed by the shipped ipr_vfista config, by each IPR_RUNS run, by the
shipped r_vfista_weak_sharp config and by MANUFACTURE_RUN, so a change to
the accelerated loop that moves a count shows without a benchmark.
REFERENCE_CHECK prints the reference that `build_instance` attaches to
`rank_deficient_ls` at n = 50, rank 25, lam 0 and 0.1, for seeds 0 to 15,
and to sec61_phillips, sec61_baart and sec61_foxgood at n = 8 and 32:
h_star, h_star_tol, f_star, f_star_tol and a digest of x_star (its
squared norm and its sum), as hex doubles, with "none" in place of the
last four where the instance carries no f_star. DIVERGENCE_CHECK prints
the DivergenceError of four runs whose gradient turns NaN at a fixed step:
ir_ista inside an averaging block, r_vfista inside a stretch between trace
points, and ipr_vfista at its gradient step z and inside its inner loop.
For each it prints the message, k, last_finite as hex doubles, the k of
every trace record the error carries and its sorted config.

pytest does not collect this file. Run from the repository root:

    python tests/compare_traces.py OTHER_CHECKOUT

It exits 1 if a run or a check fails in either checkout, else 0.
"""

import collections
import difflib
import math
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gen_golden_traces import CONFIGS, GOLDEN_TRACES, SHORT_K  # noqa: E402
from sbo.cli import parse_kv_file, read_trace_csv  # noqa: E402

IGNORED_COLUMNS = ("elapsed_ns",)
IGNORED_REPORT_KEYS = ("wall_clock_ns", "metrics_ns", "build_ns")

# A short ir_ista run on an instance whose f_star and x_star are made by
# 20000 accelerated steps, so that its subopt and dist_xstar_sq columns
# compare the manufacture.
MANUFACTURE_RUN = {
    "instance.name": "rank_deficient_ls", "instance.n": "20", "instance.rank": "10",
    "instance.lam": "0.1", "instance.f_star_budget": "20000",
    "solver.name": "ir_ista", "solver.K": "1000",
}

# 2000 r_vfista steps on a rank_deficient_ls instance with lam = 0; its 140
# trace records take dist_xstar_sq from 15.8 down to 3.1e-3.
ACCELERATED_RUN = {
    "instance.name": "rank_deficient_ls", "instance.n": "20", "instance.rank": "10",
    "instance.lam": "0", "solver.name": "r_vfista", "solver.K": "2000",
}

# The shipped ipr_vfista config at K = 64 (89,440 budgeted inner steps,
# inner runs up to J = 4096, which end one period after their state falls
# into a cycle, of period up to 90), on foxgood at K = 32 and at K = 64
# (periods up to 63, 3,809 inner steps computed), on baart at K = 32
# (inner runs that never repeat their state) and on baart at K = 64 (fixed
# points reached after 1,383 to 2,646 steps).
IPR_RUNS = {"nonconvex_phillips_ipr K=64": {"solver.K": "64"},
            "nonconvex_foxgood ipr_vfista K=32": {"instance.name": "nonconvex_foxgood"},
            "nonconvex_foxgood ipr_vfista K=64": {"instance.name": "nonconvex_foxgood",
                                                  "solver.K": "64"},
            "nonconvex_baart ipr_vfista K=32": {"instance.name": "nonconvex_baart"},
            "nonconvex_baart ipr_vfista K=64": {"instance.name": "nonconvex_baart",
                                                "solver.K": "64"}}


RATES_SUITE = ROOT / "configs" / "rates_quick.txt"

# Prints what ls_ball_projector returns for 300 seeded queries per family,
# at scales 1e-2 to 1e6: one line per query, its output's doubles as hex.
PROJECTOR_CHECK = """
import numpy as np
from sbo.problems import PROJECTOR_WEIGHT, inverse_problem, ls_ball_projector
for which in ("phillips", "baart", "foxgood"):
    a, b = inverse_problem(which, 32)
    project = ls_ball_projector(np.linalg.svd(a), b, 1.0, PROJECTOR_WEIGHT)
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = project(10.0 ** rng.uniform(-2.0, 6.0) * rng.standard_normal(32))
        print(" ".join(v.hex() for v in u.tolist()))
"""

# Prints "(<lower kind>, <upper kind>) sha256:<digest>" for each supported
# prox pair: the bytes of 50 chained steps, into a new array and into y in turn.
PAIR_CHECK = """
import hashlib
import numpy as np
from sbo.bilevel import BilevelProblem, CompositeObjective
from sbo.functions import LeastSquares, ScaledSqNorm
from sbo.prox import BallProx, BoxProx, L1Prox, LogSumProx, ZeroProx
def terms():
    return [ZeroProx(), L1Prox(0.3), BallProx(1.5),
            BoxProx(np.full(8, -0.5), np.full(8, 0.8)), LogSumProx(5.0)]
once = 0.25
etas = [0.0, -0.0, once, once, once + 0.0, 5e-324, 1.0, 0.5]
for h in terms():
    for f in terms():
        if "zero" not in (h.kind, f.kind) and not h.kind == f.kind == "l1":
            continue
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 8))
        p = BilevelProblem(
            CompositeObjective(ScaledSqNorm(1.3, center=rng.standard_normal(8)), f),
            CompositeObjective(LeastSquares(a, rng.standard_normal(6)), h))
        gamma = 0.9 / p.surrogate_lipschitz(1.0)
        assert gamma * 5e-324 == 0.0
        step = p.step_map(gamma)
        y = 3.0 * np.random.default_rng(0).standard_normal(8)
        digest = hashlib.sha256()
        for j in range(50):
            y = step(etas[j % len(etas)], y, y if j % 2 else np.empty(8))
            digest.update(y.tobytes())
        print(f"({h.kind}, {f.kind}) sha256:{digest.hexdigest()}")
"""

# Prints "<matrix> <hex double>" of spectral_norm_sq, one line per matrix.
LIPSCHITZ_CHECK = """
from sbo.linalg import spectral_norm_sq
from sbo.problems import gen_rank_deficient_ls, inverse_problem
for which in ("phillips", "baart", "foxgood"):
    for n in (8, 16, 32, 64, 128):
        print(f"{which}_n{n}", spectral_norm_sq(inverse_problem(which, n)[0]).hex())
for seed in range(16):
    a = gen_rank_deficient_ls(50, 25, seed=seed).lower.smooth.a
    print(f"rank_deficient_ls_seed{seed}", spectral_norm_sq(a).hex())
"""


def step_runs() -> list[tuple[str, dict]]:
    """(label, config) of every run STEPS_CHECK counts."""
    ipr = parse_kv_file(CONFIGS / "nonconvex_phillips_ipr.cfg")
    return [("nonconvex_phillips_ipr K=32", ipr),
            *((label, {**ipr, **change}) for label, change in IPR_RUNS.items()),
            ("r_vfista_weak_sharp", parse_kv_file(CONFIGS / "r_vfista_weak_sharp.cfg")),
            ("rank_deficient_ls f_star manufacture", MANUFACTURE_RUN)]


# Prints "<run> <steps>": the accelerated steps each of step_runs() computes,
# counted by a problem that wraps the step of every accelerated run.
STEPS_CHECK = """
import sbo.bilevel as bilevel
from sbo.cli import run_from_config
stretches, steps = bilevel._accelerated_stretches, [0]
class Counted:
    def __init__(self, problem):
        self.problem = problem
    def __getattr__(self, name):
        return getattr(self.problem, name)
    def step_map(self, gamma):
        step = self.problem.step_map(gamma)
        def counted_step(eta, y, out):
            steps[0] += 1
            return step(eta, y, out)
        return counted_step
bilevel._accelerated_stretches = lambda problem, *args: stretches(Counted(problem), *args)
for label, cfg in %r:
    steps[0] = 0
    run_from_config(cfg)
    print(label, steps[0])
""" % (step_runs(),)

# Prints "<instance> <h_star> <h_star_tol> <f_star> <f_star_tol> <||x_star||^2>
# <sum x_star>" as hex doubles for each reference, with "none" in place of
# the last four where no f_star is attached.
REFERENCE_CHECK = """
from sbo.problems import InstanceSpec, build_instance
specs = [(f"rank_deficient_ls_lam{lam}_seed{seed}",
          InstanceSpec("rank_deficient_ls", 50, seed, {"rank": "25", "lam": lam}))
         for lam in ("0", "0.1") for seed in range(16)]
specs += [(f"sec61_{which}_n{n}", InstanceSpec(f"sec61_{which}", n))
          for which in ("phillips", "baart", "foxgood") for n in (8, 32)]
for label, spec in specs:
    ref = build_instance(spec).reference
    h = f"{float(ref.h_star).hex()} {float(ref.h_star_tol).hex()}"
    if ref.f_star is None:
        print(label, h, "none")
        continue
    x = ref.x_star
    print(label, h, ref.f_star.hex(), float(ref.f_star_tol).hex(), float(x @ x).hex(),
          float(x.sum()).hex())
"""

# Prints, for four runs whose gradient turns NaN at a fixed call, the
# DivergenceError each raises: its message, k, last_finite as hex doubles,
# the k of every trace record it carries and its sorted config.
DIVERGENCE_CHECK = """
import numpy as np
from sbo.bilevel import BilevelProblem, CompositeObjective
from sbo.errors import DivergenceError
from sbo.functions import ScaledSqNorm, SmoothFunction
from sbo.prox import L1Prox, ZeroProx
from sbo.solvers import (DiminishingSchedule, FixedEtaSchedule, NcConfig, SolverConfig,
                         solve_ipr_vfista, solve_ir_ista, solve_r_vfista)
class NanAfter(SmoothFunction):
    # 0.5 * sum_i w_i (x_i - c_i)^2, whose gradient is NaN from call good + 1 on
    def __init__(self, weights, good, center=None):
        self.weights, self.good, self.calls = np.array(weights), good, 0
        self.center = np.zeros(len(weights)) if center is None else np.array(center)
        self.dimension = len(weights)
        self.lipschitz, self.strong_convexity = max(weights), min(weights)
    def value(self, x):
        d = x - self.center
        return 0.5 * float(self.weights @ (d * d))
    def gradient(self, x):
        self.calls += 1
        g = self.weights * (x - self.center)
        return g if self.calls <= self.good else np.full_like(g, np.nan)
def pair(upper, lower, x0, upper_prox=None):
    return BilevelProblem(CompositeObjective(upper, upper_prox or ZeroProx()),
                          CompositeObjective(lower, ZeroProx()), initial_point=np.array(x0))
quad2 = ScaledSqNorm(1.0, dimension=2)
runs = [
    ("ir_ista, step 100 inside a block", solve_ir_ista,
     pair(NanAfter([2.0, 1.0, 1.5], 100, [1.0, -0.5, 0.25]), NanAfter([1.0, 0.5, 0.0], 10**9),
          [2.0, -1.0, 3.0], L1Prox(0.3)),
     SolverConfig(big_k=1000, schedule=DiminishingSchedule(), trace_every=30)),
    ("r_vfista, step 15 inside a stretch", solve_r_vfista,
     pair(quad2, NanAfter([1.0, 0.0], 15), [1.0, 1.0]),
     SolverConfig(big_k=50, schedule=FixedEtaSchedule(0.5), trace_every=10)),
    ("ipr_vfista, gradient step z at step 2", solve_ipr_vfista,
     pair(NanAfter([1.0, 1.0], 2), NanAfter([1.0, 0.0], 10**9), [1.0, 1.0]), NcConfig(big_k=4)),
    ("ipr_vfista, inner loop at step 2", solve_ipr_vfista,
     pair(quad2, NanAfter([1.0, 0.0], 6), [1.0, 1.0]), NcConfig(big_k=4)),
]
for label, solve, problem, cfg in runs:
    try:
        with np.errstate(invalid="ignore"):
            solve(problem, cfg)
        print(label, "no divergence")
    except DivergenceError as err:
        print(label, "|", err, "| k", err.k)
        print(label, "last_finite", *(v.hex() for v in err.last_finite.tolist()))
        print(label, "trace k", *(r.k for r in err.trace))
        print(label, "config", sorted(err.config.items()))
"""

# (label, snippet) of every check that runs a snippet in each checkout and
# compares the lines it prints.
CHECKS = [("ls_ball_projector, 300 queries per family", PROJECTOR_CHECK),
          ("prox pairs, 50 chained steps each", PAIR_CHECK),
          ("spectral_norm_sq, 31 matrices", LIPSCHITZ_CHECK),
          ("accelerated steps per run", STEPS_CHECK),
          ("rank_deficient_ls and sec61 references, 38 instances", REFERENCE_CHECK),
          ("divergence errors of four solver runs", DIVERGENCE_CHECK)]


def plottable_columns(trace_csv: pathlib.Path) -> list[str]:
    """The columns of a trace with two or more points a log-log plot shows:
    k > 0 and a finite value > 0."""
    cols = read_trace_csv(trace_csv)
    return [name for name, values in cols.items()
            if sum(k > 0 and v is not None and 0 < v < math.inf
                   for k, v in zip(cols["k"], values)) >= 2]


def runs(other: pathlib.Path) -> list[tuple[str, dict]]:
    """(label, config) of every compared run, other being the other
    checkout."""
    out = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        cfg = parse_kv_file(path)
        for big_k in sorted({SHORT_K, int(cfg["solver.K"])}):
            out.append((f"{path.stem} K={big_k}", {**cfg, "solver.K": str(big_k)}))
        golden = GOLDEN_TRACES.relative_to(ROOT) / f"{path.stem}.csv"
        theirs = plottable_columns(other / golden)
        plots = ",".join(name for name in plottable_columns(ROOT / golden) if name in theirs)
        out.append((f"{path.stem} K={SHORT_K} plots={plots}",
                    {**cfg, "solver.K": str(SHORT_K), "output.plots": plots}))
    out.append(("rank_deficient_ls f_star manufacture", MANUFACTURE_RUN))
    out.append(("rank_deficient_ls r_vfista K=2000", ACCELERATED_RUN))
    out.append(("rank_deficient_ls r_vfista K=2000 trace_every=1",
                {**ACCELERATED_RUN, "solver.trace_every": "1"}))
    out.append(("r_vfista_weak_sharp trace_every=7",
                {**parse_kv_file(CONFIGS / "r_vfista_weak_sharp.cfg"),
                 "solver.trace_every": "7"}))
    ipr = parse_kv_file(CONFIGS / "nonconvex_phillips_ipr.cfg")
    out += [(label, {**ipr, **change}) for label, change in IPR_RUNS.items()]
    return out


def run_in(checkout: pathlib.Path, cfg: dict, work: pathlib.Path) -> dict[str, str]:
    """The texts of the files `sbo run` writes (trace.csv, report.txt and
    every plot_*.svg) by name, on the config with output.dir moved into
    work, run by the sbo package under checkout/src in a subprocess."""
    config = work / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in
                              {**cfg, "output.dir": work / "out"}.items()),
                      encoding="utf-8")
    python_in(checkout, "-m", "sbo.cli", "run", str(config))
    return {out.name: out.read_text(encoding="utf-8")
            for out in (work / "out").iterdir()}


def run_python(checkout: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    """python with args, run in a subprocess on the sbo package under
    checkout/src, with its output captured as text."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def python_in(checkout: pathlib.Path, *args: str) -> str:
    """The standard output of `run_python`, or a RuntimeError when it fails."""
    done = run_python(checkout, *args)
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode} in {checkout}: {done.stderr.strip()}")
    return done.stdout


def _relative_difference(a: str, b: str) -> float | None:
    """|x - y| / max(|x|, |y|) of two numeric texts, None if one is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    return abs(x - y) / max(abs(x), abs(y))


def trace_differences(mine: str, other: str) -> list[str]:
    """What differs between two trace.csv texts, one line per finding;
    empty when they are byte-identical."""
    if mine == other:
        return []
    mine_rows, other_rows = mine.splitlines(), other.splitlines()
    if mine_rows[0] != other_rows[0]:
        return [f"header differs: {mine_rows[0]!r} vs {other_rows[0]!r}"]
    findings = []
    if len(mine_rows) != len(other_rows):
        findings.append(f"{len(mine_rows) - 1} rows vs {len(other_rows) - 1}")
    header = mine_rows[0].split(",")
    worst = dict.fromkeys(header, 0.0)
    one_sided = collections.Counter()
    for mine_row, other_row in zip(mine_rows[1:], other_rows[1:]):
        for name, a, b in zip(header, mine_row.split(","), other_row.split(",")):
            if name in IGNORED_COLUMNS or a == b:
                continue
            if "" in (a, b):
                one_sided[name, "this checkout" if a else "the other checkout"] += 1
                continue
            worst[name] = max(worst[name], _relative_difference(a, b))
    findings += [f"{name}: filled on {side} only, in {rows} rows"
                 for (name, side), rows in one_sided.items()]
    findings += [f"{name}: max rel diff {diff:.2e}" for name, diff in worst.items() if diff]
    return findings or ["differs only in ignored columns"]


def report_differences(mine: str, other: str) -> list[str]:
    """What differs between two report.txt texts, one line per "key = value"
    line that differs; the timing footer is ignored."""
    def values(text: str) -> dict[str, str]:
        pairs = (line.partition(" = ") for line in text.splitlines())
        return {key: value for key, _, value in pairs if key not in IGNORED_REPORT_KEYS}

    mine_values, other_values = values(mine), values(other)
    findings = []
    for key in sorted(mine_values.keys() | other_values.keys()):
        a, b = mine_values.get(key), other_values.get(key)
        if a == b:
            continue
        diff = None if None in (a, b) else _relative_difference(a, b)
        findings.append(f"report {key}: " + (f"rel diff {diff:.2e}" if diff is not None
                                             else f"{a!r} vs {b!r}"))
    return findings


def _numbers(line: str) -> tuple[list[str], list[float]]:
    """The words of a check's output line apart from its numbers: a word
    float.hex writes or a decimal integer. A sha256:<digest> is a word."""
    words, numbers = [], []
    for word in line.split():
        if "0x" in word:
            numbers.append(float.fromhex(word))
        elif word.lstrip("-").isdigit():
            numbers.append(float(word))
        else:
            words.append(word)
    return words, numbers


def check_difference(mine: list[str], other: list[str]) -> str:
    """"identical" when two checks printed the same lines, else how many
    lines differ and the largest relative difference ||u - v|| / max(||u||,
    ||v||) between the numbers u, v of two differing lines whose words are
    the same."""
    if len(mine) != len(other):
        return f"{len(mine)} lines vs {len(other)}"
    differing = [(a, b) for a, b in zip(mine, other) if a != b]
    if not differing:
        return "identical"
    diffs = []
    for a, b in differing:
        (a_words, u), (b_words, v) = _numbers(a), _numbers(b)
        if a_words == b_words and len(u) == len(v):
            scale = max(math.hypot(*u), math.hypot(*v))
            diffs.append(math.hypot(*(x - y for x, y in zip(u, v))) / scale if scale else 0.0)
    return f"{len(differing)} of {len(mine)} lines differ" + (
        f", max rel diff {max(diffs):.2e}" if diffs else "")


def plot_differences(mine: dict[str, str], other: dict[str, str]) -> list[str]:
    """The plot_*.svg files that differ between two runs' outputs, or that
    one run wrote and the other did not."""
    names = sorted(name for name in mine.keys() | other.keys() if name.startswith("plot_"))
    return [f"{name}: " + ("differs" if name in mine and name in other
                           else "written on one side only")
            for name in names if mine.get(name) != other.get(name)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = pathlib.Path(argv[0]).resolve()
    failed = False
    for label, cfg in runs(other):
        try:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                mine = run_in(ROOT, cfg, pathlib.Path(a))
                theirs = run_in(other, cfg, pathlib.Path(b))
            findings = (trace_differences(mine["trace.csv"], theirs["trace.csv"])
                        + report_differences(mine["report.txt"], theirs["report.txt"])
                        + plot_differences(mine, theirs))
        except RuntimeError as exc:
            print(f"{label}: FAILED: {exc}")
            failed = True
            continue
        print(f"{label}: " + ("identical" if not findings else "; ".join(findings)))
    mine, theirs = (run_python(checkout, "-m", "sbo.cli", "rates", str(RATES_SUITE))
                    for checkout in (ROOT, other))
    differing = [line for line in difflib.ndiff(mine.stdout.splitlines(),
                                                theirs.stdout.splitlines())
                 if line[:1] in "-+"]
    print(f"sbo rates {RATES_SUITE.name}: " + (
        "identical" if (mine.returncode, mine.stdout) == (theirs.returncode, theirs.stdout)
        else f"exit {mine.returncode} vs {theirs.returncode}; " + "; ".join(differing)))
    for label, snippet in CHECKS:
        try:
            mine, theirs = (python_in(checkout, "-c", snippet).splitlines()
                            for checkout in (ROOT, other))
        except RuntimeError as exc:
            print(f"{label}: FAILED: {exc}")
            failed = True
            continue
        print(f"{label}: {check_difference(mine, theirs)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
