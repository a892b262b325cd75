"""Regenerates the golden traces in tests/fixtures/traces/ from configs/*.cfg.

Every shipped config is run through `sbo run` at solver.K = 20 and its
trace.csv (without timings) is written to `<config>.csv`. The `ir_ista`
configs are also run at their shipped K and written to `<config>_K<K>.csv`:
rounding that builds up over tens of thousands of averaging steps does not
show in a 20-step trace.

The test suite compares later code against these files, so they are only
as trustworthy as the code that wrote them. Run this script only at a
commit whose traces you trust (one that passed the acceptance gate before
the change under test), never to make a failing comparison pass.

Config stems given on the command line (`nonconvex_phillips_ipr` for
configs/nonconvex_phillips_ipr.cfg) rewrite only the golden traces of those
configs; with no argument every golden trace is rewritten. Name only the
configs a change moves: on a host whose BLAS rounds differently from the
one that wrote the files, a full rewrite also changes the last digits of
traces the change did not touch.

Run from the repository root:

    PYTHONPATH=src python tests/gen_golden_traces.py [CONFIG_STEM ...]
"""

import pathlib
import sys
import tempfile

from sbo.cli import main as sbo_main, parse_kv_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN_TRACES = ROOT / "tests" / "fixtures" / "traces"
SHORT_K = 20
LONG_HORIZON_SOLVERS = ("ir_ista",)


def golden_runs():
    """(config path, K, golden trace path) of every golden trace."""
    runs = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        runs.append((path, SHORT_K, GOLDEN_TRACES / f"{path.stem}.csv"))
        cfg = parse_kv_file(path)
        if cfg["solver.name"] in LONG_HORIZON_SOLVERS:
            big_k = int(cfg["solver.K"])
            runs.append((path, big_k, GOLDEN_TRACES / f"{path.stem}_K{big_k}.csv"))
    return runs


def write_run_config(path: pathlib.Path, big_k: int, work: pathlib.Path) -> pathlib.Path:
    """A copy of the config in `work` with solver.K = big_k and output.dir
    set to work/out."""
    cfg = parse_kv_file(path)
    cfg["solver.K"] = str(big_k)
    cfg["output.dir"] = str(work / "out")
    copy = work / path.name
    copy.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    return copy


def run_trace(path: pathlib.Path, big_k: int, work: pathlib.Path) -> str:
    """The trace.csv text of `sbo run` on the config at solver.K = big_k,
    with output.dir moved into `work`."""
    if sbo_main(["run", str(write_run_config(path, big_k, work))]) != 0:
        raise SystemExit(f"sbo run failed on {path.name} at K = {big_k}")
    return (work / "out" / "trace.csv").read_text(encoding="utf-8")


def main(stems: list[str]) -> None:
    unknown = set(stems) - {path.stem for path in CONFIGS.glob("*.cfg")}
    if unknown:
        raise SystemExit(f"no config configs/<stem>.cfg for {sorted(unknown)}")
    GOLDEN_TRACES.mkdir(parents=True, exist_ok=True)
    for path, big_k, out in golden_runs():
        if stems and path.stem not in stems:
            continue
        with tempfile.TemporaryDirectory() as work:
            out.write_text(run_trace(path, big_k, pathlib.Path(work)), encoding="utf-8")
        print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
