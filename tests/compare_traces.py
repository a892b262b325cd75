"""Compares the trace of every shipped config between this checkout and another.

Each configs/*.cfg is run through `sbo run` at solver.K = 20 and at its
shipped solver.K, once on this checkout's src/ and once on the other
checkout's src/, each in a subprocess. For each run the script prints
"identical" when the two trace.csv files are byte-identical, and otherwise
the worst relative difference |a - b| / max(|a|, |b|) of every numeric
column that differs (elapsed_ns is ignored), plus any field that is empty
on one side only or a differing row count. Use it to show that a change
keeps the traces, or to bound how far it moves them.

pytest does not collect this file. Run from the repository root:

    python tests/compare_traces.py OTHER_CHECKOUT

It exits 1 if a run fails in either checkout, else 0.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gen_golden_traces import CONFIGS, SHORT_K, write_run_config  # noqa: E402
from sbo.cli import parse_kv_file  # noqa: E402

IGNORED_COLUMNS = ("elapsed_ns",)


def run_trace_in(checkout: pathlib.Path, path: pathlib.Path, big_k: int,
                 work: pathlib.Path) -> str:
    """The trace.csv text of `sbo run` on the config at solver.K = big_k,
    run by the sbo package under checkout/src in a subprocess."""
    config = write_run_config(path, big_k, work)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-m", "sbo.cli", "run", str(config)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode} in {checkout}: {done.stderr.strip()}")
    return (work / "out" / "trace.csv").read_text(encoding="utf-8")


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
    for mine_row, other_row in zip(mine_rows[1:], other_rows[1:]):
        for name, a, b in zip(header, mine_row.split(","), other_row.split(",")):
            if name in IGNORED_COLUMNS or a == b:
                continue
            if "" in (a, b):
                findings.append(f"{name}: {a!r} vs {b!r} in row k = {mine_row.split(',')[0]}")
                continue
            x, y = float(a), float(b)
            worst[name] = max(worst[name], abs(x - y) / max(abs(x), abs(y)))
    findings += [f"{name}: max rel diff {diff:.2e}" for name, diff in worst.items() if diff]
    return findings or ["differs only in ignored columns"]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = pathlib.Path(argv[0]).resolve()
    failed = False
    for path in sorted(CONFIGS.glob("*.cfg")):
        shipped_k = int(parse_kv_file(path)["solver.K"])
        for big_k in sorted({SHORT_K, shipped_k}):
            label = f"{path.stem} K={big_k}"
            try:
                with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                    findings = trace_differences(
                        run_trace_in(ROOT, path, big_k, pathlib.Path(a)),
                        run_trace_in(other, path, big_k, pathlib.Path(b)))
            except RuntimeError as exc:
                print(f"{label}: FAILED: {exc}")
                failed = True
                continue
            print(f"{label}: " + ("identical" if not findings else "; ".join(findings)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
