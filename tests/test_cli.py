import re
import string
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sbo.cli as cli_mod
from sbo.cli import (CSV_HEADER, main, parse_kv_file, read_trace_csv,
                     render_svg, trace_to_csv)
from sbo.errors import ParseError
from sbo.problems import InstanceSpec, build_instance, gen_phillips, load_instance
from sbo.solvers import TraceRecord

from gen_golden_traces import GOLDEN_TRACES, SHORT_K, golden_runs, run_trace

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, **overrides):
    base = {
        "instance.name": "l1_weak_sharp",
        "instance.n": "20",
        "instance.seed": "3",
        "solver.name": "r_vfista",
        "solver.K": "300",
        "solver.eta": "weak_sharp",
        "output.dir": str(path.parent / "out"),
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_kv_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a.b = 1\n# comment\nc.d = two  # trailing\n\n")
    assert parse_kv_file(p) == {"a.b": "1", "c.d": "two"}


def test_parse_kv_file_errors(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a.b = 1\nnonsense line\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_kv_file(p)
    p.write_text("a.b = 1\na.b = 2\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_kv_file(p)


_KEY_CHARS = string.ascii_letters + string.digits + "._-"
_VALUE_CHARS = _KEY_CHARS + " =,:;+*/()[]'\"!$%&<>?"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)
@given(entries=st.dictionaries(
           st.text(_KEY_CHARS, min_size=1),
           st.text(_VALUE_CHARS, min_size=1).map(str.strip).filter(bool),
           max_size=8),
       comments=st.lists(st.booleans(), min_size=8, max_size=8))
def test_parse_kv_file_roundtrip(tmp_path, entries, comments):
    lines = []
    for (key, value), comment in zip(entries.items(), comments):
        lines.append(f"{key} = {value}" + ("  # note" if comment else ""))
        if comment:
            lines.append("# a comment line\n")
    p = tmp_path / "rt.cfg"
    p.write_text("\n".join(lines) + "\n")
    assert parse_kv_file(p) == entries


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------


def test_cmd_run_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "ws.cfg")
    assert main(["run", str(cfg)]) == 0
    csv_path = tmp_path / "out" / "trace.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 3  # header + at least 2 data rows
    assert (tmp_path / "out" / "report.txt").exists()


def test_cmd_run_rejects_infeasible_constant_schedule(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "bad.cfg",
        **{"instance.name": "rank_deficient_ls", "instance.n": "10",
           "instance.rank": "4", "solver.name": "r_ista_const",
           "solver.K": "10", "solver.p": "9"})
    cfg_text = cfg.read_text().replace("solver.eta = weak_sharp\n", "")
    cfg.write_text(cfg_text)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "K/ln(K)" in err  # names the violated feasibility inequality


def test_cmd_run_rerun_is_byte_identical(tmp_path):
    cfg1 = write_config(tmp_path / "a.cfg", **{"output.dir": str(tmp_path / "o1")})
    cfg2 = write_config(tmp_path / "b.cfg", **{"output.dir": str(tmp_path / "o2")})
    assert main(["run", str(cfg1)]) == 0
    assert main(["run", str(cfg2)]) == 0
    b1 = (tmp_path / "o1" / "trace.csv").read_bytes()
    b2 = (tmp_path / "o2" / "trace.csv").read_bytes()
    assert b1 == b2


def test_cmd_run_timings_fill_only_the_elapsed_ns_column(tmp_path):
    traces = []
    for timings in ("0", "1"):
        cfg = write_config(tmp_path / f"t{timings}.cfg",
                           **{"output.dir": str(tmp_path / f"o{timings}"),
                              "output.timings": timings})
        assert main(["run", str(cfg)]) == 0
        traces.append((tmp_path / f"o{timings}" / "trace.csv").read_bytes().splitlines())
    plain, timed = traces
    assert plain[0] == timed[0] == CSV_HEADER.encode()
    assert len(plain) == len(timed) > 2
    col = CSV_HEADER.split(",").index("elapsed_ns")
    elapsed = []
    for a, b in zip(plain[1:], timed[1:]):
        a, b = a.split(b","), b.split(b",")
        assert a[:col] + a[col + 1:] == b[:col] + b[col + 1:]
        assert a[col] == b"" and b[col].isdigit()
        elapsed.append(int(b[col]))
    assert elapsed == sorted(elapsed)


def test_cmd_run_writes_plots(tmp_path):
    cfg = write_config(
        tmp_path / "p.cfg",
        **{"instance.name": "rank_deficient_ls", "instance.n": "10",
           "instance.rank": "4", "solver.name": "ir_ista", "solver.K": "500",
           "output.plots": "infeas,h_bar"})
    text = cfg.read_text().replace("solver.eta = weak_sharp\n", "")
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 0
    svg = (tmp_path / "out" / "plot_infeas.svg").read_text()
    assert svg.count("<polyline") == 1


def test_cmd_run_plot_with_fewer_than_two_points_exits_2_and_keeps_the_run(tmp_path,
                                                                          capsys):
    # r_vfista has no theta: its column has no point to plot
    cfg = write_config(tmp_path / "p.cfg", **{"output.plots": "f_bar,theta"})
    assert main(["run", str(cfg)]) == 2
    assert "cannot plot 'theta': plot needs at least 2 plottable points" in (
        capsys.readouterr().err)
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["plot_f_bar.svg", "report.txt",
                                                     "trace.csv"]
    assert "final.f_bar" in (out / "report.txt").read_text()


@pytest.mark.parametrize("overrides,message", [
    ({"solver.name": "fista"}, "unknown solver 'fista'; pick one of ir_ista"),
    ({"instance.name": "rank_deficient_ls", "instance.n": "10"},
     "eta = weak_sharp needs reference truth with order-1 weak-sharp constants"),
])
def test_cmd_run_refuses_an_unknown_solver_or_a_weak_sharp_eta_without_its_truth(
        tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path / "p.cfg", **overrides)
    assert main(["run", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_run_takes_a_numeric_eta_as_a_fixed_schedule(tmp_path):
    cfg = write_config(tmp_path / "p.cfg", **{"solver.eta": "0.25", "solver.K": "40"})
    assert main(["run", str(cfg)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert "config.schedule = fixed" in report and "config.eta = 0.25" in report


def test_cmd_run_unknown_plot_name_exits_2_before_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.cfg", **{"output.plots": "infeas,bogus"})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'output.plots'" in err and "'bogus'" in err
    assert not (tmp_path / "out").exists()


def test_cmd_run_missing_key_exits_2(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("instance.name = l1_weak_sharp\n")
    assert main(["run", str(p)]) == 2


def test_cmd_run_report_echoes_resolved_config(tmp_path):
    cfg = write_config(tmp_path / "e.cfg")
    assert main(["run", str(cfg)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "config.instance.name = l1_weak_sharp" in report
    assert "config.eta = " in report        # weak_sharp expanded to a number
    assert "config.gamma = " in report      # auto expanded
    assert "wall_clock_ns" in report
    assert "metrics_ns" in report
    build_lines = [line for line in report.splitlines() if line.startswith("build_ns = ")]
    assert len(build_lines) == 1 and int(build_lines[0].split(" = ")[1]) > 0


def test_cmd_run_refuses_averaging_weights_that_would_overflow(tmp_path, capsys):
    # theta_K ~ K^(p+1) passes 1.8e308; without the check the run exits 0
    # with Gamma_K = inf and NaN metrics in the trace's late rows
    cfg = tmp_path / "ov.cfg"
    cfg.write_text(
        "instance.name = rank_deficient_ls\ninstance.n = 10\ninstance.seed = 1\n"
        "solver.name = r_ista_const\nsolver.p = 70\nsolver.K = 100000\n"
        f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "averaging weights overflow" in err and "1e+300" in err
    assert not (tmp_path / "out").exists()


def test_cmd_run_divergence_exits_3_with_partial_trace(tmp_path, capsys,
                                                       monkeypatch):
    from conftest import quad_problem
    from test_solvers import LyingQuadratic
    from sbo.bilevel import BilevelProblem, CompositeObjective
    from sbo.prox import ZeroProx

    def fake_instance(spec):
        lower = CompositeObjective(LyingQuadratic(np.array([10.0, 10.0])),
                                   ZeroProx())
        p = quad_problem([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
        return BilevelProblem(p.upper, lower, initial_point=np.ones(2))

    monkeypatch.setattr(cli_mod, "build_instance", fake_instance)
    cfg = write_config(
        tmp_path / "d.cfg",
        **{"solver.name": "ir_ista", "solver.K": "5000",
           "solver.trace_every": "10"})
    cfg.write_text(cfg.read_text().replace("solver.eta = weak_sharp\n", ""))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg)]) == 3
    assert "divergence" in capsys.readouterr().err
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "diverged_at_step" in report
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 2  # records traced before the divergence are kept
    # the values overflow before the iterate does: the report echoes the
    # last record whose values are all finite, not the last one kept
    finite_ks = [row.split(",")[0] for row in lines[1:]
                 if "inf" not in row and "nan" not in row]
    assert f"last_finite.k = {finite_ks[-1]}\n" in report
    assert finite_ks[-1] != lines[-1].split(",")[0]


def _ipr_config_diverging_at_outer_step_2(path, monkeypatch, **overrides):
    """An ipr_vfista config at K = 4 whose instance is replaced by one whose
    upper gradient turns NaN at its third call, outer step 2."""
    from conftest import DiagQuadratic, GradientTurnsNan
    from sbo.bilevel import BilevelProblem, CompositeObjective
    from sbo.prox import ZeroProx

    def fake_instance(spec):
        lower = CompositeObjective(DiagQuadratic(np.array([1.0, 0.0])), ZeroProx())
        upper = CompositeObjective(GradientTurnsNan(np.array([1.0, 1.0]), 2),
                                   ZeroProx())
        return BilevelProblem(upper, lower, initial_point=np.ones(2))

    monkeypatch.setattr(cli_mod, "build_instance", fake_instance)
    cfg = write_config(path, **{"solver.name": "ipr_vfista", "solver.K": "4",
                                **overrides})
    cfg.write_text(cfg.read_text().replace("solver.eta = weak_sharp\n", ""))
    return cfg


def test_cmd_run_ipr_divergence_at_outer_step_2_exits_3(tmp_path, capsys,
                                                       monkeypatch):
    cfg = _ipr_config_diverging_at_outer_step_2(tmp_path / "d.cfg", monkeypatch)
    assert main(["run", str(cfg)]) == 3
    assert "at step 2" in capsys.readouterr().err
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "diverged_at_step = 2\n" in report
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    # the report echoes the resolved config and the last (finite) record
    values = dict(line.split(" = ", 1) for line in report.splitlines())
    assert values["solver"] == "ipr_vfista"
    assert {key: values[f"config.{key}"] for key in (
        "K", "a", "eta_bar", "gamma_hat", "total_inner", "allow_large_step",
        "instance.name", "instance.n")} == {
        "K": "4", "a": "2", "eta_bar": "1.0", "gamma_hat": "0.5", "total_inner": "30",
        "allow_large_step": "False", "instance.name": "l1_weak_sharp", "instance.n": "20"}
    last_row = dict(zip(CSV_HEADER.split(","), lines[-1].split(",")))
    echoed = {key[len("last_finite."):]: value for key, value in values.items()
              if key.startswith("last_finite.")}
    assert echoed == {key: value for key, value in last_row.items()
                      if value and key != "elapsed_ns"}
    assert echoed["k"] == "2" and "f_bar" in echoed


@pytest.mark.parametrize("diverges", [False, True], ids=["solved", "diverged"])
def test_cmd_run_output_dir_that_cannot_be_made_exits_2_naming_it(
        tmp_path, capsys, monkeypatch, diverges):
    # output.dir lies under a regular file; it is made only after the run
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    if diverges:
        cfg = _ipr_config_diverging_at_outer_step_2(
            tmp_path / "c.cfg", monkeypatch, **{"output.dir": str(out)})
    else:
        cfg = write_config(tmp_path / "c.cfg", **{"output.dir": str(out)})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write to output.dir {str(out)!r}" in err


def test_cmd_run_refuses_a_huge_ipr_k_at_once(tmp_path, capsys):
    # the inner budget K(K+1)(2K+1)/6 is about 3.3e35 here
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("instance.name = nonconvex_phillips\ninstance.n = 8\n"
                   "solver.name = ipr_vfista\nsolver.K = 1000000000000\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    start = time.perf_counter()
    assert main(["run", str(cfg)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the cap 2000000; lower K" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("solver.gamma", "nan"),
                                       ("solver.eta", "inf"),
                                       ("solver.eta", "-inf")])
def test_cmd_run_non_finite_number_exits_2_naming_key(tmp_path, capsys,
                                                      key, value):
    # on ir_ista, which reads solver.gamma as well as solver.eta
    cfg = write_config(tmp_path / "nf.cfg", **{"solver.name": "ir_ista", key: value})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not (tmp_path / "out").exists()


def test_cmd_run_config_not_in_utf8_exits_2_naming_path_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"# a config\ninstance.name = rank_deficient_ls\n"
                    b"instance.seed = \xff\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "utf-8" in err
    assert str(cfg) in err and "line 3" in err


RD_IR_ISTA = {"instance.name": "rank_deficient_ls", "instance.n": "10",
              "instance.rank": "4", "solver.name": "ir_ista", "solver.K": "50"}
NONCONVEX = {"instance.name": "nonconvex_phillips", "instance.n": "8",
             "instance.rank": None}


@pytest.mark.parametrize("overrides,named", [
    ({"instance.lamda": "5"}, "instance key 'lamda'"),
    ({"instance.noise_std": "0.5"}, "instance key 'noise_std'"),
    ({"instance.lam": "nan"}, "instance key 'lam'"),
    ({"instance.mu_f": "inf"}, "instance key 'mu_f'"),
    ({"instance.rank": "two"}, "instance key 'rank'"),
    ({"instance.seed": "1.5"}, "'instance.seed'"),
    ({"instance.n": "ten"}, "'instance.n'"),
    ({"solver.gama": "0.001"}, "'solver.gama'"),
    ({"solver.a": "x"}, "'solver.a'"),
    ({"solver.K": "1e3"}, "'solver.K'"),
    ({"solver.trace_every": "x"}, "'solver.trace_every'"),
    ({"solver.name": "ipr_vfista", "solver.a": "two"}, "'solver.a'"),
    ({"solver.name": "ipr_vfista", "solver.gamma": "0.1"}, "'solver.gamma'"),
    ({"output.timings": "2"}, "'output.timings'"),
    ({"output.plot": "infeas"}, "'output.plot'"),
    ({"extra": "1"}, "'extra'"),
    ({**NONCONVEX, "instance.ref_budget": "1000"}, "instance key 'ref_budget'"),
    ({**NONCONVEX, "instance.projector_budget": "1000"},
     "instance key 'projector_budget'"),
    ({"solver.name": "ipr_vfista", "solver.box_lower": "-10"}, "'solver.box_lower'"),
    ({"solver.name": "ipr_vfista", "solver.box_upper": "10"}, "'solver.box_upper'"),
    ({"solver.name": "ipr_vfista", "solver.a": "2"}, "unknown config key 'solver.a'"),
    ({"solver.name": "ipr_vfista", "solver.eta_bar": "1"},
     "unknown config key 'solver.eta_bar'"),
    ({"solver.name": "r_vfista", "solver.eta_bar": "1"},
     "unknown config key 'solver.eta_bar'"),
    ({"solver.name": "r_vfista", "solver.gamma": "auto"},
     "unknown config key 'solver.gamma'"),
    ({"instance.lam": "-1"}, "instance key 'lam'"),
    ({"instance.name": "sec61_phillips", "instance.n": "8", "instance.rank": None,
      "instance.lam": "-1"}, "instance key 'lam'"),
    ({"instance.f_star_budget": "-5"}, "instance key 'f_star_budget'"),
    ({"instance.mu_f": "0"}, "instance key 'mu_f'"),
    ({"instance.seed": "-1"}, "instance key 'seed'"),
    ({"instance.name": "l1_weak_sharp", "instance.n": "-3", "instance.rank": None},
     "instance key 'n'"),
])
def test_cmd_run_refuses_unread_or_bad_key_naming_it(tmp_path, capsys,
                                                     overrides, named):
    # an override of None drops the key
    cfg = tmp_path / "s.cfg"
    entries = {**RD_IR_ISTA, "output.dir": str(tmp_path / "out"), **overrides}
    entries = {k: v for k, v in entries.items() if v is not None}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    assert main(["run", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_configs_pass_the_strict_parser(tmp_path, path):
    # solver.K is lowered to keep the runs short; every other key stays as
    # shipped
    cfg = parse_kv_file(path)
    cfg["solver.K"] = "20"
    cfg["output.dir"] = str(tmp_path / "out")
    small = tmp_path / path.name
    small.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert main(["run", str(small)]) == 0


def _assert_trace_matches(got_text: str, want_path: Path, rtol: float) -> None:
    # the header must match exactly, empty fields stay empty and every
    # number agrees to rtol
    got = got_text.splitlines()
    want = want_path.read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        for name, g, w in zip(want[0].split(","), got_row.split(","),
                              want_row.split(",")):
            if w == "":
                assert g == "", name
            else:
                assert float(g) == pytest.approx(float(w), rel=rtol, abs=0.0), \
                    f"{name} in row {want_row}"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_reproduce_their_golden_traces(tmp_path, path):
    # tests/fixtures/traces/<config>.csv holds each config's trace at
    # solver.K = 20 (see gen_golden_traces.py); rtol 1e-12 leaves room for
    # BLAS summing in another order
    _assert_trace_matches(run_trace(path, SHORT_K, tmp_path),
                         GOLDEN_TRACES / f"{path.stem}.csv", rtol=1e-12)


@pytest.mark.parametrize("path,big_k,golden", [
    pytest.param(*run, id=run[2].stem) for run in golden_runs() if run[1] != SHORT_K])
def test_shipped_ir_ista_configs_reproduce_their_long_horizon_golden_traces(
        tmp_path, path, big_k, golden):
    # the ir_ista configs at their shipped K, where rounding in the
    # averaging has tens of thousands of steps to build up; rtol 1e-10 is
    # the tolerance a refactor of a solver must hold
    _assert_trace_matches(run_trace(path, big_k, tmp_path), golden, rtol=1e-10)


def test_shipped_rate_suite_passes_the_strict_parser(capsys):
    assert main(["rates", str(CONFIGS / "rates_quick.txt")]) == 0


# ---------------------------------------------------------------------------
# rates command
# ---------------------------------------------------------------------------


def test_cmd_rates_selftest_pass_and_fail(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "label=powerlaw config=selftest:powerlaw:exp=-1,coeff=7 "
        "metric=value slope=-1 tol=0.01\n")
    assert main(["rates", str(suite)]) == 0
    out = capsys.readouterr().out
    assert "PASS powerlaw" in out

    suite.write_text(
        "label=wrong config=selftest:powerlaw:exp=-1,coeff=7 "
        "metric=value slope=-3 tol=0.01\n")
    assert main(["rates", str(suite)]) == 1
    out = capsys.readouterr().out
    assert "FAIL wrong" in out and "slope=-1.0000" in out


def test_cmd_rates_rows_run_in_file_order(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "label=first config=selftest:powerlaw:exp=-1,coeff=7 "
        "metric=value slope=-1 tol=0.01\n"
        "label=second config=selftest:powerlaw:exp=-2,coeff=3 "
        "metric=value slope=-1 tol=0.01\n")
    assert main(["rates", str(suite)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["PASS first", "FAIL second"]


def test_cmd_rates_row_that_cannot_run_fails_and_later_rows_run(tmp_path,
                                                                 capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "label=gone config=nosuch.cfg metric=infeas slope=-1 tol=0.1\n"
        "label=typo config=selftest:powerlaw:exq=-1 metric=value slope=-1 tol=0.01\n"
        "label=after config=selftest:powerlaw:exp=-1,coeff=7 "
        "metric=value slope=-1 tol=0.01\n")
    assert main(["rates", str(suite)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL gone:") and "nosuch.cfg" in lines[0]
    assert lines[1].startswith("FAIL typo:") and "'exq'" in lines[1]
    assert lines[2].startswith("PASS after:")


@pytest.mark.parametrize("params,reason", [
    # k**400 overflows a double from k = 6 on
    ("exp=400", "selftest powerlaw exp=400.0, coeff=1.0 overflows for k <= 1000"),
    # 1e308 * k is inf from k = 2 on: one finite sample is left
    ("exp=1,coeff=1e308", "rate fit needs at least 5 positive samples"),
])
def test_cmd_rates_selftest_row_that_overflows_fails_and_later_rows_run(
        tmp_path, capsys, params, reason):
    suite = tmp_path / "suite.txt"
    suite.write_text(f"label=x config=selftest:powerlaw:{params} metric=value slope=-1 "
                     "tol=0.1\n"
                     "label=after config=selftest:powerlaw:exp=-1,coeff=7 "
                     "metric=value slope=-1 tol=0.01\n")
    assert main(["rates", str(suite)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"FAIL x: {reason}")
    assert lines[1].startswith("PASS after:")


@pytest.mark.parametrize("params,named", [
    ("exp=-1,exp=-2", "'exp=-2'"),    # a repeated key
    ("exp=-1,=7", "'=7'"),            # an empty key
    ("exp=-1,coeff", "'coeff'"),      # no '='
    ("exp=-1,coeff=", "'coeff=' has an empty value"),
    ("exp=-1,wobble=0.01", "'wobble'"),
])
def test_cmd_rates_selftest_row_with_a_bad_item_fails_naming_it(tmp_path, capsys,
                                                                params, named):
    suite = tmp_path / "suite.txt"
    suite.write_text(f"label=bad config=selftest:powerlaw:{params} "
                     "metric=value slope=-2 tol=0.01\n"
                     "label=after config=selftest:powerlaw:exp=-1,coeff=7 "
                     "metric=value slope=-1 tol=0.01\n")
    assert main(["rates", str(suite)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL bad:") and named in lines[0]
    assert lines[1].startswith("PASS after:")


def test_cmd_rates_unknown_selftest_kind_fails_and_later_rows_run(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "label=misspelled config=selftest:powrlaw:exp=-1,coeff=7 "
        "metric=value slope=-1 tol=0.01\n"
        "label=other config=selftest:whatever metric=value slope=-1 tol=0.01\n"
        "label=after config=selftest:powerlaw:exp=-1,coeff=7 "
        "metric=value slope=-1 tol=0.01\n")
    assert main(["rates", str(suite)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL misspelled: unknown selftest kind 'powrlaw'",
        "FAIL other: unknown selftest kind 'whatever'",
        "PASS after: metric=value slope=-1.0000 expected=-1.000+/-0.010 r2=1.0000 n=1000",
    ]


def test_cmd_rates_suite_not_in_utf8_exits_2(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_bytes(b"label=\xff config=selftest:powerlaw metric=value "
                      b"slope=-1 tol=0.01\n")
    assert main(["rates", str(suite)]) == 2
    err = capsys.readouterr().err
    assert "utf-8" in err
    assert str(suite) in err and "line 1" in err


def test_cmd_rates_row_whose_config_is_not_utf8_fails_and_later_rows_run(
        tmp_path, capsys):
    (tmp_path / "bad.cfg").write_bytes(b"instance.name = \xff\n")
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "label=bad config=bad.cfg metric=infeas slope=-1 tol=0.1\n"
        "label=after config=selftest:powerlaw:exp=-1,coeff=7 "
        "metric=value slope=-1 tol=0.01\n")
    assert main(["rates", str(suite)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL bad:") and "utf-8" in lines[0]
    assert str(tmp_path / "bad.cfg") in lines[0] and "line 1" in lines[0]
    assert lines[1].startswith("PASS after:")


@pytest.mark.parametrize("token", ["slope=abc", "tol=nan", "min_samples=x",
                                   "kmin=1.5", "ks=10,x", "slpoe=-1",
                                   "metric=infeas", "mode=final"])
def test_cmd_rates_bad_row_exits_2_with_line(tmp_path, capsys, token):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "# one row\n"
        f"label=x config=selftest:powerlaw metric=value slope=-1 tol=0.01 {token}\n")
    assert main(["rates", str(suite)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("row,message", [
    ("label= config=selftest:powerlaw metric=value slope=-1 tol=0.01",
     "line 1: suite item 'label=' has an empty value"),
    ("label=x config=selftest:powerlaw metric=value slope=-1 tol=0.01 tol=1",
     "line 1: suite item 'tol=1' gives a duplicate key 'tol'"),
    ("label=x config=selftest:powerlaw metric=value slope=-1 tol=0.01 kmax",
     "line 1: suite item 'kmax' is not key=value"),
])
def test_cmd_rates_bad_item_exits_2_naming_it(tmp_path, capsys, row, message):
    suite = tmp_path / "suite.txt"
    suite.write_text(row + "\n")
    assert main(["rates", str(suite)]) == 2
    assert capsys.readouterr().err == f"suite error: {message}\n"


def _rank_deficient_config(path, big_k="300"):
    cfg = write_config(
        path, **{"instance.name": "rank_deficient_ls", "instance.n": "10",
                 "instance.rank": "4", "solver.name": "ir_ista",
                 "solver.K": big_k, "output.dir": str(path.parent / "o")})
    cfg.write_text(cfg.read_text().replace("solver.eta = weak_sharp\n", ""))
    return cfg


@pytest.mark.parametrize("row", [
    "config=rd.cfg metric=bogus",              # not a trace column
    "config=rd.cfg metric=k",                  # k against itself
    "config=rd.cfg metric=eta",                # not an error metric
    "config=selftest:powerlaw metric=infeas",  # a selftest fits its value
    "config=rd.cfg metric=infeas ks=100,200",  # ks without mode=finals
    "config=selftest:powerlaw metric=value mode=finals ks=100,200",
])
def test_cmd_rates_row_with_a_key_it_would_not_read_exits_2(tmp_path, capsys, row):
    _rank_deficient_config(tmp_path / "rd.cfg")
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "label=ok config=selftest:powerlaw metric=value slope=-1 tol=0.01\n"
        f"label=x {row} slope=-1 tol=5\n")
    assert main(["rates", str(suite)]) == 2
    captured = capsys.readouterr()
    assert "line 2" in captured.err and captured.out == ""


def test_cmd_rates_finals_row_honours_kmin(tmp_path, capsys):
    _rank_deficient_config(tmp_path / "rd.cfg")
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "label=finals config=rd.cfg metric=infeas slope=-1 tol=5 mode=finals "
        "ks=50,100,200,400 min_samples=3 kmin=100\n")
    assert main(["rates", str(suite)]) == 0
    out = capsys.readouterr().out
    assert "PASS finals" in out and "n=3" in out  # k = 50 is outside the window


def test_cmd_rates_runs_configs(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "ir.cfg",
        **{"instance.name": "rank_deficient_ls", "instance.n": "10",
           "instance.rank": "4", "solver.name": "ir_ista",
           "solver.K": "20000", "output.dir": str(tmp_path / "o")})
    cfg.write_text(cfg.read_text().replace("solver.eta = weak_sharp\n", ""))
    # plumbing check only: the small instance decays faster than the nominal
    # 1/K during its transient, so the band is generous (the acceptance
    # suite pins the slope on the criterion instance)
    suite = tmp_path / "suite.txt"
    suite.write_text(
        f"label=ir-infeas config={cfg.name} metric=infeas "
        "slope=-1.4 tol=0.9 kmin=100 kmax=20000\n")
    rc = main(["rates", str(suite)])
    out = capsys.readouterr().out
    assert "ir-infeas" in out
    assert rc == 0, out


def test_cmd_rates_finals_row_at_one_k_fails_naming_the_reason(tmp_path, capsys):
    _rank_deficient_config(tmp_path / "rd.cfg")
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "label=one-k config=rd.cfg metric=infeas slope=-1 tol=5 mode=finals "
        "ks=100,100,100 min_samples=3\n")
    assert main(["rates", str(suite)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL one-k: rate fit needs at least 3 positive samples, at two or more k, "
        "in window [100, 100]; found 3 at 1 k"]


def test_cmd_rates_bad_suite_exits_2(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("label=x config=y\n")  # missing metric/slope/tol
    assert main(["rates", str(suite)]) == 2


# ---------------------------------------------------------------------------
# plot command
# ---------------------------------------------------------------------------


def _write_trace(path, rows):
    records = [
        TraceRecord(k=k, eta=None, theta=None, f_bar=v, h_bar=v, infeas=v,
                    subopt=None, dist_xstar_sq=None, dist_lower=None,
                    residual_sq=None, elapsed_ns=0)
        for k, v in rows
    ]
    path.write_text(trace_to_csv(records))


def test_cmd_plot_svg_polyline(tmp_path):
    csv = tmp_path / "t.csv"
    _write_trace(csv, [(1, 1.0), (10, 0.1), (100, 0.01)])
    out = tmp_path / "p.svg"
    assert main(["plot", str(csv), "--metric", "infeas", "--out", str(out),
                 "--logx", "--logy"]) == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 1
    assert svg.startswith("<svg")


def test_cmd_plot_non_numeric_field_exits_2_naming_the_line(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    _write_trace(csv, [(1, 1.0), (10, 0.1), (100, 0.01)])
    lines = csv.read_text().splitlines()
    lines[2] = lines[2].replace("0.1", "abc", 1)
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.svg"
    assert main(["plot", str(csv), "--metric", "infeas", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "'abc'" in err
    assert not out.exists()


def test_cmd_plot_csv_not_in_utf8_exits_2(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    _write_trace(csv, [(1, 1.0), (10, 0.1), (100, 0.01)])
    csv.write_bytes(csv.read_bytes() + b"\xff\n")  # line 5, after the header and 3 rows
    out = tmp_path / "p.svg"
    assert main(["plot", str(csv), "--metric", "infeas", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "utf-8" in err
    assert str(csv) in err and "line 5" in err
    assert not out.exists()


def test_cmd_plot_missing_or_empty_column_exits_2(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    _write_trace(csv, [(1, 1.0), (10, 0.1)])
    out = tmp_path / "p.svg"
    assert main(["plot", str(csv), "--metric", "nope", "--out", str(out)]) == 2
    # empty column: subopt has no values
    assert main(["plot", str(csv), "--metric", "subopt", "--out", str(out)]) == 2


def test_cmd_plot_skips_non_finite_values(tmp_path):
    csv = tmp_path / "t.csv"
    _write_trace(csv, [(1, 1.0), (2, float("nan")), (3, float("inf")), (4, 0.25),
                       (5, float("-inf"))])
    out = tmp_path / "p.svg"
    assert main(["plot", str(csv), "--metric", "infeas", "--out", str(out)]) == 0
    points = re.search(r'points="([^"]+)"', out.read_text()).group(1).split()
    assert len(points) == 2
    assert all(np.isfinite(float(c)) for p in points for c in p.split(","))


def test_cmd_plot_out_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    _write_trace(csv, [(1, 1.0), (10, 0.1)])
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "p.svg"
    assert main(["plot", str(csv), "--metric", "infeas", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


def test_cmd_plot_with_fewer_than_two_finite_values_exits_2(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    _write_trace(csv, [(1, 1.0), (2, float("nan")), (3, float("inf"))])
    out = tmp_path / "p.svg"
    assert main(["plot", str(csv), "--metric", "infeas", "--out", str(out)]) == 2
    assert "at least 2 plottable points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ys,logy", [
    ([-1.7e308, 1.7e308], False),                 # the span overflows
    ([1e300, 1e300], False),                      # 1e300 + 1 == 1e300
    ([sys.float_info.max, 1e-300], True),         # 10^log10(max) overflows
    ([sys.float_info.max, sys.float_info.max], False),
])
def test_render_svg_stays_finite_at_the_ends_of_the_float_range(ys, logy):
    svg = render_svg([1, 2], ys, logy=logy)
    assert "nan" not in svg and "inf" not in svg
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    assert len(points) == 2
    labels = re.findall(r'text-anchor="end">([^<]+)<', svg)
    # three digits: a label of float max reads 1.8e+308, which float() rounds to inf
    assert len(labels) == 5
    assert all(re.fullmatch(r"-?\d+(\.\d+)?(e[-+]\d+)?", v) for v in labels)


def test_plot_log_log_power_law_is_straight(tmp_path):
    ks = [int(k) for k in np.round(np.geomspace(1, 10**4, 40))]
    svg = render_svg(ks, [1.0 / k for k in ks], logx=True, logy=True)
    pts = re.search(r'points="([^"]+)"', svg).group(1).split()
    xy = np.array([[float(a) for a in p.split(",")] for p in pts])
    # fit px -> py line; all rendered points within 1 px of it
    coef = np.polyfit(xy[:, 0], xy[:, 1], 1)
    pred = np.polyval(coef, xy[:, 0])
    assert np.abs(xy[:, 1] - pred).max() < 1.0


def test_csv_header_is_the_trace_contract():
    assert CSV_HEADER == ("k,eta,theta,f_bar,h_bar,infeas,subopt,dist_xstar_sq,"
                          "dist_lower,residual_sq,elapsed_ns")


@pytest.mark.parametrize("lines,message", [
    (["k,eta", "1,"], "line 1: unexpected trace header in"),
    ([CSV_HEADER, "1" + "," * 10, "2,,,"], "line 3: expected 11 fields, got 4"),
])
def test_read_trace_csv_refuses_a_bad_header_or_a_short_row(tmp_path, lines, message):
    csv = tmp_path / "t.csv"
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        read_trace_csv(csv)


def test_read_trace_csv_roundtrip(tmp_path):
    csv = tmp_path / "t.csv"
    _write_trace(csv, [(1, 0.5), (2, 0.25)])
    cols = read_trace_csv(csv)
    assert cols["k"] == [1.0, 2.0]
    assert cols["infeas"] == [0.5, 0.25]
    assert cols["subopt"] == [None, None]


# ---------------------------------------------------------------------------
# gen command
# ---------------------------------------------------------------------------


def test_cmd_gen_roundtrip(tmp_path):
    out = tmp_path / "ph8.txt"
    assert main(["gen", "phillips:n=8", "--out", str(out)]) == 0
    name, params, a, b = load_instance(out)
    a8, b8 = gen_phillips(8)
    assert name == "phillips"
    assert np.array_equal(a, a8)
    assert np.array_equal(b, b8)

    out = tmp_path / "ws.txt"
    assert main(["gen", "l1_weak_sharp:n=6,seed=2", "--out", str(out)]) == 0
    name, params, a, b = load_instance(out)
    ws = build_instance(InstanceSpec("l1_weak_sharp", 6, seed=2))
    assert a is None and params == {"n": "6", "seed": "2"}
    assert np.array_equal(b, ws.upper.smooth.center)


def test_cmd_gen_rank_deficient_ls_round_trips_through_load_instance(tmp_path):
    out = tmp_path / "rd.txt"
    assert main(["gen", "rank_deficient_ls:n=10,seed=3", "--out", str(out)]) == 0
    name, params, a, b = load_instance(out)
    ls = build_instance(InstanceSpec("rank_deficient_ls", 10, seed=3)).lower.smooth
    assert name == "rank_deficient_ls" and params == {"n": "10", "seed": "3"}
    assert a.tobytes() == ls.a.tobytes() and b.tobytes() == ls.b.tobytes()


def test_cmd_run_and_gen_refuse_an_instance_too_large_to_allocate(tmp_path, capsys):
    # the first array is n x n, 8 EB: numpy refuses it before touching memory
    cfg = write_config(tmp_path / "huge.cfg", **{"instance.name": "rank_deficient_ls",
                                                   "instance.n": "1000000000"})
    assert main(["run", str(cfg)]) == 2
    assert "instance.n = 1000000000 is too large" in capsys.readouterr().err
    assert main(["gen", "rank_deficient_ls:n=1000000000",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert "instance.n = 1000000000 is too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "x.txt").exists()


class _NoNumpy:
    """Stands in for numpy in sbo.problems: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the instance was refused")


_FREDHOLM_SOLVERS = {
    "sec61": "solver.name = ir_ista\nsolver.K = 10\n",
    "nonconvex": "solver.name = ipr_vfista\nsolver.K = 4\nsolver.allow_large_step = 1\n",
}


@pytest.mark.parametrize("which", ["phillips", "baart", "foxgood"])
@pytest.mark.parametrize("command", ["gen", "run sec61", "run nonconvex"])
def test_a_fredholm_n_past_physical_memory_exits_2_before_any_allocation(
        tmp_path, capsys, monkeypatch, which, command):
    # n x n float64 at n = 1e9 is 8e18 bytes. numpy in sbo.problems is
    # replaced by a stand-in that fails on use, so no allocation can start
    import sbo.problems as problems_mod
    monkeypatch.setattr(problems_mod, "np", _NoNumpy())
    if command == "gen":
        argv = ["gen", f"{which}:n=1000000000", "--out", str(tmp_path / "x.txt")]
    else:
        family = command.split()[1]
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"instance.name = {family}_{which}\ninstance.n = 1000000000\n"
                       f"{_FREDHOLM_SOLVERS[family]}output.dir = {tmp_path / 'out'}\n")
        argv = ["run", str(cfg)]
    assert main(argv) == 2
    assert "instance.n = 1000000000 is too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("name,n", [("rank_deficient_ls", 10**9), ("l1_weak_sharp", 10**13)])
def test_a_seeded_family_past_physical_memory_exits_2_before_any_allocation(
        tmp_path, capsys, monkeypatch, name, n):
    import sbo.problems as problems_mod
    monkeypatch.setattr(problems_mod, "np", _NoNumpy())
    assert main(["gen", f"{name}:n={n},seed=1", "--out", str(tmp_path / "x.txt")]) == 2
    assert f"instance.n = {n} is too large" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_cmd_gen_rejects_bad_spec(tmp_path, capsys):
    assert main(["gen", "phillips", "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["gen", "nosuch:n=4", "--out", str(tmp_path / "x.txt")]) == 2
    capsys.readouterr()
    assert main(["gen", "rank_deficient_ls:n=10,rnk=3",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert "'rnk'" in capsys.readouterr().err
    assert main(["gen", "phillips:n=8,seed=1", "--out", str(tmp_path / "x.txt")]) == 2
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("spec,named", [
    ("phillips:n=8,n=16", "'n=16'"),        # a repeated key
    ("phillips:n=8,=3", "'=3'"),            # an empty key
    ("phillips:n=8,seed", "'seed'"),        # no '='
    ("l1_weak_sharp:seed=1,n=6,seed=2", "'seed=2'"),
    ("phillips:n=8,name=baart", "'name=baart'"),  # the name, given before ':'
    ("rank_deficient_ls:n=8,seed=", "'seed=' has an empty value"),
    ("phillips:n=8,n=16", "'n=16' gives a duplicate key 'n'"),
])
def test_cmd_gen_refuses_a_bad_item_naming_it(tmp_path, capsys, spec, named):
    assert main(["gen", spec, "--out", str(tmp_path / "x.txt")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()
