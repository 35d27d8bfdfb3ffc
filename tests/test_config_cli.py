"""Config validation, CLI determinism and the import path."""

import argparse
import ast
import builtins
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from afpa_sim import cli, drivers, planner, rig
from afpa_sim.cli import _SUBCOMMANDS, build_parser, main
from afpa_sim.config import (
    ConfigError,
    RunConfig,
    SweepSettings,
    canonical_form,
    default_config_path,
    load_config,
    parse_config,
)
from afpa_sim.pneumatics import DT_MAX_S
from afpa_sim.rig import PRESSURE_MAX_KPA
from afpa_sim.study import StudyDomainError, TrialRecord, box_stats


@pytest.fixture()
def default_doc():
    return json.loads(default_config_path().read_text())


def test_default_config_loads_and_round_trips(default_doc):
    config = parse_config(default_doc)
    canon = canonical_form(config)
    assert parse_config(canon) == config
    assert canonical_form(parse_config(canon)) == canon


def test_missing_belt_span_named(default_doc):
    del default_doc["rig"]["belt_span"]
    with pytest.raises(ConfigError, match=r"rig\.belt_span"):
        parse_config(default_doc)


def test_unknown_key_rejected(default_doc):
    default_doc["rig"]["belt_spam"] = 1.0
    with pytest.raises(ConfigError, match="belt_spam"):
        parse_config(default_doc)


def test_unknown_nested_key_rejected(default_doc):
    default_doc["study"]["responder"]["extra"] = 1
    with pytest.raises(ConfigError, match=r"study\.responder.*extra"):
        parse_config(default_doc)


@pytest.mark.parametrize("path", [(), ("units",), ("planner",), ("valves",),
                                  ("valves", "morphing"), ("study", "responder")])
def test_unknown_key_named_in_each_object(default_doc, path):
    # each object allows its dataclass's field names, the root also planner
    # and units, and the valve pair modulating and morphing
    node = default_doc
    for key in path:
        node = node[key]
    node["zz"] = 1
    where = ".".join(path) or "<root>"
    with pytest.raises(ConfigError, match=rf"^unknown keys in {where}: zz$"):
        parse_config(default_doc)


def test_pa_units_normalized(default_doc):
    kpa = parse_config(default_doc)
    default_doc["units"]["pressure"] = "Pa"
    for valve in default_doc["valves"].values():
        valve["supply_pressure"] *= 1e3
        valve["exhaust_pressure"] *= 1e3
    default_doc["planner"]["bounds"] = [v * 1e3 for v in default_doc["planner"]["bounds"]]
    default_doc["planner"]["max_characterized_p2"] *= 1e3
    default_doc["sweep"]["p2_levels"] = [v * 1e3 for v in default_doc["sweep"]["p2_levels"]]
    default_doc["sweep"]["p1_max"] *= 1e3
    default_doc["sweep"]["p1_step"] *= 1e3
    pa = parse_config(default_doc)
    assert pa.valves == kpa.valves
    assert pa.bounds == kpa.bounds
    assert pa.sweep == kpa.sweep


def test_bad_unit_tag_rejected(default_doc):
    default_doc["units"]["pressure"] = "psi"
    with pytest.raises(ConfigError, match="units.pressure"):
        parse_config(default_doc)


def test_wrong_type_named(default_doc):
    default_doc["rig"]["modulating"]["flat_width"] = "wide"
    with pytest.raises(ConfigError, match=r"rig\.modulating\.flat_width"):
        parse_config(default_doc)


def test_invalid_json_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "units": oops\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_invalid_bounds_rejected(default_doc):
    default_doc["planner"]["bounds"] = [100.0, 50.0, 0.0, 150.0]
    with pytest.raises(ConfigError, match=r"planner\.bounds"):
        parse_config(default_doc)


def test_packaged_config_is_canonical(default_doc):
    assert canonical_form(load_config(default_config_path())) == default_doc


def test_second_load_resolves_no_field_type(monkeypatch):
    # each dataclass's field types are resolved once per process: resolving
    # them compiles each string annotation, and a later load compiles nothing
    first = load_config(default_config_path())
    compiled = []

    def counting_compile(*args, **kwargs):
        compiled.append(args[0])
        return real_compile(*args, **kwargs)

    real_compile = builtins.compile
    monkeypatch.setattr(builtins, "compile", counting_compile)
    assert load_config(default_config_path()) == first
    assert compiled == []


def test_planner_key_at_root_rejected(default_doc):
    default_doc["probe_depth"] = default_doc["planner"].pop("probe_depth")
    with pytest.raises(ConfigError, match=r"unknown keys in <root>: probe_depth"):
        parse_config(default_doc)


@pytest.mark.parametrize("section, key, value, path", [
    ("planner", "bounds", [0.0, PRESSURE_MAX_KPA + 1.0, 0.0, 100.0], r"planner\.bounds"),
    ("step", "dt", 2.0 * DT_MAX_S, r"step: dt"),
    ("step", "t_end", 1e18, r"step: t_end"),
    ("sweep", "p1_step", 1e-6, r"sweep: p1_max / p1_step"),
    ("sweep", "probe_rate", 1e-9, r"sweep: compression_depth \* sample_rate / probe_rate"),
    ("study", "reps", 10**15, r"study: 9 \* reps \* sessions"),
])
def test_physical_limit_rejected(default_doc, section, key, value, path):
    default_doc[section][key] = value
    with pytest.raises(ConfigError, match=path):
        parse_config(default_doc)


@pytest.mark.parametrize("field", ["reps", "sessions"])
@pytest.mark.parametrize("value", [2.5, True])
def test_study_settings_reject_a_count_that_is_not_an_int(field, value):
    # the loader rejects these, but a config built in Python took them: 2.5 failed in
    # run_study as a bare TypeError, reps=True wrote logs that study-analyze refused
    # and sessions=True ran one session
    study = load_config(default_config_path()).study
    with pytest.raises(ValueError, match=f"{field} {value!r} must be a positive integer"):
        replace(study, **{field: value})


@pytest.mark.parametrize("path, value, message", [
    pytest.param((), [], "<root>: expected an object, got list", id="root"),
    pytest.param(("study", "sizes"), 55.0, r"study\.sizes: expected an array of numbers",
                 id="array"),
    pytest.param(("study", "sizes"), [55.0, 75.0], r"study\.sizes: expected 3 values, got 2",
                 id="length"),
])
def test_shape_errors_named(default_doc, path, value, message):
    if path:
        default_doc[path[0]][path[1]] = value
    with pytest.raises(ConfigError, match=message):
        parse_config(default_doc if path else value)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


def _dotted(path) -> str:
    """The field path as a ConfigError names it, e.g. planner.bounds[1]."""
    out = ""
    for p in path:
        out += f"[{p}]" if isinstance(p, int) else (f".{p}" if out else p)
    return out


PACKAGED_LEAVES = list(_leaf_paths(json.loads(default_config_path().read_text())))
ODD_VALUES = [math.nan, math.inf, -math.inf, "x", None, True, False, [1.0], {},
              -1.0, 0, -1e308, 1e308, 10**400, -(10**400)]


def assert_fails_closed(path, value) -> None:
    """parse_config with one leaf replaced returns a RunConfig or raises ConfigError."""
    doc = json.loads(default_config_path().read_text())
    node = doc
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value
    non_finite = isinstance(value, float) and not math.isfinite(value)
    try:
        config = parse_config(doc)
    except ConfigError as exc:
        assert not non_finite or _dotted(path) in str(exc)
    else:
        assert isinstance(config, RunConfig)
        assert not non_finite


def test_parse_config_fails_closed_on_odd_leaves():
    for path in PACKAGED_LEAVES:
        for value in ODD_VALUES:
            assert_fails_closed(path, value)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(PACKAGED_LEAVES),
       value=st.one_of(st.floats(), st.integers(), st.text(), st.booleans(), st.none(),
                       st.lists(st.floats(), max_size=4)))
def test_parse_config_fuzz_fails_closed(path, value):
    assert_fails_closed(path, value)

# --- CLI -------------------------------------------------------------------

def run_cli(args, capsys) -> list[Path]:
    assert main(args) == 0
    out = capsys.readouterr().out
    return [Path(line) for line in out.strip().splitlines()]


def read_all(paths) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("command", ["plan", "feasibility", "characterize-size"])
def test_cli_rerun_byte_identical(command, tmp_path, capsys):
    a = run_cli([command, "--seed", "7", "--out", str(tmp_path / "a")], capsys)
    b = run_cli([command, "--seed", "7", "--out", str(tmp_path / "b")], capsys)
    assert read_all(a) == read_all(b)


def test_cli_study_pipeline_byte_identical(tmp_path, capsys):
    for d in ("a", "b"):
        run_cli(["study-run", "--seed", "9", "--out", str(tmp_path / d)], capsys)
        run_cli(["study-analyze", "--seed", "9", "--out", str(tmp_path / d)], capsys)
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_cli_study_analyze_pools_the_sessions(tmp_path, capsys):
    # fig5e's boxes hold every session's response times to a state
    cfg = write_config(tmp_path, study={"sessions": 3, "reps": 4})
    run_cli(["study-run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    run_cli(["study-analyze", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    times = {}
    for log in tmp_path.glob("trials_s*.jsonl"):
        for doc in map(json.loads, log.read_text().splitlines()):
            times.setdefault(doc["presented"], []).append(doc["response_time_s"])
    expected = []
    for sid in range(1, 10):
        b = box_stats(times[sid])
        values = (sid, b.median, b.q1, b.q3, b.whisker_low, b.whisker_high)
        expected.append(",".join("%.12g" % v for v in values))
    assert (tmp_path / "fig5e.csv").read_text().splitlines()[1:] == expected


def test_cli_study_run_plans_each_state_once(tmp_path, capsys, monkeypatch):
    plan_state, calls = planner.plan_state, []
    monkeypatch.setattr(planner, "plan_state", lambda *a: calls.append(a) or plan_state(*a))
    study = read_all(run_cli(["study-run", "--out", str(tmp_path / "study")], capsys))
    assert len(calls) == 9
    plan = read_all(run_cli(["plan", "--out", str(tmp_path / "plan")], capsys))
    assert plan == {name: study[name] for name in plan}


def test_cli_stiffness_solves_each_level_once(tmp_path, capsys, monkeypatch):
    # each of the 4 levels solves its equilibrium once, and each depth one
    # probe balance that gives both its force and its stiffness row. Solving
    # the equilibrium again for each of the 640 rows took 652 solves and 4,524
    # side forces; solving each row's probe balance twice took 8 and 2,584
    calls = {"_side_force": 0, "solve_equilibrium": 0}
    for name in calls:
        def counted(*args, name=name, f=getattr(rig, name), **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(rig, name, counted)
    monkeypatch.setattr(drivers, "solve_equilibrium", rig.solve_equilibrium)
    run_cli(["characterize-stiffness", "--out", str(tmp_path)], capsys)
    assert calls["solve_equilibrium"] <= 4
    assert calls["_side_force"] <= 1316


def public_view_stiffness_rows(config: RunConfig) -> tuple[list, list]:
    """fig3a's and fig3b's rows built from ``force_displacement_curve``, one call per level,
    and ``stiffness``, one call per row, where it accepts the depth."""
    sweep = config.sweep
    depth_step = sweep.probe_rate / sweep.sample_rate
    force_rows, stiff_rows = [], []
    for p2 in drivers._stiffness_levels(config):
        eq = rig.solve_equilibrium(config.rig, 0.0, p2)
        max_depth = min(sweep.compression_depth, max(depth_step, eq.h2 - 1.0))
        n = int(round(max_depth / depth_step))
        curve = rig.force_displacement_curve(config.rig, 0.0, p2, n * depth_step, depth_step)
        for (d, f_load), (_, f_unload) in zip(curve[: n + 1], curve[n + 1:][::-1]):
            force_rows.append((p2, d, f_load, f_unload))
            try:
                stiff_rows.append((p2, d, rig.stiffness(config.rig, 0.0, p2, eq.h2 - d)))
            except rig.RigDomainError:
                pass
    return force_rows, stiff_rows


@pytest.mark.parametrize("compliance", [None, 0.3])
def test_stiffness_rows_match_the_public_probe_views(compliance, tmp_path, monkeypatch):
    # one probe record per depth gives both rows bit for bit, on the packaged
    # rigid belt and on a compliant copy
    config = load_config(default_config_path())
    if compliance is not None:
        config = replace(config, rig=replace(config.rig, belt_compliance=compliance))
    written = {}
    monkeypatch.setattr(drivers, "_write_csv",
                        lambda path, header, rows: written.setdefault(path.name, rows))
    drivers.run_characterize_stiffness(config, 0, tmp_path)
    expected = public_view_stiffness_rows(config)
    assert len(expected[1]) > 600
    assert repr((written["fig3a.csv"], written["fig3b.csv"])) == repr(expected)


def per_row_csv(header, rows) -> str:
    """CSV text by the per-row rule: each row's cells formatted by their own types."""
    lines = [",".join(header)]
    for row in rows.tolist() if hasattr(rows, "tolist") else rows:
        lines.append(",".join([("%s" if isinstance(v, str) else "%.12g") % v for v in row]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [
    np.array([[0.0, 1.0 / 3.0, -2.5e-300], [1e300, 123456789.123456789, 7.0]]),
    [(1, "small", "soft", 0.27, 30.0), (9, "large", "stiff", 1.0 / 3.0, 2 ** 40)],
    [[i + 1] + list(np.array([0.1, 0.2 / 3.0, 0.0])) for i in range(3)],  # fig5c's float64
    [(1, 2), (-3, 10 ** 15)],
    [],
], ids=["array", "text", "float64", "ints", "none"])
def test_write_csv_matches_the_per_row_rule(rows, tmp_path):
    # one format for the whole file, from the first row's column kinds; no rows
    # give the header alone
    header = ("a_mm", "b_s", "c_N")
    path = drivers._write_csv(tmp_path / "t.csv", header, rows)
    assert path.read_bytes() == per_row_csv(header, rows).encode()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 6))))
@example(np.array([[-0.0, 5e-324, 1e300], [-1e300, 2.2250738585072014e-308, -5e-324]]))
@example(np.zeros((0, 5)))
def test_write_csv_array_matches_its_rows_as_a_list(rows):
    # an array's cells, taken in one ravel().tolist(), print as its rows do
    header = [f"c{j}_mm" for j in range(rows.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        as_array = drivers._write_csv(Path(tmp) / "a.csv", header, rows).read_bytes()
        as_list = drivers._write_csv(Path(tmp) / "b.csv", header, rows.tolist()).read_bytes()
    assert as_array == as_list


def test_cli_stiffness_depth_past_equilibrium_exit_2(tmp_path, capsys):
    # a 120 mm probe step passes every equilibrium height below the 103 mm
    # belt span, where force_displacement_curve's max_depth check fails closed
    cfg = write_config(tmp_path, sweep={"probe_rate": 1920.0, "compression_depth": 120.0})
    err = assert_user_error(["characterize-stiffness", "--config", str(cfg),
                             "--out", str(tmp_path)], capsys)
    assert "max_depth 120.0 mm exceeds equilibrium height" in err


def count_side_forces(monkeypatch) -> dict:
    calls = {"_side_force": 0}

    def counted(*args, f=rig._side_force):
        calls["_side_force"] += 1
        return f(*args)
    monkeypatch.setattr(rig, "_side_force", counted)
    return calls


def test_cli_size_warm_starts_each_solve(tmp_path, capsys, monkeypatch):
    # each p1 step starts from the step before: cold, the two solves per row
    # of fig2c.csv took 3,706 side forces
    calls = count_side_forces(monkeypatch)
    run_cli(["characterize-size", "--out", str(tmp_path)], capsys)
    assert calls["_side_force"] <= 1984


def test_cli_feasibility_warm_starts_each_cell(tmp_path, capsys, monkeypatch):
    # each cell of figs4b.csv starts from the h2 of the one before; cold, the
    # 625 cells took 10,512 side forces
    calls = count_side_forces(monkeypatch)
    run_cli(["feasibility", "--out", str(tmp_path)], capsys)
    assert calls["_side_force"] <= 6228


def test_cli_plan_seeds_from_the_height_contour(tmp_path, capsys, monkeypatch):
    # each state's seed is a root of the stiffness along its height's contour,
    # exact on the packaged rigid belt; the anti-diagonal height root and its
    # rescaled seed took 828 side forces
    calls = count_side_forces(monkeypatch)
    run_cli(["plan", "--out", str(tmp_path)], capsys)
    assert calls["_side_force"] <= 90


def loaded_after(code: str, package: str) -> list[str]:
    """The modules of ``package`` in sys.modules after a fresh interpreter runs ``code``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += f"\nimport sys; print(repr([m for m in sys.modules if m.split('.')[0] == {package!r}]))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    # scipy is imported on first use, by t_test_independent
    assert loaded_after("import afpa_sim", "scipy") == []


def test_import_and_config_leave_numpy_unloaded():
    # the pouch, rig and planner kernels are scalar math, and the planner's grids are
    # lists of floats; numpy loads where arrays are built
    code = "import afpa_sim; afpa_sim.load_config(afpa_sim.default_config_path())"
    assert loaded_after(code, "numpy") == []


def cli_code(command: str, out: Path) -> str:
    return f"from afpa_sim.cli import main; assert main([{command!r}, '--out', {str(out)!r}]) == 0"


@pytest.mark.parametrize("command", ["plan", "characterize-size", "characterize-stiffness",
                                     "feasibility", "study-analyze"])
def test_scalar_subcommands_leave_numpy_unloaded(command, tmp_path):
    # the packaged plans converge from their seeds and never reach the planner's
    # grid, the feasibility map's axes are the planner's float linspace, and
    # study-analyze's statistics are floats; study-run, which draws its sessions
    # from numpy's Generator, writes the logs in an interpreter of its own
    if command == "study-analyze":
        loaded_after(cli_code("study-run", tmp_path), "numpy")
    assert loaded_after(cli_code(command, tmp_path), "numpy") == []
    assert list(tmp_path.iterdir())


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_subcommands_leave_scipy_unloaded(command, tmp_path):
    # no subcommand fits a model or runs a t-test; study-analyze reads study-run's logs
    code = cli_code(command, tmp_path)
    if command == "study-analyze":
        code = cli_code("study-run", tmp_path) + "\n" + code
    assert loaded_after(code, "scipy") == []


def test_step_loads_numpy_and_writes_its_csvs(tmp_path):
    assert "numpy" in loaded_after(cli_code("step", tmp_path), "numpy")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig2d.csv", "fig2d_16hz.csv", "fig2e.csv", "fig2e_16hz.csv"]


def nested_parser() -> argparse.ArgumentParser:
    """The CLI's parser as it was before one parser took every subcommand: a subparser
    per subcommand, each with the three options."""
    parser = argparse.ArgumentParser(prog="afpa-sim")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, required=True)
    return parser


# the invocations of README's CLI section
README_ARGV = [
    "characterize-size --out out/",
    "characterize-stiffness --out out/",
    "step --out out/",
    "plan --out out/",
    "feasibility --out out/",
    "study-run --seed 42 --out out/",
    "study-analyze --out out/",
    "plan --config my.json --out out/",
]


@pytest.mark.parametrize("argv", README_ARGV)
def test_cli_parses_each_invocation_as_before(argv):
    # the same command, config, seed and out, with the options after the command
    # or before it
    args = argv.split()
    before = vars(nested_parser().parse_args(args))
    assert vars(build_parser().parse_args(args)) == before
    assert vars(build_parser().parse_args(args[1:] + args[:1])) == before


@pytest.mark.parametrize("argv", [["plan"], ["--out", "out"], ["plot", "--out", "out"], []],
                         ids=["no-out", "no-command", "unknown-command", "nothing"])
def test_cli_usage_error_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: afpa-sim" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_cli_subcommand_help_lists_the_options(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(option in out for option in ("--config", "--seed", "--out"))


def test_main_reads_each_invocation_as_a_fresh_parser(monkeypatch, tmp_path):
    # main parses with one parser built at import: call after call, with the
    # options after the command or before it, it hands the subcommand what a
    # freshly built parser reads, and no earlier call's --config or --seed
    # carries over
    calls = []
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_config", lambda path: path)
    for name in _SUBCOMMANDS:
        monkeypatch.setitem(_SUBCOMMANDS, name,
                            lambda *args, name=name: calls.append((name, *args)) or [])
    invocations = [argv.split() for argv in README_ARGV]
    invocations += [args[1:] + args[:1] for args in invocations]
    for args in invocations + invocations[::-1]:
        calls.clear()
        assert main(args) == 0
        fresh = build_parser().parse_args(args)
        assert calls == [(fresh.command, fresh.config or default_config_path(), fresh.seed,
                          fresh.out)]


def test_main_builds_no_parser(monkeypatch, tmp_path, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert "u64" in assert_user_error(["plan", "--seed", "-1", "--out", str(tmp_path)], capsys)


def test_cli_headers_unit_suffixed(tmp_path, capsys):
    paths = run_cli(["characterize-size", "--out", str(tmp_path)], capsys)
    header = paths[0].read_text().splitlines()[0]
    for col in header.split(","):
        assert any(col.endswith(s) for s in ("_kPa", "_mm", "_s", "_N", "_N_per_mm"))


def test_cli_study_analyze_without_logs_fails(tmp_path, capsys):
    assert main(["study-analyze", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("out", ["taken", "taken/below"])
def test_cli_out_under_a_file_fails(out, tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    assert main(["plan", "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["plan", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_16hz_row_count(tmp_path, capsys):
    paths = run_cli(["step", "--out", str(tmp_path)], capsys)
    config = load_config(default_config_path())
    resampled = [p for p in paths if p.name.endswith("_16hz.csv")]
    assert resampled
    for p in resampled:
        rows = p.read_text().strip().splitlines()
        assert len(rows) - 1 == int(config.step.t_end * 16) + 1


def test_cli_zero_pressure_stiffness_forces_zero(tmp_path, capsys):
    doc = json.loads(default_config_path().read_text())
    doc["sweep"]["p2_levels"] = [0.0]
    doc["planner"]["max_characterized_p2"] = 0.001
    doc["rig"]["friction_force"] = 0.0
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc))
    paths = run_cli(["characterize-stiffness", "--config", str(cfg),
                     "--out", str(tmp_path)], capsys)
    fig3a = [p for p in paths if p.name == "fig3a.csv"][0]
    rows = fig3a.read_text().strip().splitlines()[1:]
    zero_rows = [r for r in rows if r.split(",")[0] == "0"]
    assert zero_rows
    for row in zero_rows:
        _, _, f_load, f_unload = row.split(",")
        assert float(f_load) == 0.0
        assert float(f_unload) == 0.0


def write_config(tmp_path, **sections) -> Path:
    """The packaged config with the given sections' keys replaced."""
    doc = json.loads(default_config_path().read_text())
    for section, edits in sections.items():
        doc[section].update(edits)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def assert_user_error(args, capsys) -> str:
    assert main(args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("seed", [2**64, -1])
def test_cli_seed_outside_u64_exit_2(seed, tmp_path, capsys):
    out = tmp_path / "out"
    assert "u64" in assert_user_error(["plan", "--seed", str(seed), "--out", str(out)], capsys)
    assert not out.exists()
    run_cli(["plan", "--seed", str(2**64 - 1), "--out", str(out)], capsys)  # the largest


@pytest.mark.parametrize("command", ["plan", "study-run"])
def test_cli_unreachable_sizes_exit_2(command, tmp_path, capsys):
    cfg = write_config(tmp_path, study={"sizes": [20.0, 75.0, 140.0]})
    assert_user_error([command, "--config", str(cfg), "--out", str(tmp_path)], capsys)


def test_cli_study_analyze_reps_mismatch_exit_2(tmp_path, capsys):
    run_cli(["study-run", "--config", str(write_config(tmp_path, study={"sessions": 1})),
             "--out", str(tmp_path)], capsys)
    cfg = write_config(tmp_path, study={"sessions": 1, "reps": 7})  # 90 trials, 7 per segment
    assert_user_error(["study-analyze", "--config", str(cfg), "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("line", ['{"trial_index": 1}', "not json"])
def test_cli_study_analyze_malformed_log_exit_2(line, tmp_path, capsys):
    (tmp_path / "trials_s00.jsonl").write_text(line + "\n", encoding="utf-8")
    assert "trials_s00.jsonl:1" in assert_user_error(["study-analyze", "--out", str(tmp_path)],
                                                     capsys)


def test_cli_study_analyze_stale_or_missing_log_exit_2(tmp_path, capsys):
    # a 10-session run, then a 3-session one into the same directory: the
    # analysis pooled all 10 logs, 7 of them left from the first run
    run_cli(["study-run", "--seed", "1", "--out", str(tmp_path)], capsys)
    cfg = write_config(tmp_path, study={"sessions": 3})
    run_cli(["study-run", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path)], capsys)
    analyze = ["study-analyze", "--config", str(cfg), "--out", str(tmp_path)]
    assert "trials_s03.jsonl" in assert_user_error(analyze, capsys)
    assert not (tmp_path / "study_summary.json").exists()
    for log in tmp_path.glob("trials_s*.jsonl"):
        if log.name > "trials_s02.jsonl":
            log.unlink()
    run_cli(analyze, capsys)
    assert json.loads((tmp_path / "study_summary.json").read_text())["sessions"] == 3
    (tmp_path / "trials_s01.jsonl").unlink()
    assert "trials_s01.jsonl" in assert_user_error(analyze, capsys)


@pytest.mark.parametrize("log, edit", [
    ("trials_s00.jsonl", lambda lines: lines * 2), ("trials_s04.jsonl", lambda lines: lines * 2),
    ("trials_s02.jsonl", lambda lines: lines[:5] + lines[6:7] + lines[6:]),
], ids=["s00-twice", "s04-twice", "s02-trial-7-over-6"])
def test_cli_study_analyze_rejects_a_log_that_is_not_one_session(log, edit, tmp_path, capsys):
    # each line is a valid record: a log written twice ended in an IndexError
    # at s00 and passed at s04, and a trial lost to its neighbour's copy passed
    run_cli(["study-run", "--seed", "3", "--out", str(tmp_path)], capsys)
    path = tmp_path / log
    path.write_text("".join(edit(path.read_text(encoding="utf-8").splitlines(keepends=True))),
                    encoding="utf-8")
    assert log in assert_user_error(["study-analyze", "--out", str(tmp_path)], capsys)
    assert not (tmp_path / "study_summary.json").exists()


# response times that print in exponent form, and u64 seeds at both ends
TIMES = st.sampled_from([1e-05, 1.5e+16, 1e-09, 2.0]) | st.floats(1e-9, 1e17)


@settings(max_examples=200, deadline=None)
@given(seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
       trials=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9), TIMES), min_size=1,
                       max_size=12),
       segment_size=st.integers(1, 5))
def test_trial_log_lines_are_json_dumps(seed, trials, segment_size):
    # each line is json.dumps(..., sort_keys=True) byte for byte, and reads back
    # as the record it was written from, its time rounded to 9 decimals
    records = [TrialRecord(k, presented, responded, time, math.ceil(k / segment_size), segment_size)
               for k, (presented, responded, time) in enumerate(trials, 1)]
    lines = drivers._records_to_lines(records, seed)
    assert lines == [json.dumps({"trial_index": r.trial_index, "presented": r.presented,
                                 "responded": r.responded, "segment": r.segment, "seed": seed,
                                 "response_time_s": round(r.response_time, 9)}, sort_keys=True)
                     for r in records]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "trials_s00.jsonl"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = drivers._load_records(log, segment_size)
    assert loaded == [replace(r, response_time=round(r.response_time, 9)) for r in records]


def keyword_load_records(path: Path, segment_size: int) -> list[TrialRecord]:
    """``drivers._load_records`` as it was when it built each record by keyword."""
    if not path.is_file():
        raise StudyDomainError(f"{path}: missing trial log")
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                records.append(TrialRecord(
                    trial_index=doc["trial_index"],
                    presented=doc["presented"],
                    responded=doc["responded"],
                    response_time=doc["response_time_s"],
                    segment=doc["segment"],
                    segment_size=segment_size,
                ))
            except (ValueError, KeyError, TypeError) as exc:
                raise StudyDomainError(f"{path}:{number}: bad trial record: {exc!r}") from None
    return records


def load_outcome(reader, path: Path, segment_size: int):
    """The records ``reader`` accepts from a log, or the message it rejects the log with."""
    try:
        return reader(path, segment_size)
    except StudyDomainError as exc:
        return str(exc)


RECORD_KEYS = ("trial_index", "presented", "responded", "response_time_s", "segment")
RECORD_ODD_VALUES = st.sampled_from([True, False, None, "3", [], {}, 0, -1, 10, 1.5, 2.0,
                                     -2.0, 0.0, math.nan, math.inf])
# JSON and Unicode whitespace, and \r, which the reader takes as a line end
BLANK = st.text(alphabet=" \t\r\x0b\x0c\x85\xa0\u2028\u3000", max_size=4)


@st.composite
def log_line(draw, segment_size: int, kinds: list[str]) -> str:
    """One line of a trial log, of one of ``kinds``: a record, a blank line, or each kind
    of line the reader rejects (a record that fails its checks among them)."""
    k = draw(st.integers(1, 30))
    doc = {"trial_index": k, "presented": draw(st.integers(1, 9)),
           "responded": draw(st.integers(1, 9)), "response_time_s": draw(TIMES),
           "segment": math.ceil(k / segment_size), "seed": draw(st.integers(0, 2**64 - 1))}
    kind = draw(st.sampled_from(kinds))
    if kind == "missing":
        del doc[draw(st.sampled_from(RECORD_KEYS))]
    elif kind == "value":
        doc[draw(st.sampled_from(RECORD_KEYS))] = draw(RECORD_ODD_VALUES)
    elif kind == "segment":
        doc["segment"] += draw(st.sampled_from([-1, 1]))
    line = json.dumps(doc, sort_keys=True)
    if kind == "not-object":
        return json.dumps(draw(st.sampled_from([[1, 2], 3, "record", None, 2.5])))
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "cut":
        return line[:draw(st.integers(0, len(line) - 1))]
    if kind == "bom":
        return "\ufeff" + line
    if kind == "indented":  # JSON whitespace or not before a record, or one cut at its start
        return draw(BLANK) + line[draw(st.integers(0, 1)):]
    if kind == "blank":
        return draw(BLANK)
    return line


@st.composite
def trial_log(draw) -> tuple[list[str], int]:
    """Records and blank lines, with at most one other line among them."""
    segment_size = draw(st.integers(1, 12))
    lines = draw(st.lists(log_line(segment_size, ["record", "record", "blank"]), max_size=12))
    if draw(st.booleans()):
        bad = log_line(segment_size, ["missing", "value", "segment", "not-object", "text",
                                      "cut", "bom", "indented"])
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    return lines, segment_size


@settings(max_examples=300, deadline=None)
@given(log=trial_log(), end=st.sampled_from(["\n", "", "\r\n", "\n  "]))
@example(log=(['{"presented": 3, "responded": 5, "response_time_s": 2.5, "seed": 0, '
               '"segment": 1, "trial_index": 1}'], 1), end="\n")
@example(log=(['{"presented": 3, "responded": 3, "response_time_s": 2.5, "seed": 0, '
               '"trial_index": 1}'], 1), end="\n")
@example(log=(["\ufeff{}"], 1), end="\n")
@example(log=(["", " \t", "  nope"], 1), end="\n")
@example(log=(['{"presented": 3, "responded": 3, "response_time_s": "2.5", "seed": 0, '
               '"segment": 1, "trial_index": 1}'], 1), end="\n")
def test_load_records_matches_the_keyword_reader(log, end):
    # the same records accepted, or the same rejection, naming the same path:line
    lines, segment_size = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials_s00.jsonl"
        path.write_text("\n".join(lines) + end, encoding="utf-8", newline="")
        assert (load_outcome(drivers._load_records, path, segment_size)
                == load_outcome(keyword_load_records, path, segment_size))


def test_study_analyze_skips_blank_lines(tmp_path, capsys):
    # blank and whitespace-only lines between a log's records change no
    # artifact, and a bad line after them is named by its own line number
    cfg = write_config(tmp_path, study={"sessions": 2, "reps": 2})
    plain, spaced = tmp_path / "plain", tmp_path / "spaced"
    run_cli(["study-run", "--config", str(cfg), "--out", str(plain)], capsys)
    run_cli(["study-run", "--config", str(cfg), "--out", str(spaced)], capsys)
    log = spaced / "trials_s00.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1:1] = ["\n", " \t \n", "\u3000\n"]
    log.write_text("".join(lines) + "  ", encoding="utf-8")
    analyze = ["study-analyze", "--config", str(cfg), "--out"]
    expected = read_all(run_cli(analyze + [str(plain)], capsys))
    assert read_all(run_cli(analyze + [str(spaced)], capsys)) == expected
    lines[5:5] = ["not json\n"]
    log.write_text("".join(lines), encoding="utf-8")
    assert "trials_s00.jsonl:6: bad trial record" in assert_user_error(analyze + [str(spaced)],
                                                                      capsys)


def numpy_study_analysis(per_session: list[list[TrialRecord]], reps: int):
    """fig5c's, fig5d's and fig5fg's rows and the summary's statistics, from numpy's
    arrays, means and standard deviations, as study-analyze once computed them."""
    confusions = []
    for recs in per_session:
        counts = np.zeros((9, 9))
        for r in recs:
            counts[r.presented - 1, r.responded - 1] += 1.0
        confusions.append(counts / counts.sum(axis=1)[:, None])
    confusion = np.mean(confusions, axis=0)
    segments = [[(sum(r.responded == r.presented for r in recs[k : k + reps]) / reps,
                  float(np.mean([r.response_time for r in recs[k : k + reps]])))
                 for k in range(0, len(recs), reps)] for recs in per_session]
    overall = [sum(r.responded == r.presented for r in recs) / len(recs) for recs in per_session]
    rows = {
        "fig5c.csv": [[i + 1] + list(confusion[i]) for i in range(9)],
        "fig5d.csv": [(i + 1, float(np.mean([c[i, i] for c in confusions])),
                       float(np.std([c[i, i] for c in confusions]))) for i in range(9)],
        "fig5fg.csv": [(seg, *(float(np.mean(col)) for col in zip(*blocks)))
                       for seg, blocks in enumerate(zip(*segments), 1)],
    }
    summary = {
        "overall_accuracy_mean": float(np.mean(overall)),
        "overall_accuracy_std": float(np.std(overall)),
        "mean_response_time_s": float(np.mean([r.response_time for recs in per_session
                                               for r in recs])),
    }
    return rows, summary


@settings(max_examples=30, deadline=None)
@given(sessions=st.integers(1, 12), reps=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(sessions=10, reps=10, seed=7)
def test_study_analyze_matches_numpy(sessions, reps, seed):
    # the float statistics write what numpy's did, byte for byte, over random logs
    config = load_config(default_config_path())
    config = replace(config, study=replace(config.study, sessions=sessions, reps=reps))
    rnd = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for s in range(sessions):
            schedule = [sid for sid in range(1, 10) for _ in range(reps)]
            rnd.shuffle(schedule)
            records = [TrialRecord(k, sid, sid if rnd.random() < 0.8 else rnd.randint(1, 9),
                                   rnd.uniform(2.0, 12.0), math.ceil(k / reps), reps)
                       for k, sid in enumerate(schedule, 1)]
            lines = drivers._records_to_lines(records, seed + s)
            (out / f"trials_s{s:02d}.jsonl").write_text("\n".join(lines) + "\n")
        per_session = [drivers._load_records(out / f"trials_s{s:02d}.jsonl", reps)
                       for s in range(sessions)]
        drivers.run_study_analyze(config, seed, out)
        rows, summary = numpy_study_analysis(per_session, reps)
        for name, expected in rows.items():
            text = (out / name).read_text()
            assert text == per_row_csv(text.splitlines()[0].split(","), expected)
        written = json.loads((out / "study_summary.json").read_text())
    assert {key: written[key] for key in summary} == summary


@pytest.mark.parametrize("presented", [0, 12, "3"])
def test_cli_study_analyze_bad_state_id_exit_2(presented, tmp_path, capsys):
    # a state id of 0 was counted as state 9 (counts[-1]) and the analysis
    # exited 0; 12 and "3" ended in tracebacks
    run_cli(["study-run", "--out", str(tmp_path)], capsys)
    log = tmp_path / "trials_s00.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), "presented": presented}) + "\n"
    log.write_text("".join(lines), encoding="utf-8")
    assert "trials_s00.jsonl:1" in assert_user_error(["study-analyze", "--out", str(tmp_path)],
                                                     capsys)


@pytest.mark.parametrize("field, value", [
    ("p1_step", math.nan), ("p1_step", math.inf), ("p1_max", math.nan), ("p1_max", math.inf),
    ("p2_levels", (0.0, math.nan)), ("p2_levels", (math.inf,)), ("p2_levels", (-1.0,)),
    *[(f, v) for f in ("compression_depth", "probe_rate", "sample_rate")
      for v in (math.nan, math.inf, 0.0)],
])
def test_sweep_settings_reject_non_finite_fields(field, value):
    # a NaN p1_step or p2 level passed each comparison; the config reader
    # rejects non-finite numbers before these checks, so only the API saw it
    sweep = load_config(default_config_path()).sweep
    with pytest.raises(ValueError, match="p1_step|p2_levels|probe settings"):
        replace(sweep, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("probe_depth", math.nan), ("probe_depth", math.inf), ("probe_depth", 0.0),
    ("sizes", (math.nan, 70.0, 90.0)), ("sizes", (-5.0, 70.0, 90.0)),
    ("stiffnesses", (math.inf, 1.0, 2.0)), ("stiffnesses", (0.0, 1.0, 2.0)),
])
def test_run_and_study_settings_reject_out_of_model_fields(field, value):
    # the config reader rejects non-finite numbers before these checks, so
    # only a dataclass built in Python can carry a NaN or an infinity here
    config = load_config(default_config_path())
    with pytest.raises(ValueError, match=field):
        replace(config if field == "probe_depth" else config.study, **{field: value})
