import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import byzgrad.cli
import byzgrad.scenario_io
from byzgrad.cli import TRACE_HEADER, main
from byzgrad.protocol import ADVERSARY_KINDS
from byzgrad.scenario_io import ENV_SEED, TEMPLATES, build_template, dump_scenario


@pytest.fixture()
def small_scenario(tmp_path):
    mapping = build_template("redundant_quadratic", n=5, f=1, d=2, seed=21, horizon=60, record_every=1)
    path = tmp_path / "small.yaml"
    path.write_text(dump_scenario(mapping))
    return path


@pytest.fixture()
def singular_scenario(tmp_path):
    # all-zero Hessians: the honest sum has no unique minimizer
    mapping = build_template("violated_redundancy", horizon=20)
    for cost in mapping["ensemble"]["costs"]:
        cost["A"] = [[0.0]]
    path = tmp_path / "singular.yaml"
    path.write_text(dump_scenario(mapping))
    return path


# Agent 0 is flat, so the redundancy check does not apply, yet the honest
# sum is regular and every honest gradient vanishes at x* = 0.5.
INAPPLICABLE_REDUNDANCY = {
    "version": 1, "n": 3, "f": 1, "d": 1, "xi": 5.0, "seed": 0, "horizon": 5,
    "adversary": {"kind": "sign_flip"},
    "ensemble": {"costs": [{"A": [[0.0]], "b": [0.0]}] + [{"A": [[1.0]], "b": [0.5]}] * 2},
}


@pytest.fixture()
def inapplicable_redundancy_scenario(tmp_path):
    path = tmp_path / "inapplicable.yaml"
    path.write_text(dump_scenario(INAPPLICABLE_REDUNDANCY))
    return path


# Explicit costs whose constants overflow float64: one stiff honest cost
# makes zeta infinite; two make the honest Hessian sum infinite too.
def overflowing_costs(*stiff):
    return {
        "version": 1, "n": 3, "f": 1, "d": 1, "xi": 10.0, "seed": 0, "horizon": 5, "faulty_ids": [2],
        "adversary": {"kind": "sign_flip"},
        "ensemble": {"costs": [{"A": [[a]], "b": [0.0]} for a in (*stiff, 1.0)]},
    }


# Three identical costs and no faulty agent. With xi = 1e160 every constant
# is finite, but a squared distance in the box is not; with A = 1e150 at
# xi = 1e4, zeta = 3e154 is finite, but the squared norm it bounds is not.
def identical_costs(xi, a):
    return {
        "version": 1, "n": 3, "f": 0, "d": 1, "xi": xi, "seed": 1, "horizon": 20,
        "adversary": {"kind": "sign_flip"},
        "ensemble": {"costs": [{"A": [[a]], "b": [0.0]}] * 3},
    }


NON_FINITE = {
    "zeta_overflows": (overflowing_costs(1.0e308, 1.0), "error: constants are not finite: mu = 1e+308, "),
    "sum_overflows": (
        overflowing_costs(1.0e308, 1.0e308),
        "error: summed honest costs overflow float64\n",
    ),
    "distances_overflow": (
        identical_costs(1.0e160, 1.0e-11),
        "error: squared distances in the box overflow float64: d * (2 xi + max|x*|)^2 with d = 1, xi = 1e+160,",
    ),
    "zeta_squared_overflows": (
        identical_costs(1.0e4, 1.0e150),
        "error: zeta = 3e+154 bounds filtered-gradient norms whose squares overflow float64\n",
    ),
}


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# every template with each flag at 0, and with a negative half-width
GEN_REFUSALS = [
    (t, flag, "0") for t in TEMPLATES for flag in ("--xi", "--horizon", "--d", "--eig-min", "--record-every")
] + [(t, "--xi", "-1") for t in TEMPLATES]


class TestGen:
    def test_emits_parseable_scenario(self, capsys, tmp_path):
        assert main(["gen", "redundant_quadratic", "--n", "9", "--f", "2", "--d", "2", "--seed", "4", "--horizon", "30"]) == 0
        text = capsys.readouterr().out
        mapping = yaml.safe_load(text)
        assert mapping["n"] == 9 and mapping["f"] == 2
        path = tmp_path / "gen.yaml"
        path.write_text(text)
        assert main(["check", str(path)]) == 0

    def test_unknown_template_exits_2(self, capsys):
        assert main(["gen", "not_a_template"]) == 2
        assert "unknown template" in capsys.readouterr().err

    def test_bad_params_exit_2(self, capsys):
        assert main(["gen", "margin_negative", "--f", "0"]) == 2

    @pytest.mark.parametrize(
        "template, flag, value",
        GEN_REFUSALS,
        ids=[f"{t}-{flag}" + ("" if value == "0" else f"={value}") for t, flag, value in GEN_REFUSALS],
    )
    def test_prints_no_file_that_run_refuses(self, capsys, template, flag, value):
        assert main(["gen", template, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        # the refusal names the parameter, not a Python internal
        assert re.search(rf"\b{flag[2:].replace('-', '_')}\b", captured.err), captured.err

    @pytest.mark.parametrize("template", ["redundant_quadratic", "violated_redundancy"])
    def test_prints_no_file_whose_arithmetic_overflows(self, capsys, template):
        # the file parses; check's analysis refuses it, so gen prints nothing
        assert main(["gen", template, "--xi", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_refuses_a_d_whose_hessians_exceed_memory(self, capsys, template):
        tracemalloc.start()
        try:
            assert main(["gen", template, "--d", "100000000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: d = 100000000 is too large") and captured.err.count("\n") == 1
        assert peak < 2**20  # refused before anything of size d was drawn or built

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(d=1):
            raise MemoryError()

        monkeypatch.setitem(byzgrad.scenario_io._TEMPLATE_BUILDERS, "violated_redundancy", exhausted)
        assert main(["gen", "violated_redundancy", "--d", "100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"


class TestRun:
    def test_writes_trace_and_summary(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(small_scenario), "-o", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 62  # header + rows 0..60
        summary = read_summary(out)
        assert summary["rounds"] == 60
        assert summary["redundancy_ok"] is True
        assert summary["preconditions_ok"] is True
        assert summary["warnings"] == []  # the healthy template warns about nothing
        assert len(summary["digest"]) == 64

    def test_same_file_twice_identical_bytes(self, small_scenario, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(small_scenario), "-o", str(out_a)]) == 0
        assert main(["run", str(small_scenario), "-o", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert read_summary(out_a)["digest"] == read_summary(out_b)["digest"]

    def test_seventeen_digit_floats_round_trip(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        main(["run", str(small_scenario), "-o", str(out)])
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        eta_at_2 = float(rows[2].split(",")[1])
        assert eta_at_2 == 1.0 / 3.0  # exact round-trip of the stored float

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        mapping = build_template("redundant_quadratic", n=5, f=1, d=1, seed=0, horizon=10)
        mapping["n"] = 4
        mapping["f"] = 2
        mapping["faulty_ids"] = [2, 3]
        mapping["ensemble"]["generator"]["x_star"] = [0.0]
        path = tmp_path / "bad.yaml"
        path.write_text(dump_scenario(mapping))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "n >= 2f+1" in capsys.readouterr().err

    def test_singular_honest_sum_exits_2(self, singular_scenario, tmp_path, capsys):
        assert main(["run", str(singular_scenario), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no unique minimizer" in err
        assert err.count("\n") == 1

    def test_abort_exits_3(self, tmp_path, capsys):
        text = """\
version: 1
n: 5
f: 1
d: 1
xi: 1.0
seed: 2
horizon: 10
faulty_ids: [4]
adversary: {kind: norm_inflate, scale: 1.0e+14}
ensemble:
  costs:
    - {A: [[1.0]], b: [0.9]}
    - {A: [[1.0]], b: [0.9]}
    - {A: [[1.0]], b: [0.9]}
    - {A: [[1.0]], b: [0.9]}
    - {A: [[1.0]], b: [0.9]}
"""
        path = tmp_path / "abort.yaml"
        path.write_text(text)
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 3
        assert "round 0" in capsys.readouterr().err

    def test_overflowing_step_aborts_without_a_warning(self, tmp_path, capsys):
        assert main(["gen", "redundant_quadratic", "--n", "4", "--f", "1", "--d", "2", "--horizon", "5", "--eta0", "1e308"]) == 0
        path = tmp_path / "overflow.yaml"
        path.write_text(capsys.readouterr().out)
        # the warning filter turns any numpy RuntimeWarning into an error here
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err == "aborted: round 0: agent 0: point has non-finite coordinates\n"

    def test_zeta_bound_above_vertex_limit(self, tmp_path, capsys):
        mapping = build_template("redundant_quadratic", n=3, f=1, d=21, horizon=5)
        path = tmp_path / "wide.yaml"
        path.write_text(dump_scenario(mapping))
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 0
        summary = read_summary(out)
        assert summary["zeta_exact"] is False
        assert any("analytic upper bound" in w for w in summary["warnings"])
        assert main(["check", str(path)]) == 0
        assert re.search(r"^zeta = \S+ \(upper bound\)$", capsys.readouterr().out, re.MULTILINE)

    def test_record_every_override(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        main(["run", str(small_scenario), "-o", str(out), "--record-every", "30"])
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [0, 30, 60]

    def test_env_seed_changes_digest(self, small_scenario, tmp_path, monkeypatch):
        out_a = tmp_path / "a"
        main(["run", str(small_scenario), "-o", str(out_a)])
        monkeypatch.setenv(ENV_SEED, "12345")
        out_b = tmp_path / "b"
        main(["run", str(small_scenario), "-o", str(out_b)])
        assert read_summary(out_a)["digest"] != read_summary(out_b)["digest"]
        assert read_summary(out_b)["seed"] == 12345

    def test_env_seed_must_be_integer(self, small_scenario, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_SEED, "not-a-number")
        assert main(["run", str(small_scenario), "-o", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_env_seed_outside_64_bits_exits_2(self, small_scenario, tmp_path, monkeypatch, capsys, command, seed):
        monkeypatch.setenv(ENV_SEED, seed)
        argv = [command, str(small_scenario)] + (["-o", str(tmp_path / "out")] if command == "run" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must lie in 0..2**64-1, got {seed}\n"


class TestCheck:
    def test_reports_constants_and_verdicts(self, small_scenario, capsys):
        assert main(["check", str(small_scenario)]) == 0
        out = capsys.readouterr().out
        assert "n = 5" in out
        assert "alpha = " in out
        assert "redundancy: OK" in out
        assert "convergence preconditions: OK" in out
        assert "digest: " in out

    def test_margin_negative_verdict(self, tmp_path, capsys):
        mapping = build_template("margin_negative", horizon=20)
        path = tmp_path / "neg.yaml"
        path.write_text(dump_scenario(mapping))
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "convergence preconditions: FAIL (alpha <= 0)" in out
        assert "redundancy: OK" in out

    def test_violated_redundancy_verdict(self, tmp_path, capsys):
        mapping = build_template("violated_redundancy", horizon=20)
        path = tmp_path / "vio.yaml"
        path.write_text(dump_scenario(mapping))
        assert main(["check", str(path)]) == 0
        assert "redundancy: FAIL" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("version: [")
        assert main(["check", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.yaml")]) == 2

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"version: 1\n# caf\xe9\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read scenario file")

    def test_singular_honest_sum_exits_2(self, singular_scenario, capsys):
        assert main(["check", str(singular_scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "no unique minimizer" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("case", NON_FINITE)
    @pytest.mark.parametrize("command", ["check", "run"])
    def test_non_finite_constants_exit_2(self, tmp_path, capsys, command, case):
        mapping, error = NON_FINITE[case]
        path = tmp_path / "overflow.yaml"
        path.write_text(dump_scenario(mapping))
        argv = [command, str(path)] + (["-o", str(tmp_path / "out")] if command == "run" else [])
        # the warning filter turns any numpy RuntimeWarning into an error here
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error) and captured.err.count("\n") == 1

    def test_inapplicable_redundancy_check(self, inapplicable_redundancy_scenario, tmp_path, capsys):
        assert main(["check", str(inapplicable_redundancy_scenario)]) == 0
        out = capsys.readouterr().out
        assert "redundancy: not applicable (redundancy check requires strictly convex honest costs)" in out
        assert "convergence preconditions: FAIL (redundancy not applicable, alpha <= 0)" in out
        assert main(["run", str(inapplicable_redundancy_scenario), "-o", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path / "out")
        assert summary["redundancy_ok"] is False
        assert summary["warnings"][0] == (
            "redundancy check not applicable: redundancy check requires strictly convex honest costs"
        )
        assert not any("not redundant" in w for w in summary["warnings"])


@st.composite
def explicit_cost_scenarios(draw):
    """Small explicit-cost scenarios, singular, stiff and overflowing Hessian sums and boxes included."""
    n = draw(st.integers(1, 7))
    f = draw(st.integers(0, (n - 1) // 2))
    d = draw(st.integers(1, 3))
    xi = draw(st.sampled_from([1.0, 10.0, 1e160]))
    coords = st.lists(st.floats(-2 * xi, 2 * xi), min_size=d, max_size=d)
    adversary = {"kind": draw(st.sampled_from(ADVERSARY_KINDS))}
    if adversary["kind"] == "norm_inflate":
        adversary["scale"] = draw(st.sampled_from([25.0, 1e14]))
    if adversary["kind"] == "collude_target":
        adversary["target"] = draw(coords)
        adversary["estimates"] = draw(st.sampled_from(["target", "random_in_box"]))
    costs = [
        {"A": (draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0, 1e150, 1e308])) * np.eye(d)).tolist(), "b": draw(coords)}
        for _ in range(n)
    ]
    return {
        "version": 1, "n": n, "f": f, "d": d, "xi": xi, "seed": draw(st.integers(0, 2**31)), "horizon": 4,
        "faulty_ids": draw(st.lists(st.integers(0, n - 1), max_size=f, unique=True)),
        "adversary": adversary,
        "ensemble": {"costs": costs},
    }


def refuse_constant(name):
    raise ValueError(f"summary.json holds {name}, which is not JSON")


def numbers(node):
    """Every number in a loaded JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in numbers(item)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


class TestCheckRunAgreement:
    @settings(max_examples=60, deadline=None)
    @given(explicit_cost_scenarios())
    @example(INAPPLICABLE_REDUNDANCY)
    @example(identical_costs(1.0e160, 1.0e-11))
    @example(identical_costs(1.0e4, 1.0e150))
    def test_check_refuses_exactly_what_run_refuses(self, mapping):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.yaml"
            path.write_text(dump_scenario(mapping))
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                check_code = main(["check", str(path)])
            out = Path(tmp) / "out"
            run_code = main(["run", str(path), "-o", str(out)])
            if run_code == 0:
                summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse_constant)
                rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
            else:
                summary, rows = None, []
        assert check_code in (0, 2, 3) and run_code in (0, 2, 3)
        # what run writes holds no infinite or NaN measurement; t leads a row and zeta_violated ends it
        trace_numbers = [float(value) for row in rows for value in row[1:-1]]
        assert all(np.isfinite(trace_numbers)), rows
        if summary is not None:
            assert all(np.isfinite(numbers(summary))), summary
        assert (check_code == 2) == (run_code == 2)
        if check_code == 0:
            # a constant check prints is a finite number, never inf or nan
            for name in ("mu", "lambda", "zeta", "alpha"):
                value = re.search(rf"^{name} = (\S+)", report.getvalue(), re.MULTILINE).group(1)
                assert np.isfinite(float(value)), f"{name} = {value}"
        if summary is not None:
            # the redundancy verdicts of the two commands agree
            verdicts = {
                "OK": summary["redundancy_ok"],
                "FAIL": any(w.startswith("ensemble is not redundant") for w in summary["warnings"]),
                "not applicable": any(w.startswith("redundancy check not applicable") for w in summary["warnings"]),
            }
            line = re.search(r"^redundancy: (OK|FAIL|not applicable)\b", report.getvalue(), re.MULTILINE)
            assert [name for name, held in verdicts.items() if held] == [line.group(1)]


class TestSweep:
    @pytest.fixture()
    def sweep_base(self, tmp_path):
        mapping = build_template("redundant_quadratic", n=9, f=0, d=1, seed=2, horizon=40, record_every=1)
        mapping["faulty_ids"] = []
        path = tmp_path / "base.yaml"
        path.write_text(dump_scenario(mapping))
        return path

    def test_sweep_over_f(self, sweep_base, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["run", str(sweep_base), "-o", str(out), "--sweep", "f=0..3"]) == 0
        index = json.loads((out / "index.json").read_text())
        assert [p["point"] for p in index["points"]] == ["f=0", "f=1", "f=2", "f=3"]
        assert all(p["status"] == "ok" for p in index["points"])
        for point in index["points"]:
            assert (out / point["dir"] / "trace.csv").exists()

    def test_sweep_point_matches_standalone_run(self, sweep_base, tmp_path):
        out = tmp_path / "sweep"
        main(["run", str(sweep_base), "-o", str(out), "--sweep", "f=0..2"])
        # rebuild the f=2 point by hand and run it standalone
        mapping = yaml.safe_load(sweep_base.read_text())
        mapping["f"] = 2
        standalone_file = tmp_path / "standalone.yaml"
        standalone_file.write_text(dump_scenario(mapping))
        alone = tmp_path / "alone"
        main(["run", str(standalone_file), "-o", str(alone)])
        assert (out / "f=2" / "trace.csv").read_bytes() == (alone / "trace.csv").read_bytes()

    def test_parallel_jobs_match_serial(self, sweep_base, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        main(["run", str(sweep_base), "-o", str(serial), "--sweep", "f=0..2"])
        main(["run", str(sweep_base), "-o", str(parallel), "--sweep", "f=0..2", "--jobs", "3"])
        for point in ("f=0", "f=1", "f=2"):
            assert (serial / point / "trace.csv").read_bytes() == (parallel / point / "trace.csv").read_bytes()

    def test_sweep_dotted_key(self, sweep_base, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["run", str(sweep_base), "-o", str(out), "--sweep", "schedule.eta0=0.5,1.0"])
        assert rc == 0
        index = json.loads((out / "index.json").read_text())
        assert [p["point"] for p in index["points"]] == ["schedule.eta0=0.5", "schedule.eta0=1.0"]

    def test_invalid_point_reported_not_fatal(self, tmp_path, capsys):
        mapping = build_template("redundant_quadratic", n=5, f=1, d=1, seed=2, horizon=20)
        path = tmp_path / "base.yaml"
        path.write_text(dump_scenario(mapping))  # faulty_ids stays [4]
        out = tmp_path / "sweep"
        # f=0 cannot host one faulty agent; that point fails, the rest run
        # (f=2 is the minimum-size system: the trim keeps no received values)
        assert main(["run", str(path), "-o", str(out), "--sweep", "f=0..2"]) == 2
        index = json.loads((out / "index.json").read_text())
        statuses = {p["point"]: p["status"] for p in index["points"]}
        assert statuses == {"f=0": "config_error", "f=1": "ok", "f=2": "ok"}

    def test_point_error_cites_the_users_file(self, tmp_path, capsys):
        mapping = build_template("redundant_quadratic", n=5, f=1, d=1, seed=2, horizon=20)
        path = tmp_path / "base.yaml"
        path.write_text("# a header the\n# point's error\n# must count\n" + dump_scenario(mapping))
        faulty_line = path.read_text().splitlines().index("faulty_ids: [4]") + 1
        out = tmp_path / "sweep"
        assert main(["run", str(path), "-o", str(out), "--sweep", "f=0..1"]) == 2
        points = json.loads((out / "index.json").read_text())["points"]
        assert [p["status"] for p in points] == ["config_error", "ok"]
        assert points[0]["error"] == f"line {faulty_line}: 1 faulty ids exceed the declared bound f=0"

    def test_swept_seed_outside_64_bits_recorded(self, sweep_base, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["run", str(sweep_base), "-o", str(out), "--sweep", f"seed=-1,{2**64},1"]) == 2
        points = json.loads((out / "index.json").read_text())["points"]
        assert [p["status"] for p in points] == ["config_error", "config_error", "ok"]
        assert points[0]["error"] == "seed must lie in 0..2**64-1, got -1"

    @pytest.mark.parametrize(
        "key, env, flags",
        [("seed", {ENV_SEED: "5"}, []), ("record_every", {}, ["--record-every", "3"])],
        ids=["seed", "record_every"],
    )
    def test_override_of_swept_key_refused(self, sweep_base, tmp_path, monkeypatch, capsys, key, env, flags):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "sweep"
        assert main(["run", str(sweep_base), "-o", str(out), "--sweep", f"{key}=1..2", *flags]) == 2
        err = capsys.readouterr().err
        source = ENV_SEED if env else "--record-every"
        assert err.startswith(f"error: --sweep {key}=") and source in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["seed=1,1", "seed=1,01"], ids=["repeated", "yaml_alias"])
    def test_point_listed_twice_refused(self, sweep_base, tmp_path, capsys, spec):
        out = tmp_path / "sweep"
        assert main(["run", str(sweep_base), "-o", str(out), "--sweep", spec, "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --sweep {spec} lists the point seed=1 twice") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_refused(self, sweep_base, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        assert main(["run", str(sweep_base), "-o", str(out), "--sweep", "seed=1..1", "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_bad_sweep_spec(self, sweep_base, tmp_path, capsys):
        assert main(["run", str(sweep_base), "-o", str(tmp_path / "x"), "--sweep", "nonsense"]) == 2

    @pytest.mark.parametrize("spec", ["f=[1", "seed=1,{a"])
    def test_malformed_sweep_value_exits_2(self, sweep_base, tmp_path, capsys, spec):
        assert main(["run", str(sweep_base), "-o", str(tmp_path / "x"), "--sweep", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep values") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_point_recorded(self, sweep_base, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "seed=2").write_text("a file where the point's directory would go\n")
        assert main(["run", str(sweep_base), "-o", str(out), "--sweep", "seed=1..3", "--jobs", jobs]) == 2
        points = json.loads((out / "index.json").read_text())["points"]
        assert [p["status"] for p in points] == ["ok", "os_error", "ok"]
        assert "seed=2" in points[1]["error"]
        assert (out / "seed=3" / "trace.csv").exists()

    def test_out_of_memory_point_recorded(self, sweep_base, tmp_path, capsys, monkeypatch):
        real = byzgrad.cli._run_one

        def exhausted_at_f3(loaded, out_dir):
            if loaded.scenario.f == 3:
                raise MemoryError("Unable to allocate 1.00 TiB for an array")  # nothing is allocated
            return real(loaded, out_dir)

        monkeypatch.setattr(byzgrad.cli, "_run_one", exhausted_at_f3)
        out = tmp_path / "sweep"
        assert main(["run", str(sweep_base), "-o", str(out), "--sweep", "f=2..4"]) == 2
        points = json.loads((out / "index.json").read_text())["points"]
        assert [p["status"] for p in points] == ["ok", "out_of_memory", "ok"]
        assert points[1]["error"] == "Unable to allocate 1.00 TiB for an array"
        assert (out / "f=4" / "trace.csv").exists()
        assert "f=3: out_of_memory Unable to allocate" in capsys.readouterr().out

    def test_internal_error_point_recorded(self, sweep_base, tmp_path, capsys, monkeypatch):
        real = byzgrad.cli._run_one

        def faulty_at_f3(loaded, out_dir):
            if loaded.scenario.f == 3:
                raise RuntimeError("unexpected state")
            return real(loaded, out_dir)

        monkeypatch.setattr(byzgrad.cli, "_run_one", faulty_at_f3)
        out = tmp_path / "sweep"
        assert main(["run", str(sweep_base), "-o", str(out), "--sweep", "f=2..4", "--jobs", "1"]) == 3
        points = json.loads((out / "index.json").read_text())["points"]
        assert [p["status"] for p in points] == ["ok", "internal_error", "ok"]
        assert points[1]["error"] == "RuntimeError: unexpected state"
        assert "in faulty_at_f3" in points[1]["traceback"]
        assert (out / "f=4" / "trace.csv").exists()
        captured = capsys.readouterr()
        assert "f=3: internal_error RuntimeError: unexpected state" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("content", [b"version: 1\nn: [unclosed\n", b"version: 1\n\xff\xfe\n"], ids=["yaml", "utf8"])
    def test_malformed_base_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        assert main(["run", str(path), "-o", str(tmp_path / "out"), "--sweep", "seed=1..2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1

    def test_aborted_point_recorded(self, tmp_path, capsys):
        mapping = build_template("redundant_quadratic", n=5, f=1, d=2, seed=3, horizon=10)
        mapping["adversary"] = {"kind": "norm_inflate", "scale": 1.0}
        path = tmp_path / "base.yaml"
        path.write_text(dump_scenario(mapping))
        out = tmp_path / "sweep"
        # 1.0e+14, not 1e14, which YAML 1.1 reads as a string
        assert main(["run", str(path), "-o", str(out), "--sweep", "adversary.scale=1.0,1.0e+14"]) == 3
        points = json.loads((out / "index.json").read_text())["points"]
        assert [p["status"] for p in points] == ["ok", "aborted"]
        assert "round 0" in points[1]["error"]

    def test_overflowing_step_points_recorded_as_aborted(self, tmp_path, capsys):
        mapping = build_template("redundant_quadratic", n=4, f=1, d=2, horizon=5, eta0=1e308)
        path = tmp_path / "base.yaml"
        path.write_text(dump_scenario(mapping))
        out = tmp_path / "sweep"
        # the warning filter turns any numpy RuntimeWarning into an error here
        assert main(["run", str(path), "-o", str(out), "--sweep", "seed=1..2"]) == 3
        points = json.loads((out / "index.json").read_text())["points"]
        assert [p["status"] for p in points] == ["aborted", "aborted"]
        assert all(p["error"] == "round 0: agent 0: point has non-finite coordinates" for p in points)

    def test_singular_points_recorded_as_config_errors(self, singular_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["run", str(singular_scenario), "-o", str(out), "--sweep", "seed=1..2", "--jobs", "2"]) == 2
        index = json.loads((out / "index.json").read_text())
        assert [p["status"] for p in index["points"]] == ["config_error", "config_error"]
        assert all("no unique minimizer" in p["error"] for p in index["points"])
