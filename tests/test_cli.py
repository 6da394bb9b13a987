import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from byzgrad.cli import TRACE_HEADER, main
from byzgrad.protocol import ADVERSARY_KINDS
from byzgrad.scenario_io import ENV_SEED, build_template, dump_scenario


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


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


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

    def test_singular_honest_sum_exits_2(self, singular_scenario, capsys):
        assert main(["check", str(singular_scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "no unique minimizer" in captured.err
        assert captured.err.count("\n") == 1


@st.composite
def explicit_cost_scenarios(draw):
    """Small explicit-cost scenarios, singular and stiff Hessian sums included."""
    n = draw(st.integers(1, 7))
    f = draw(st.integers(0, (n - 1) // 2))
    d = draw(st.integers(1, 3))
    xi = draw(st.sampled_from([1.0, 10.0]))
    coords = st.lists(st.floats(-2 * xi, 2 * xi), min_size=d, max_size=d)
    adversary = {"kind": draw(st.sampled_from(ADVERSARY_KINDS))}
    if adversary["kind"] == "norm_inflate":
        adversary["scale"] = draw(st.sampled_from([25.0, 1e14]))
    if adversary["kind"] == "collude_target":
        adversary["target"] = draw(coords)
        adversary["estimates"] = draw(st.sampled_from(["target", "random_in_box"]))
    costs = [
        {"A": (draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0])) * np.eye(d)).tolist(), "b": draw(coords)}
        for _ in range(n)
    ]
    return {
        "version": 1, "n": n, "f": f, "d": d, "xi": xi, "seed": draw(st.integers(0, 2**31)), "horizon": 4,
        "faulty_ids": draw(st.lists(st.integers(0, n - 1), max_size=f, unique=True)),
        "adversary": adversary,
        "ensemble": {"costs": costs},
    }


class TestCheckRunAgreement:
    @settings(max_examples=60, deadline=None)
    @given(explicit_cost_scenarios())
    def test_check_refuses_exactly_what_run_refuses(self, mapping):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.yaml"
            path.write_text(dump_scenario(mapping))
            check_code = main(["check", str(path)])
            run_code = main(["run", str(path), "-o", str(Path(tmp) / "out")])
        assert check_code in (0, 2, 3) and run_code in (0, 2, 3)
        assert (check_code == 2) == (run_code == 2)


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

    def test_bad_sweep_spec(self, sweep_base, tmp_path, capsys):
        assert main(["run", str(sweep_base), "-o", str(tmp_path / "x"), "--sweep", "nonsense"]) == 2

    def test_singular_points_recorded_as_config_errors(self, singular_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["run", str(singular_scenario), "-o", str(out), "--sweep", "seed=1..2", "--jobs", "2"]) == 2
        index = json.loads((out / "index.json").read_text())
        assert [p["status"] for p in index["points"]] == ["config_error", "config_error"]
        assert all("no unique minimizer" in p["error"] for p in index["points"])
