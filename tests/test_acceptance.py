"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with `pytest -s` to
see them live). The two long scenarios execute once per module via the CLI
so the criteria observe exactly what a user would: trace.csv bytes and
summary.json verdicts.
"""

import json
import math
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from byzgrad import (
    CostEnsemble,
    Hypercube,
    QuadraticCost,
    cge_f,
    fuse_estimates,
    honest_round,
    project_box,
)
from byzgrad.cli import TRACE_HEADER, main
from byzgrad.scenario_io import ENV_SEED, build_template, dump_scenario, load_scenario_file


def criterion(num, ok, description, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def read_trace(out_dir):
    lines = (out_dir / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    rows = []
    for line in lines[1:]:
        t, eta, d_inf, d_l2, v, max_dist, cge_norm, violated = line.split(",")
        rows.append(
            SimpleNamespace(
                t=int(t),
                eta=float(eta),
                diameter_inf=float(d_inf),
                diameter_l2=float(d_l2),
                v=float(v),
                max_dist=float(max_dist),
                cge_norm_max=float(cge_norm),
                zeta_violated={"true": True, "false": False}[violated],
            )
        )
    return rows


def run_template(workdir, name, label, **params):
    path = workdir / f"{label}.yaml"
    path.write_text(dump_scenario(build_template(name, **params)))
    out = workdir / f"{label}_out"
    started = perf_counter()
    rc = main(["run", str(path), "-o", str(out)])
    elapsed = perf_counter() - started
    assert rc == 0, f"{label} did not complete"
    summary = json.loads((out / "summary.json").read_text())
    return SimpleNamespace(
        path=path, out=out, elapsed=elapsed, trace=read_trace(out), summary=summary
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def scenario_a(workdir):
    """n=10, f=2, d=3 redundant ensemble under a colluding corner attack."""
    return run_template(
        workdir, "redundant_quadratic", "scenario_a",
        n=10, f=2, d=3, seed=7, xi=10.0, horizon=20000, eta0=1.0,
    )


@pytest.fixture(scope="module")
def scenario_c(workdir):
    """Fault-free n=5, d=2 heterogeneous redundant ensemble."""
    return run_template(
        workdir, "redundant_quadratic", "scenario_c",
        n=5, f=0, d=2, seed=11, xi=10.0, horizon=10000, eta0=0.5,
        eig_min=0.5, eig_max=2.0,
    )


def test_criterion_1_validity_under_attack(scenario_a):
    first, last = scenario_a.trace[0], scenario_a.trace[-1]
    alpha = scenario_a.summary["alpha"]
    expected_alpha = 1.0 / (1.0 + 2.0 * math.sqrt(3.0)) - 0.2
    ok = (
        abs(alpha - expected_alpha) <= 1e-9
        and alpha > 0
        and last.t == 20000
        and last.v <= first.v / 100.0
        and last.max_dist <= 0.05
        and scenario_a.summary["verdict"] == "converged"
        and scenario_a.elapsed < 30.0
    )
    criterion(
        1, ok, "colluder-attacked run converges to the honest minimizer",
        f"alpha={alpha:.6g}, V_T={last.v:.3g} vs V_0/100={first.v / 100:.3g}, "
        f"max_dist={last.max_dist:.3g}, {scenario_a.elapsed:.1f}s",
    )


def test_criterion_2_consensus_under_attack(scenario_a):
    first, last = scenario_a.trace[0], scenario_a.trace[-1]
    ok = (
        last.diameter_l2 <= 1e-3
        and last.diameter_inf <= first.diameter_inf / 10.0
        and last.diameter_l2 <= first.diameter_l2 / 10.0
    )
    criterion(
        2, ok, "honest estimates agree at the horizon",
        f"diameter_l2={last.diameter_l2:.3g}, shrink factor "
        f"{first.diameter_inf / max(last.diameter_inf, 1e-300):.3g}",
    )


def test_criterion_3_fault_free_reduction(scenario_c):
    last = scenario_c.trace[-1]
    distance_ok = last.max_dist <= 1e-2

    # with coincident estimates the update direction must equal the summed
    # gradient of all costs, exactly up to 1e-12
    loaded = load_scenario_file(scenario_c.path)
    ensemble = loaded.scenario.ensemble
    box = loaded.scenario.box
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-box.xi, box.xi, size=box.d)
        estimates = np.tile(x, (ensemble.n, 1))
        gradients = np.stack([ensemble.costs[j].gradient(x) for j in range(ensemble.n)])
        outcome = honest_round(0, estimates, gradients, 0.01, 0, box)
        total = sum(ensemble.costs[j].gradient(x) for j in range(ensemble.n))
        worst = max(worst, float(np.abs(outcome.filtered_gradient - total).max()))
    direction_ok = worst <= 1e-12
    criterion(
        3, distance_ok and direction_ok, "fault-free run reduces to summed gradient descent",
        f"max_dist={last.max_dist:.3g}, direction error={worst:.3g}",
    )


def test_criterion_4_cge_oracle_equivalence():
    def oracle(vectors, f):
        vecs = [list(map(float, v)) for v in vectors]
        order = sorted(range(len(vecs)), key=lambda i: math.sqrt(sum(c * c for c in vecs[i])))
        total = np.zeros(len(vecs[0]))
        for i in order[: len(vecs) - f]:
            total = total + np.asarray(vecs[i])
        return total

    rng = np.random.default_rng(41)
    distinct_done = 0
    while distinct_done < 1000:
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        f = int(rng.integers(0, min(n, 4)))
        vectors = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        if len(set(np.linalg.norm(vectors, axis=1).tolist())) < n:
            continue
        assert np.array_equal(cge_f(vectors, f), oracle(vectors, f)), "distinct-norm mismatch"
        distinct_done += 1

    for _ in range(100):
        d = int(rng.integers(1, 5))
        base = rng.normal(size=(int(rng.integers(1, 4)), d))
        tied = np.concatenate([base, -base, base.copy()])  # exact norm ties
        rng.shuffle(tied)
        n = tied.shape[0]
        f = int(rng.integers(0, n))
        assert np.array_equal(cge_f(tied, f), oracle(tied, f)), "tie-rule mismatch"
    criterion(4, True, "gradient elimination matches the independent oracle bit-exactly",
              "1000 distinct-norm + 100 tie instances")


def test_criterion_5_fusion_containment():
    rng = np.random.default_rng(52)
    violations = 0
    for _ in range(10000):
        f = int(rng.integers(1, 4))
        honest_count = int(rng.integers(2 * f + 1, 2 * f + 8))
        own = float(rng.normal() * 10)
        honest = rng.normal(size=honest_count) * 10
        n_bad = int(rng.integers(0, f + 1))
        bad = rng.choice([-1.0, 1.0], size=n_bad) * 10.0 ** rng.uniform(3, 12, size=n_bad)
        received = np.concatenate([honest, bad])
        rng.shuffle(received)
        fused = fuse_estimates(own, received, f)
        if not (min(own, honest.min()) <= fused <= max(own, honest.max())):
            violations += 1
    criterion(5, violations == 0, "trimmed fusion stays inside the honest range",
              f"{violations} violations in 10000 trials")


def test_criterion_6_projection_non_expansion():
    rng = np.random.default_rng(63)
    violations = 0
    for _ in range(10000):
        d = int(rng.integers(1, 6))
        xi = float(rng.uniform(0.5, 20.0))
        box = Hypercube(xi, d)
        x = rng.uniform(-3 * xi, 3 * xi, size=d)
        y = rng.uniform(-xi, xi, size=d)
        if not (np.abs(project_box(x, box) - y) <= np.abs(x - y)).all():
            violations += 1
    criterion(6, violations == 0, "projection never expands distance to box points",
              f"{violations} violations in 10000 trials, slack 0")


def test_criterion_7_filtered_gradient_bound(scenario_a, scenario_c):
    rows_a = sum(r.zeta_violated for r in scenario_a.trace)
    rows_c = sum(r.zeta_violated for r in scenario_c.trace)
    criterion(7, rows_a == 0 and rows_c == 0,
              "filtered gradient norms never exceed their bound",
              f"{len(scenario_a.trace) + len(scenario_c.trace)} recorded rounds")


def test_criterion_8_gradient_correctness(scenario_a, scenario_c):
    h = 1e-6
    rng = np.random.default_rng(74)

    def fd(cost, x):
        out = np.empty_like(x)
        for k in range(x.size):
            step = np.zeros_like(x)
            step[k] = h
            out[k] = (cost(x + step) - cost(x - step)) / (2 * h)
        return out

    ensembles = [
        load_scenario_file(scenario_a.path).scenario.ensemble,
        load_scenario_file(scenario_c.path).scenario.ensemble,
    ]
    m = rng.normal(size=(3, 3))
    ensembles.append(
        CostEnsemble(
            costs=tuple(
                QuadraticCost(A=m @ m.T + 0.1 * np.eye(3), b=rng.normal(size=3), c=1.5)
                for _ in range(3)
            ),
            honest_set=frozenset(range(3)),
        )
    )
    worst = 0.0
    for ensemble in ensembles:
        for cost in ensemble.costs:
            for _ in range(100):
                x = rng.uniform(-10, 10, size=cost.dim)
                grad = cost.gradient(x)
                err = np.linalg.norm(grad - fd(cost, x)) / max(1.0, np.linalg.norm(grad))
                worst = max(worst, float(err))
    criterion(8, worst <= 1e-5, "analytic gradients match central differences",
              f"worst relative error {worst:.3g}")


def test_criterion_9_determinism(scenario_a, workdir, capsys):
    rerun = workdir / "a_run2"
    assert main(["run", str(scenario_a.path), "-o", str(rerun)]) == 0
    bytes_equal = (
        (scenario_a.out / "trace.csv").read_bytes() == (rerun / "trace.csv").read_bytes()
    )

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv(ENV_SEED, "424242")
        assert main(["check", str(scenario_a.path)]) == 0
    check_out = capsys.readouterr().out
    digest_line = next(line for line in check_out.splitlines() if line.startswith("digest: "))
    overridden_digest = digest_line.split(" ", 1)[1]
    digest_changed = overridden_digest != scenario_a.summary["digest"]
    criterion(9, bytes_equal and digest_changed,
              "replays are byte-identical and the seed override is visible",
              f"bytes_equal={bytes_equal}, digest_changed={digest_changed}")


def test_criterion_10_negative_scenarios_execute(workdir):
    margin = run_template(workdir, "margin_negative", "margin_negative", horizon=300)
    violated = run_template(workdir, "violated_redundancy", "violated_redundancy", horizon=300)
    margin_ok = (
        margin.summary["alpha"] <= 0.0
        and margin.summary["preconditions_ok"] is False
        and margin.summary["redundancy_ok"] is True
        and margin.summary["final"]["t"] == 300
        and any("alpha" in w for w in margin.summary["warnings"])
    )
    violated_ok = (
        violated.summary["redundancy_ok"] is False
        and violated.summary["preconditions_ok"] is False
        and violated.summary["final"]["t"] == 300
        and any("redundant" in w for w in violated.summary["warnings"])
    )
    criterion(10, margin_ok and violated_ok,
              "doomed configurations run to completion with FAIL verdicts",
              f"alpha={margin.summary['alpha']:.4g}, redundancy_ok={violated.summary['redundancy_ok']}")
