"""The four benchmark workloads and the checks on their outputs.

Every workload builds its scenario with `build_template` from the
workload seed, so the same seed gives the same scenario file. One sample
of a workload is the list of CLI commands in `steps`, run through
`byzgrad.cli.main` exactly as a user would type them.
"""

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SWEEP_POINTS = 4
RANDOMIZED_KINDS = ("random_in_box", "collude_target")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # the one-line reason this workload exists
    template: dict  # build_template parameters besides the seed
    steps: tuple[str, ...]  # "run", "sweep" or "check", in order
    adversary: dict | None = None  # replaces the template's adversary
    jobs: int = 1  # sweep parallelism in the untraced runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="attack_n10",
            why="acceptance attack shape (n=10, f=2, d=3, colluders with random estimates): "
            "per-round Python overhead, per-message re-keying and metrics on every round dominate",
            template=dict(n=10, f=2, d=3, horizon=2000),
            steps=("run",),
        ),
        Workload(
            name="wide_n100",
            why="n=100, f=19: 1539 faulty messages and 81 honest updates per round; "
            "the O(n^2) message path dominates and metrics are almost free",
            template=dict(n=100, f=19, d=3, horizon=50, record_every=100),
            steps=("run",),
        ),
        Workload(
            name="sweep_seeds",
            why="run --sweep over 4 seeds with 2 jobs: process pool, per-point parse, setup and CSV; "
            "sign_flip draws no random numbers, so re-keying is bypassed",
            template=dict(n=10, f=2, d=3, horizon=1000, record_every=1),
            adversary={"kind": "sign_flip"},
            steps=("sweep",),
            jobs=2,
        ),
        Workload(
            name="check_d20",
            why="check then a short run at d=20: the 8 x 2^20 zeta vertex sweep dominates set-up, "
            "wall time and memory; the round engine is nearly idle",
            template=dict(n=10, f=2, d=20, horizon=200, eig_min=0.5, eig_max=2.0),
            steps=("check", "run"),
        ),
    )
}


@dataclass
class Plan:
    """A workload instantiated for one seed: its scenario and what to expect."""

    workload: Workload
    mapping: dict
    sweep_spec: str | None
    sweep_labels: list[str]
    expected_rows: int
    honest: int
    faulty: int
    horizon: int
    randomized: bool
    zeta_bounds: tuple[float, float] = (0.0, 0.0)
    hashes: dict = field(default_factory=dict)  # (step, point) -> trace sha256


def make_plan(workload: Workload, seed: int, build_template) -> Plan:
    mapping = build_template("redundant_quadratic", seed=seed, **workload.template)
    if workload.adversary is not None:
        mapping["adversary"] = dict(workload.adversary)
    horizon = mapping["horizon"]
    stride = mapping.get("record_every", max(1, horizon // 10000))
    rows = len(range(0, horizon + 1, stride)) + (1 if horizon % stride else 0)
    sweep, labels = None, []
    if "sweep" in workload.steps:
        # every point keeps faulty_ids valid; a sweep over f would not (f < 2 rejects ids 8, 9)
        first = SWEEP_POINTS * seed + 1
        sweep = f"seed={first}..{first + SWEEP_POINTS - 1}"
        labels = [f"seed={v}" for v in range(first, first + SWEEP_POINTS)]
    faulty = len(mapping["faulty_ids"])
    plan = Plan(
        workload=workload,
        mapping=mapping,
        sweep_spec=sweep,
        sweep_labels=labels,
        expected_rows=rows,
        honest=mapping["n"] - faulty,
        faulty=faulty,
        horizon=horizon,
        randomized=mapping["adversary"]["kind"] in RANDOMIZED_KINDS,
    )
    if "check" in workload.steps:
        plan.zeta_bounds = zeta_bounds(mapping, seed)
    return plan


def zeta_bounds(mapping: dict, seed: int, samples: int = 256) -> tuple[float, float]:
    """Bounds that the exact zeta of `check` must lie between.

    Below: (n - f) times the largest honest gradient norm at a random
    sample of box vertices. Above: the analytic bound
    (n - f) * max_i (lambda_max(A_i) sqrt(d) xi + ||b_i||).
    """
    from byzgrad.costs import make_redundant_ensemble

    n, f, d, xi = mapping["n"], mapping["f"], mapping["d"], mapping["xi"]
    gen = mapping["ensemble"]["generator"]
    ensemble = make_redundant_ensemble(n, f, d, gen["x_star"], gen["seed"], gen["eig_min"], gen["eig_max"])
    honest = [c for i, c in enumerate(ensemble.costs) if i not in set(mapping["faulty_ids"])]
    rng = np.random.default_rng(seed)
    vertices = xi * rng.choice([-1.0, 1.0], size=(samples, d))
    low = max(float(np.linalg.norm(vertices @ c.A.T - c.b, axis=1).max()) for c in honest)
    high = max(float(np.linalg.eigvalsh(c.A)[-1]) * np.sqrt(d) * xi + float(np.linalg.norm(c.b)) for c in honest)
    return (n - f) * low, (n - f) * high


def check_run_dir(plan: Plan, out: Path, header: str) -> tuple[list[str], str, int]:
    """Check one run's trace.csv and summary.json; return (errors, sha256, trace bytes)."""
    try:
        data = (out / "trace.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{out.name}: unreadable output: {exc}"], "", 0
    errors = []
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != header:
        errors.append(f"{out.name}: trace.csv does not start with TRACE_HEADER")
    if len(lines) - 1 != plan.expected_rows:
        errors.append(f"{out.name}: {len(lines) - 1} trace rows, expected {plan.expected_rows}")
    if any(line.rsplit(",", 1)[-1] != "false" for line in lines[1:]):
        errors.append(f"{out.name}: a row has zeta_violated")
    if summary.get("verdict") != "converged":
        errors.append(f"{out.name}: verdict {summary.get('verdict')!r}, expected 'converged'")
    return errors, hashlib.sha256(data).hexdigest(), len(data)


def check_check_output(plan: Plan, stdout: str) -> list[str]:
    """Check the report of `byzgrad check` against the zeta bounds."""
    match = re.search(r"^zeta = (\S+)$", stdout, re.MULTILINE)
    if match is None:
        return ["check: no exact zeta in the report"]
    zeta = float(match.group(1))
    low, high = plan.zeta_bounds
    errors = []
    # the report prints 10 significant digits
    if not (low * (1 - 1e-9) <= zeta <= high * (1 + 1e-9)):
        errors.append(f"check: zeta {zeta} outside [{low}, {high}]")
    if "redundancy: OK" not in stdout:
        errors.append("check: generated ensemble reported as not redundant")
    return errors


def expected_counts(plan: Plan, runs: int, checks: int) -> dict[str, int]:
    """Closed-form call counts of one traced sample with `runs` runs and `checks` checks."""
    rounds = plan.horizon + 1
    h = plan.honest
    emit = runs * rounds * plan.faulty * h
    return {
        "simulator.adversary_emit": emit,
        "seeds.CounterStream.at": emit if plan.randomized else 0,
        "simulator.honest_round": runs * rounds * h,
        "protocol.cge_f": runs * rounds * h,
        # the extra h per run and per check come from the redundancy check
        "costs.QuadraticCost.gradient": runs * (rounds * h + h) + checks * h,
        "simulator.consensus_diameter": runs * plan.expected_rows,
        "simulator.lyapunov_v": runs * plan.expected_rows,
        "simulator.max_distance": runs * plan.expected_rows,
        "simulator.check_zeta": runs * plan.expected_rows,
    }
