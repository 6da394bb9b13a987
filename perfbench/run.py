"""byzgrad benchmark: CLI workloads timed end to end, each module timed from outside.

    python3 perfbench/run.py --workload attack_n10 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. Each run builds the workload's scenario from `--seed`,
runs one untimed warm-up sample, then repeats samples for `--seconds`
seconds and checks every output. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics:

  --trace 0  end-to-end metrics: wall_s, setup_s, rounds_per_s, peak_rss_mb.
  --trace 1  per-layer metrics, from samples with every layer wrapped in a
             span, alternated with untraced samples to measure the overhead.

See NOTES.md for the definition of every metric and workload.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Plan, check_check_output, check_run_dir, expected_counts, make_plan  # noqa: E402

# (module, attribute, span name): wrapped for every command. Each is called
# a handful of times per command, so these add no measurable time.
COARSE = (
    ("cli", "load_scenario_file", "cli.load_scenario_file"),
    ("cli", "parse_scenario_text", "cli.parse_scenario_text"),
    ("cli", "run", "cli.run"),
    ("cli", "spectral_constants", "cli.spectral_constants"),
    ("cli", "check_redundancy_sufficient", "cli.check_redundancy_sufficient"),
    ("cli", "write_trace_csv", "cli.write_trace_csv"),
    ("cli", "write_summary", "cli.write_summary"),
    ("simulator", "spectral_constants", "simulator.spectral_constants"),
    ("simulator", "check_redundancy_sufficient", "simulator.check_redundancy_sufficient"),
    ("simulator", "aggregate_minimizer", "simulator.aggregate_minimizer"),
)
# Called per round or per message: wrapped only in traced samples.
FINE = (
    ("simulator", "adversary_emit", "simulator.adversary_emit"),
    ("simulator", "honest_round", "simulator.honest_round"),
    ("protocol", "cge_f", "protocol.cge_f"),
    ("seeds.CounterStream", "at", "seeds.CounterStream.at"),
    ("costs.QuadraticCost", "gradient", "costs.QuadraticCost.gradient"),
    ("simulator", "consensus_diameter", "simulator.consensus_diameter"),
    ("simulator", "lyapunov_v", "simulator.lyapunov_v"),
    ("simulator", "max_distance", "simulator.max_distance"),
    ("simulator", "check_zeta", "simulator.check_zeta"),
)
LOADS = ("cli.load_scenario_file", "cli.parse_scenario_text")
SETUP_CALLS = (
    "simulator.spectral_constants", "simulator.check_redundancy_sufficient", "simulator.aggregate_minimizer",
    "cli.spectral_constants", "cli.check_redundancy_sufficient",
)
# per-layer self-time metric -> the spans it sums; together they cover every span
LAYER_SELF = {
    "cli.main_self_s": ("cli.main",),
    "cli.sweep_point_self_s": ("cli.sweep_point",),
    "scenario_io.load_self_s": LOADS,
    "simulator.run_self_s": ("cli.run",),
    "costs.constants_self_s": ("simulator.spectral_constants", "cli.spectral_constants"),
    "costs.redundancy_self_s": ("simulator.check_redundancy_sufficient", "cli.check_redundancy_sufficient"),
    "costs.minimizer_self_s": ("simulator.aggregate_minimizer",),
    "protocol.emit_self_s": ("simulator.adversary_emit",),
    "seeds.rekey_self_s": ("seeds.CounterStream.at",),
    "protocol.honest_round_self_s": ("simulator.honest_round",),
    "filters.cge_self_s": ("protocol.cge_f",),
    "costs.gradient_self_s": ("costs.QuadraticCost.gradient",),
    "metrics.self_s": ("simulator.consensus_diameter", "simulator.lyapunov_v", "simulator.max_distance", "simulator.check_zeta"),
    "cli.write_self_s": ("cli.write_trace_csv", "cli.write_summary"),
}
LAYER_CALLS = {
    "scenario_io.load_calls": LOADS,
    "protocol.emit_calls": ("simulator.adversary_emit",),
    "seeds.rekey_calls": ("seeds.CounterStream.at",),
    "protocol.honest_round_calls": ("simulator.honest_round",),
    "filters.cge_calls": ("protocol.cge_f",),
    "costs.gradient_calls": ("costs.QuadraticCost.gradient",),
    "metrics.rows": ("simulator.lyapunov_v",),
}


@dataclass
class Sample:
    traced: bool
    jobs: int
    wall: float = 0.0
    records: list = field(default_factory=list)  # one per run, check or sweep point, plus the rest
    attempted: int = 0
    failed: int = 0
    trace_bytes: int = 0
    errors: list = field(default_factory=list)


def total(records: list, names, column: int = 1) -> float:
    return sum(r[name][column] for r in records for name in names if name in r)


class Bench:
    def __init__(self, plan: Plan, work: Path):
        import byzgrad.cli
        import byzgrad.costs
        import byzgrad.protocol
        import byzgrad.seeds
        import byzgrad.simulator

        self.byzgrad = byzgrad
        self.plan = plan
        self.work = work
        self.scenario = work / "scenario.yaml"
        self.scenario.write_text(byzgrad.cli.dump_scenario(plan.mapping), encoding="utf-8")
        self.tracer = Tracer(work / "spool")
        self.main = self.tracer.span(byzgrad.cli.main, "cli.main")
        self.tracer.install(byzgrad.cli, "_sweep_worker", "cli.sweep_point", boundary=True)
        for target in COARSE:
            self.tracer.install(*self._owner(target))

    def _owner(self, target):
        path, attr, name = target
        owner = self.byzgrad
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner, attr, name

    def sample(self, traced: bool, jobs: int) -> Sample:
        if traced:
            for target in FINE:
                self.tracer.install(*self._owner(target))
        try:
            return self._sample(traced, jobs)
        finally:
            if traced:
                for _, _, name in FINE:
                    self.tracer.uninstall(name)

    def _sample(self, traced: bool, jobs: int) -> Sample:
        sample = Sample(traced, jobs)
        plan = self.plan
        for index, step in enumerate(plan.workload.steps):
            out = self.work / f"out{index}"
            argv = [step if step != "sweep" else "run", str(self.scenario)]
            if step != "check":
                argv += ["-o", str(out)]
            if step == "sweep":
                argv += ["--sweep", plan.sweep_spec, "--jobs", str(jobs)]
            # a fresh output directory: overwriting a file makes some file systems
            # discard its old blocks inside the timed command
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            stdout = io.StringIO()
            self.tracer.begin_command()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = self.main(argv)
            records = self.tracer.end_command()
            sample.records += records
            sample.wall += records[-1]["cli.main"][1]
            self._check(sample, index, step, code, out, stdout.getvalue())
        if traced:
            self._check_counts(sample)
        return sample

    def _check(self, sample: Sample, index: int, step: str, code: int, out: Path, stdout: str) -> None:
        plan = self.plan
        if step == "check":
            sample.attempted += 1
            errors = [f"check exited {code}"] if code else check_check_output(plan, stdout)
            self._fail(sample, errors, 1)
            return
        if step == "run":
            if code:
                sample.attempted += 1
                self._fail(sample, [f"run exited {code}"], 1)
                return
            points = [("", out)]
        else:
            # a sweep's exit code only restates the status of its points
            points = self._sweep_points(sample, code, out)
            if points is None:
                return
        for label, point_dir in points:
            sample.attempted += 1
            errors, digest, size = check_run_dir(plan, point_dir, self.byzgrad.cli.TRACE_HEADER)
            sample.trace_bytes += size
            expected = plan.hashes.setdefault((index, label), digest)
            if digest != expected:
                errors.append(f"{point_dir.name}: trace.csv differs from an earlier repeat")
            self._fail(sample, errors, 1)

    def _sweep_points(self, sample: Sample, code: int, out: Path):
        """Return (label, directory) of every ok sweep point, counting the others as failed."""
        labels = self.plan.sweep_labels
        try:
            index = json.loads((out / "index.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            sample.attempted += len(labels)
            self._fail(sample, [f"sweep exited {code}, no index.json: {exc}"], len(labels))
            return None
        status = {p["point"]: p["status"] for p in index["points"]}
        points = []
        for label in labels:
            if status.get(label) == "ok":
                points.append((label, out / label))
            else:
                sample.attempted += 1
                self._fail(sample, [f"sweep point {label}: status {status.get(label)!r}"], 1)
        return points

    @staticmethod
    def _fail(sample: Sample, errors: list, units: int) -> None:
        if errors:
            sample.errors += errors
            sample.failed += units

    def _check_counts(self, sample: Sample) -> None:
        """Traced call counts must equal their closed forms; else the sample fails."""
        runs = sum(1 for r in sample.records if "cli.run" in r)
        checks = sum(1 for r in sample.records if "cli.spectral_constants" in r)
        errors = [
            f"count {name}: traced {int(total(sample.records, (name,), 0))}, closed form {want}"
            for name, want in expected_counts(self.plan, runs, checks).items()
            if total(sample.records, (name,), 0) != want
        ]
        if errors:
            sample.errors += errors
            sample.failed = sample.attempted


def unit_times(sample: Sample):
    """(setup_s per unit, rounds, round-loop seconds) for each run, check or sweep point."""
    for record in sample.records:
        if not any(name in record for name in LOADS):
            continue
        setup_calls = total([record], SETUP_CALLS)
        setup = total([record], LOADS) + setup_calls
        if "cli.run" in record:
            yield setup, record["cli.run"][0], record["cli.run"][1] - setup_calls
        else:
            yield setup, 0, 0.0


def end_to_end(plan: Plan, samples: list[Sample]) -> dict:
    walls = [s.wall for s in samples]
    setups, rates = [], []
    for s in samples:
        units = list(unit_times(s))
        setups += [u[0] for u in units]
        runs = sum(u[1] for u in units)
        loop = sum(u[2] for u in units)
        if loop > 0.0:  # a command that failed before round 0 ran no rounds; it is counted as failed
            rates.append(runs * (plan.horizon + 1) / loop)
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "rounds_per_s": (statistics.median(rates), "rounds/s", len(rates)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }


def per_layer(plan: Plan, plain: list[Sample], traced: list[Sample], parallel: list[Sample]) -> dict:
    from byzgrad.costs import ZETA_VERTEX_DIM_LIMIT

    k = len(traced)
    records = [r for s in traced for r in s.records]
    out = {name: (total(records, spans, 2) / k, "s", k) for name, spans in LAYER_SELF.items()}
    out.update({name: (total(records, spans, 0) / k, "count", k) for name, spans in LAYER_CALLS.items()})
    traced_wall = statistics.fmean(s.wall for s in traced)
    covered = sum(out[name][0] for name in LAYER_SELF)
    if abs(covered - traced_wall) > 1e-6 * traced_wall:
        raise RuntimeError(f"layer self times sum to {covered} s, traced wall is {traced_wall} s")
    out["traced_wall_s"] = (traced_wall, "s", k)
    out["cli.trace_bytes"] = (statistics.fmean(s.trace_bytes for s in traced), "bytes", k)
    constants_calls = total(records, LAYER_SELF["costs.constants_self_s"], 0) / k
    d = plan.mapping["d"]
    vertices = plan.honest * 2**d if d <= ZETA_VERTEX_DIM_LIMIT else 0  # above it zeta is analytic
    out["costs.zeta_vertices"] = (constants_calls * vertices, "count", k)
    untraced = statistics.median(s.wall for s in plain)
    out["trace_overhead_frac"] = (statistics.median(s.wall for s in traced) / untraced - 1.0, "ratio", k)
    if parallel:
        # per-point times at jobs=1 over the worker time available at jobs=J
        busy = statistics.median(total(s.records, ("cli.sweep_point",)) for s in plain)
        out["cli.sweep_busy_frac"] = (busy / (parallel[0].jobs * statistics.median(s.wall for s in parallel)), "ratio", len(parallel))
    else:
        out["cli.sweep_busy_frac"] = (1.0, "ratio", len(plain))  # one command, one worker
    return out


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def measure(plan: Plan, work: Path, seconds: float, trace: bool) -> tuple[list[Sample], list[Sample]]:
    """Return (warm-up and timed samples, timed samples)."""
    bench = Bench(plan, work)
    jobs = plan.workload.jobs
    if not trace:
        cycle = [(False, jobs)]
    elif jobs > 1:
        cycle = [(False, jobs), (False, 1), (True, 1)]  # spans of forked workers are lost: trace at jobs=1
    else:
        cycle = [(False, 1), (True, 1)]
    warmup = bench.sample(False, jobs)
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < len(cycle):
        traced, j = cycle[len(samples) % len(cycle)]
        samples.append(bench.sample(traced, j))
    return [warmup] + samples, samples


def summarize(plan: Plan, samples: list[Sample], trace: bool) -> dict:
    if not trace:
        return end_to_end(plan, samples)
    plain = [s for s in samples if not s.traced and s.jobs == 1]
    traced = [s for s in samples if s.traced]
    parallel = [s for s in samples if s.jobs > 1]
    return per_layer(plan, plain, traced, parallel)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "byzgrad" / "cli.py").is_file():
        print(f"error: no byzgrad source at {src}; run from a byzgrad checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("BYZGRAD_SEED", None)  # the workload seed alone decides the inputs
    machine = machine_info()
    from byzgrad.scenario_io import build_template

    plan = make_plan(WORKLOADS[args.workload], args.seed, build_template)
    work = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        samples, timed = measure(plan, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    errors = [e for s in samples for e in s.errors]
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    try:
        metrics = summarize(plan, timed, bool(args.trace))
    except statistics.StatisticsError:
        print("error: no sample ran a round, so no metric can be computed", file=sys.stderr)
        return 1
    print(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed, "trace": args.trace}))
    print(json.dumps({"trace_sha256": {f"{step}:{label}".rstrip(":"): h for (step, label), h in sorted(plan.hashes.items())}}))
    for name, (value, unit, count) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={count})")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} runs, checks and sweep points)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
