"""Command-line front end: scenario files in, CSV traces and JSON summaries out.

    byzgrad run <scenario.yaml> -o <dir> [--record-every N] [--sweep f=0..3] [--jobs J]
    byzgrad gen <template> [--n --f --d --seed --xi --horizon ...]
    byzgrad check <scenario.yaml>

Exit codes: 0 on completion (verdicts live in summary.json, not the exit
code), 2 on configuration errors, 3 on a mid-run numeric abort. The
BYZGRAD_SEED environment variable overrides the file seed for ad-hoc
replays; it must lie in [0, 2^64 - 1] like a file seed.

`check` and `gen` share one analysis, `check_report`, which refuses
every file that `run` refuses, so `gen` never prints such a file.

Every value put over the file (BYZGRAD_SEED, --record-every and each
sweep point's key=value) is an override passed to parse_scenario_text,
so it goes through the file's own validation. A sweep reads the file
once; a point's config error cites the line of that file, and an error
in the swept value itself carries no line. A sweep over a key that
BYZGRAD_SEED or --record-every also sets is refused before any point
runs: the override would make every point the same scenario. So is a
sweep that lists one point twice, whose runs would share a directory.
"""

import argparse
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import yaml

from .costs import SpectralConstants, check_redundancy_sufficient, spectral_constants
from .errors import ConfigError, SimulationAbort
from .metrics import RoundTrace
from .scenario_io import (
    ENV_SEED, TEMPLATES, LoadedScenario, build_template, dump_scenario, load_scenario_file, parse_scenario_text,
    read_scenario_file, read_scenario_mapping,
)
from .simulator import RunResult, Scenario, honest_minimizer, run

TRACE_HEADER = "t,eta,diameter_inf,diameter_l2,V,max_dist,cge_norm_max,zeta_violated"


def _fmt(value: float) -> str:
    # 17 significant digits round-trip any 64-bit float exactly
    return f"{value:.17g}"


def _trace_row(row: RoundTrace) -> str:
    return ",".join(
        (
            str(row.t),
            _fmt(row.eta),
            _fmt(row.diameter_inf),
            _fmt(row.diameter_l2),
            _fmt(row.v),
            _fmt(row.max_dist),
            _fmt(row.cge_norm_max),
            "true" if row.zeta_violated else "false",
        )
    )


def write_trace_csv(path: Path, trace: list[RoundTrace]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(TRACE_HEADER + "\n")
        for row in trace:
            handle.write(_trace_row(row) + "\n")


def _named_values(scenario: Scenario, constants: SpectralConstants) -> dict:
    """The sizes and constants that `check` reports and summary.json records, under the names both use."""
    return {
        "n": scenario.n, "f": scenario.f, "d": scenario.d, "xi": scenario.xi,
        "mu": constants.mu, "lambda": constants.lam, "zeta": constants.zeta, "alpha": constants.alpha,
    }


def build_summary(loaded: LoadedScenario, result: RunResult) -> dict:
    first, last = result.trace[0], result.trace[-1]
    constants = result.constants
    preconditions_ok = result.redundancy_ok and constants.alpha > 0.0
    scenario = loaded.scenario
    return {
        "digest": loaded.digest,
        **_named_values(scenario, constants),
        "seed": scenario.seed,
        "zeta_exact": constants.zeta_exact,
        "redundancy_ok": result.redundancy_ok,
        "preconditions_ok": preconditions_ok,
        "verdict": "converged" if last.v <= first.v / 100.0 else "not_converged",
        "rounds": scenario.horizon,
        "initial": {"V": first.v, "diameter_l2": first.diameter_l2},
        "final": {
            "t": last.t,
            "V": last.v,
            "diameter_l2": last.diameter_l2,
            "max_dist": last.max_dist,
        },
        "warnings": result.warnings,
    }


def write_summary(path: Path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


_OVERRIDE_SOURCES = {"seed": ENV_SEED, "record_every": "--record-every"}


def _overrides(record_every: int | None = None) -> dict:
    """The values put over the file: the seed from BYZGRAD_SEED and the stride from --record-every."""
    overrides = {}
    raw = os.environ.get(ENV_SEED)
    if raw is not None:
        try:
            overrides["seed"] = int(raw)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}")
    if record_every is not None:
        overrides["record_every"] = record_every
    return overrides


def _run_one(loaded: LoadedScenario, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run(loaded.scenario)
    summary = build_summary(loaded, result)
    write_trace_csv(out_dir / "trace.csv", result.trace)
    write_summary(out_dir / "summary.json", summary)
    return summary


def _sweep_worker(args: tuple) -> dict:
    """Run one sweep point in a subprocess; never raises."""
    text, out_dir, overrides, label = args
    try:
        loaded = parse_scenario_text(text, overrides)
        summary = _run_one(loaded, Path(out_dir))
    except ConfigError as exc:
        return {"point": label, "status": "config_error", "error": str(exc)}
    except SimulationAbort as exc:
        return {"point": label, "status": "aborted", "error": str(exc)}
    except OSError as exc:
        return {"point": label, "status": "os_error", "error": str(exc)}
    except MemoryError as exc:
        return {"point": label, "status": "out_of_memory", "error": str(exc)}
    except Exception as exc:  # a fault of the program, recorded so the other points and index.json survive it
        error = f"{type(exc).__name__}: {exc}"
        return {"point": label, "status": "internal_error", "error": error, "traceback": traceback.format_exc()}
    return {
        "point": label,
        "status": "ok",
        "dir": Path(out_dir).name,
        "digest": summary["digest"],
        "verdict": summary["verdict"],
        "final_V": summary["final"]["V"],
    }


def _parse_sweep(spec: str) -> tuple[str, list]:
    """Parse 'key=lo..hi' (inclusive int range) or 'key=a,b,c'."""
    if "=" not in spec:
        raise ConfigError(f"sweep spec must look like key=values, got {spec!r}")
    key, _, raw = spec.partition("=")
    key = key.strip()
    raw = raw.strip()
    if not key or not raw:
        raise ConfigError(f"sweep spec must look like key=values, got {spec!r}")
    if ".." in raw:
        lo_raw, _, hi_raw = raw.partition("..")
        try:
            lo, hi = int(lo_raw), int(hi_raw)
        except ValueError:
            raise ConfigError(f"sweep range bounds must be integers, got {raw!r}")
        if hi < lo:
            raise ConfigError(f"sweep range is empty: {raw!r}")
        return key, list(range(lo, hi + 1))
    try:
        values = [yaml.safe_load(part.strip()) for part in raw.split(",")]
    except yaml.YAMLError as exc:
        # YAML's message spans several lines; an error is reported on one
        raise ConfigError(f"sweep values {raw!r} are not valid YAML: {' '.join(str(exc).split())}")
    return key, values


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    out_root = Path(args.out)
    overrides = _overrides(args.record_every)
    if args.sweep is None:
        loaded = load_scenario_file(args.scenario, overrides)
        summary = _run_one(loaded, out_root)
        for warning in summary["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"wrote {out_root / 'trace.csv'} ({summary['rounds']} rounds, verdict: {summary['verdict']})")
        return 0

    key, values = _parse_sweep(args.sweep)
    if key in overrides:
        raise ConfigError(
            f"--sweep {key}=... and {_OVERRIDE_SOURCES[key]} both set {key}; every point would run the same scenario"
        )
    labels = [f"{key}={value}" for value in values]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            # YAML reads 1 and 01 alike, so a spelling can repeat a point too
            raise ConfigError(f"--sweep {args.sweep} lists the point {label} twice; both would write one directory")
    text = read_scenario_file(args.scenario)
    read_scenario_mapping(text)  # a malformed file is one error, not one per point
    jobs = [
        (text, str(out_root / label), {key: value, **overrides}, label) for label, value in zip(labels, values)
    ]

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            points = list(pool.map(_sweep_worker, jobs))
    else:
        points = [_sweep_worker(job) for job in jobs]

    out_root.mkdir(parents=True, exist_ok=True)
    index = {"sweep": args.sweep, "scenario": str(args.scenario), "points": points}
    with open(out_root / "index.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(index, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for point in points:
        status = point["status"]
        extra = point.get("verdict", point.get("error", ""))
        print(f"{point['point']}: {status} {extra}".rstrip())
    if any(p["status"] in ("aborted", "internal_error") for p in points):
        return 3
    if any(p["status"] != "ok" for p in points):
        return 2
    return 0


def check_report(loaded: LoadedScenario) -> list[str]:
    """The lines `check` prints; raises ConfigError for every scenario that `run` refuses."""
    scenario = loaded.scenario
    # the same refusal as `run`, before the constants divide by zero curvature
    honest_minimizer(scenario)
    try:
        constants = spectral_constants(scenario.ensemble, scenario.f, scenario.box)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        redundant = check_redundancy_sufficient(scenario.ensemble, scenario.f)
    except ValueError as exc:
        redundancy, reasons = f"not applicable ({exc})", ["redundancy not applicable"]
    else:
        redundancy, reasons = ("OK", []) if redundant else ("FAIL", ["not redundant"])
    if constants.alpha <= 0.0:
        reasons.append("alpha <= 0")
    bound = "" if constants.zeta_exact else " (upper bound)"
    lines = [f"{k} = {v:.10g}" + (bound if k == "zeta" else "") for k, v in _named_values(scenario, constants).items()]
    verdict = "OK" if not reasons else "FAIL (" + ", ".join(reasons) + ")"
    return lines + [f"redundancy: {redundancy}", f"convergence preconditions: {verdict}", f"digest: {loaded.digest}"]


def cmd_gen(args) -> int:
    params = {k: v for k, v in vars(args).items() if k not in ("command", "template") and v is not None}
    try:
        mapping = build_template(args.template, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    text = dump_scenario(mapping)
    check_report(parse_scenario_text(text))  # never print a file that `run` or `check` would refuse
    sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    print("\n".join(check_report(load_scenario_file(args.scenario, _overrides()))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzgrad",
        description="Deterministic simulator for fault-tolerant peer-to-peer gradient descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to the scenario YAML file")
    p_run.add_argument("-o", "--out", required=True, help="output directory for trace.csv and summary.json")
    p_run.add_argument("--record-every", type=int, default=None, help="trace stride override")
    p_run.add_argument("--sweep", default=None, metavar="KEY=VALUES", help="e.g. f=0..3 or adversary.kind=sign_flip,coord_extreme")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel sweep points")

    p_gen = sub.add_parser("gen", help="emit a scenario file on stdout")
    p_gen.add_argument("template", help=f"one of: {', '.join(TEMPLATES)}")
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--f", type=int, default=None)
    p_gen.add_argument("--d", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--xi", type=float, default=None)
    p_gen.add_argument("--horizon", type=int, default=None)
    p_gen.add_argument("--eta0", type=float, default=None)
    p_gen.add_argument("--eig-min", dest="eig_min", type=float, default=None)
    p_gen.add_argument("--eig-max", dest="eig_max", type=float, default=None)
    p_gen.add_argument("--record-every", dest="record_every", type=int, default=None)

    p_check = sub.add_parser("check", help="report the constants and verdicts of a scenario file")
    p_check.add_argument("scenario", help="path to the scenario YAML file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "gen": cmd_gen, "check": cmd_check}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    except SimulationAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
