"""Command-line front end: scenario files in, CSV traces and JSON summaries out.

    byzgrad run <scenario.yaml> -o <dir> [--record-every N] [--sweep f=0..3] [--jobs J]
    byzgrad gen <template> [--n --f --d --seed --xi --horizon ...]
    byzgrad check <scenario.yaml>

Exit codes: 0 on completion (verdicts live in summary.json, not the exit
code), 2 on configuration errors, 3 on a mid-run numeric abort. The
BYZGRAD_SEED environment variable overrides the file seed for ad-hoc
replays.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import yaml

from .costs import check_redundancy_sufficient, spectral_constants
from .errors import ConfigError, SimulationAbort
from .metrics import RoundTrace
from .scenario_io import ENV_SEED, TEMPLATES, LoadedScenario, build_template, dump_scenario, load_scenario_file, parse_scenario_text
from .simulator import RunResult, honest_minimizer, run

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


def build_summary(loaded: LoadedScenario, result: RunResult) -> dict:
    first, last = result.trace[0], result.trace[-1]
    constants = result.constants
    preconditions_ok = result.redundancy_ok and constants.alpha > 0.0
    scenario = loaded.scenario
    return {
        "digest": loaded.digest,
        "n": scenario.n,
        "f": scenario.f,
        "d": scenario.d,
        "xi": scenario.xi,
        "seed": scenario.seed,
        "mu": constants.mu,
        "lambda": constants.lam,
        "zeta": constants.zeta,
        "zeta_exact": constants.zeta_exact,
        "alpha": constants.alpha,
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


def _seed_override() -> int | None:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}")


def _run_one(loaded: LoadedScenario, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run(loaded.scenario)
    summary = build_summary(loaded, result)
    write_trace_csv(out_dir / "trace.csv", result.trace)
    write_summary(out_dir / "summary.json", summary)
    return summary


def _sweep_worker(args: tuple) -> dict:
    """Run one sweep point in a subprocess; never raises."""
    text, out_dir, record_override, seed_override, label = args
    try:
        loaded = parse_scenario_text(text, seed_override=seed_override, record_override=record_override)
        summary = _run_one(loaded, Path(out_dir))
    except ConfigError as exc:
        return {"point": label, "status": "config_error", "error": str(exc)}
    except SimulationAbort as exc:
        return {"point": label, "status": "aborted", "error": str(exc)}
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
    values = [yaml.safe_load(part.strip()) for part in raw.split(",")]
    return key, values


def _apply_sweep_value(mapping: dict, dotted: str, value) -> dict:
    out = dict(mapping)
    cursor = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        nested = cursor.get(part)
        nested = dict(nested) if isinstance(nested, dict) else {}
        cursor[part] = nested
        cursor = nested
    cursor[parts[-1]] = value
    return out


def cmd_run(args) -> int:
    out_root = Path(args.out)
    seed_override = _seed_override()
    if args.sweep is None:
        loaded = load_scenario_file(args.scenario, seed_override=seed_override, record_override=args.record_every)
        summary = _run_one(loaded, out_root)
        for warning in summary["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"wrote {out_root / 'trace.csv'} ({summary['rounds']} rounds, verdict: {summary['verdict']})")
        return 0

    key, values = _parse_sweep(args.sweep)
    with open(args.scenario, "r", encoding="utf-8") as handle:
        base = yaml.safe_load(handle.read())
    if not isinstance(base, dict):
        raise ConfigError("scenario file must be a mapping of keys to values")
    jobs = []
    for value in values:
        label = f"{key}={value}"
        point_text = dump_scenario(_apply_sweep_value(base, key, value))
        jobs.append((point_text, str(out_root / label), args.record_every, seed_override, label))

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
    if any(p["status"] == "aborted" for p in points):
        return 3
    if any(p["status"] == "config_error" for p in points):
        return 2
    return 0


def cmd_gen(args) -> int:
    params = {}
    for name in ("n", "f", "d", "seed", "horizon", "record_every"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    for name in ("xi", "eta0", "eig_min", "eig_max"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    try:
        mapping = build_template(args.template, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    sys.stdout.write(dump_scenario(mapping))
    return 0


def cmd_check(args) -> int:
    loaded = load_scenario_file(args.scenario, seed_override=_seed_override())
    scenario = loaded.scenario
    # the same refusal as `run`, before the constants divide by zero curvature
    honest_minimizer(scenario.ensemble)
    constants = spectral_constants(scenario.ensemble, scenario.f, scenario.box)
    try:
        redundancy_ok = check_redundancy_sufficient(scenario.ensemble, scenario.f)
    except ValueError:
        redundancy_ok = False
    reasons = []
    if not redundancy_ok:
        reasons.append("not redundant")
    if constants.alpha <= 0.0:
        reasons.append("alpha <= 0")
    print(f"n = {scenario.n}")
    print(f"f = {scenario.f}")
    print(f"d = {scenario.d}")
    print(f"xi = {scenario.xi:.10g}")
    print(f"mu = {constants.mu:.10g}")
    print(f"lambda = {constants.lam:.10g}")
    print(f"zeta = {constants.zeta:.10g}" + ("" if constants.zeta_exact else " (upper bound)"))
    print(f"alpha = {constants.alpha:.10g}")
    print(f"redundancy: {'OK' if redundancy_ok else 'FAIL'}")
    verdict = "OK" if not reasons else "FAIL (" + ", ".join(reasons) + ")"
    print(f"convergence preconditions: {verdict}")
    print(f"digest: {loaded.digest}")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
