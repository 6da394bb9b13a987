"""Scenario files: parsing, strict validation, templates, and digests.

A scenario file is YAML describing one runtime Scenario:

    version: 1
    n: 10
    f: 2
    d: 3
    xi: 10.0
    seed: 7
    horizon: 20000
    record_every: 2          # optional; default keeps ~10000 trace rows
    faulty_ids: [8, 9]       # optional; default []
    init: uniform            # or {points: [[...], ...]} with n rows
    schedule: {kind: harmonic, eta0: 1.0}          # or kind: polynomial, p: 0.75
    adversary: {kind: collude_target, target: [10.0, 10.0, 10.0], estimates: random_in_box}
    ensemble:
      generator: {seed: 7, eig_min: 1.0, eig_max: 1.0, x_star: [1.0, -2.0, 0.5]}
      # or explicit costs: [{A: [[...], ...], b: [...], c: 0.0}, ...]

Unknown keys anywhere are a hard error: a typo must never silently fall
back to a default. The root seed must lie in [0, 2^64 - 1], the range of
the 64-bit Philox key. Overrides (dotted keys such as `seed` or
`adversary.scale`) replace the file's values before validation, so they
pass the same checks; an error in an overridden value carries no line,
and every other error cites the line of the text. The digest is a
content hash of the *effective* configuration (defaults resolved,
overrides applied), so two files that behave identically hash
identically and an override is visible in the hash.
"""

import hashlib
import inspect
import json
from dataclasses import dataclass

import numpy as np
import yaml

from .costs import CostEnsemble, QuadraticCost, check_hessians_fit, make_redundant_ensemble, spectral_constants
from .errors import ConfigError
from .filters import Hypercube
from .protocol import ADVERSARY_KINDS, AdversaryStrategy, StepSchedule
from .seeds import MAX_SEED, PURPOSE_TEMPLATE, Substreams
from .simulator import Scenario

SCHEMA_VERSION = 1
ENV_SEED = "BYZGRAD_SEED"

_TOP_KEYS = {
    "version", "n", "f", "d", "xi", "seed", "horizon", "record_every",
    "faulty_ids", "init", "schedule", "adversary", "ensemble",
}
_REQUIRED = ("version", "n", "f", "d", "xi", "seed", "horizon", "ensemble")


@dataclass(frozen=True)
class LoadedScenario:
    scenario: Scenario
    effective: dict  # the resolved configuration the digest is taken over
    digest: str


def _key_lines(node, path=(), out=None):
    """Map every key path in the YAML node tree to its 1-based line."""
    if out is None:
        out = {}
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            sub = path + (getattr(key_node, "value", "?"),)
            out[sub] = key_node.start_mark.line + 1
            _key_lines(value_node, sub, out)
    elif isinstance(node, yaml.SequenceNode):
        for idx, item in enumerate(node.value):
            _key_lines(item, path + (idx,), out)
    return out


class _Check:
    """Validation helpers that pinpoint the offending line."""

    def __init__(self, lines: dict):
        self.lines = lines

    def fail(self, message: str, path: tuple) -> None:
        raise ConfigError(message, line=self.lines.get(path))

    def mapping(self, value, allowed: set, path: tuple) -> dict:
        if not isinstance(value, dict):
            self.fail(f"'{'.'.join(map(str, path))}' must be a mapping", path)
        for key in value:
            if key not in allowed:
                self.fail(f"unknown key {key!r} (allowed: {sorted(allowed)})", path + (key,))
        return value

    def integer(self, value, name: str, path: tuple, minimum: int | None = None) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(f"{name} must be an integer", path)
        if minimum is not None and value < minimum:
            self.fail(f"{name} must be >= {minimum}, got {value}", path)
        return value

    def number(self, value, name: str, path: tuple) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(f"{name} must be a number", path)
        return float(value)

    def vector(self, value, name: str, path: tuple, dim: int) -> list[float]:
        if not isinstance(value, list) or len(value) != dim:
            self.fail(f"{name} must be a list of {dim} numbers", path)
        return [self.number(v, f"{name}[{k}]", path) for k, v in enumerate(value)]


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml when built in; both refuse unprintable characters


def read_scenario_mapping(text: str) -> tuple[dict, yaml.Node]:
    """Compose YAML text once; return the mapping it holds and its node tree."""
    try:
        loader = _LOADER(text)
        node = loader.get_single_node()
        data = None if node is None else loader.construct_document(node)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml cannot take a lone surrogate, SafeLoader refuses it
        mark = getattr(exc, "problem_mark", None)
        raise ConfigError(f"not valid YAML: {exc}", line=None if mark is None else mark.line + 1)
    if not isinstance(data, dict):
        raise ConfigError("scenario file must be a mapping of keys to values")
    return data, node


def _put(mapping: dict, path: tuple, value) -> dict:
    """A copy of `mapping` with `value` at `path`; missing or non-mapping parents become mappings."""
    if len(path) == 1:
        return {**mapping, path[0]: value}
    nested = mapping.get(path[0])
    return {**mapping, path[0]: _put(nested if isinstance(nested, dict) else {}, path[1:], value)}


def parse_scenario_text(text: str, overrides: dict | None = None) -> LoadedScenario:
    """Parse, validate, and assemble a scenario from YAML text.

    `overrides` maps dotted keys (`"seed"`, `"adversary.scale"`) to values
    that replace the file's before anything is validated, so an override
    passes the same checks as the file and shows up in the effective
    configuration and therefore in the digest. An error in an overridden
    value cites no line; every other error cites the line of `text`.
    """
    data, node = read_scenario_mapping(text)
    lines = _key_lines(node)
    for dotted, value in (overrides or {}).items():
        path = tuple(dotted.split("."))
        data = _put(data, path, value)
        lines = {key: line for key, line in lines.items() if key[: len(path)] != path}
    check = _Check(lines)
    check.mapping(data, _TOP_KEYS, ())
    for key in _REQUIRED:
        if key not in data:
            raise ConfigError(f"missing required key {key!r}")

    version = check.integer(data["version"], "version", ("version",))
    if version != SCHEMA_VERSION:
        check.fail(f"unsupported scenario version {version}; this build reads version {SCHEMA_VERSION}", ("version",))

    n = check.integer(data["n"], "n", ("n",), minimum=1)
    f = check.integer(data["f"], "f", ("f",), minimum=0)
    d = check.integer(data["d"], "d", ("d",), minimum=1)
    if n < 2 * f + 1:
        check.fail(f"n >= 2f+1 is required for trimming, got n={n}, f={f}", ("n",))
    xi = check.number(data["xi"], "xi", ("xi",))
    if not (0.0 < xi < np.inf):
        check.fail(f"xi must be positive and finite, got {xi}", ("xi",))
    seed = check.integer(data["seed"], "seed", ("seed",))
    if not 0 <= seed <= MAX_SEED:
        check.fail(f"seed must lie in 0..2**64-1, got {seed}", ("seed",))
    horizon = check.integer(data["horizon"], "horizon", ("horizon",), minimum=1)
    record_every = None
    if "record_every" in data:
        record_every = check.integer(data["record_every"], "record_every", ("record_every",), minimum=1)

    faulty_raw = data.get("faulty_ids", [])
    if not isinstance(faulty_raw, list):
        check.fail("faulty_ids must be a list of agent ids", ("faulty_ids",))
    faulty_ids = [check.integer(v, f"faulty_ids[{k}]", ("faulty_ids", k)) for k, v in enumerate(faulty_raw)]
    if len(set(faulty_ids)) != len(faulty_ids):
        check.fail("faulty_ids contains duplicates", ("faulty_ids",))
    if any(not 0 <= i < n for i in faulty_ids):
        check.fail(f"faulty_ids must lie in 0..{n - 1}", ("faulty_ids",))
    if len(faulty_ids) > f:
        check.fail(f"{len(faulty_ids)} faulty ids exceed the declared bound f={f}", ("faulty_ids",))

    init_raw = data.get("init", "uniform")
    if init_raw == "uniform":
        init = "uniform"
        init_effective = "uniform"
    else:
        init_map = check.mapping(init_raw, {"points"}, ("init",))
        if "points" not in init_map:
            check.fail("explicit init needs a 'points' list", ("init",))
        rows = init_map["points"]
        if not isinstance(rows, list) or len(rows) != n:
            check.fail(f"init points must list one point per agent ({n})", ("init", "points"))
        points = [check.vector(row, f"points[{k}]", ("init", "points", k), d) for k, row in enumerate(rows)]
        init = np.asarray(points, dtype=np.float64)
        init_effective = {"points": points}

    sched_map = check.mapping(data.get("schedule", {"kind": "harmonic", "eta0": 1.0}), {"kind", "eta0", "p"}, ("schedule",))
    try:
        schedule = StepSchedule(
            kind=sched_map.get("kind", "harmonic"),
            eta0=check.number(sched_map.get("eta0", 1.0), "eta0", ("schedule", "eta0")),
            p=check.number(sched_map.get("p", 1.0), "p", ("schedule", "p")),
        )
    except ValueError as exc:
        check.fail(str(exc), ("schedule",))

    adv_map = check.mapping(data.get("adversary", {"kind": "random_in_box"}), {"kind", "scale", "target", "estimates"}, ("adversary",))
    adv_kind = adv_map.get("kind")
    if adv_kind not in ADVERSARY_KINDS:
        check.fail(f"unknown adversary kind {adv_kind!r}; known: {ADVERSARY_KINDS}", ("adversary", "kind"))
    adv_target = None
    if "target" in adv_map:
        adv_target = check.vector(adv_map["target"], "target", ("adversary", "target"), d)
    try:
        adversary = AdversaryStrategy(
            kind=adv_kind,
            scale=None if "scale" not in adv_map else check.number(adv_map["scale"], "scale", ("adversary", "scale")),
            target=None if adv_target is None else np.asarray(adv_target),
            estimates=adv_map.get("estimates", "target"),
        )
    except ValueError as exc:
        check.fail(str(exc), ("adversary",))

    ens_map = check.mapping(data["ensemble"], {"generator", "costs"}, ("ensemble",))
    if ("generator" in ens_map) == ("costs" in ens_map):
        check.fail("ensemble needs exactly one of 'generator' or 'costs'", ("ensemble",))
    honest_set = frozenset(range(n)) - frozenset(faulty_ids)
    if "generator" in ens_map:
        gen = check.mapping(ens_map["generator"], {"seed", "eig_min", "eig_max", "x_star"}, ("ensemble", "generator"))
        for key in ("seed", "eig_min", "eig_max", "x_star"):
            if key not in gen:
                check.fail(f"generator spec needs {key!r}", ("ensemble", "generator"))
        gen_seed = check.integer(gen["seed"], "generator seed", ("ensemble", "generator", "seed"))
        eig_min = check.number(gen["eig_min"], "eig_min", ("ensemble", "generator", "eig_min"))
        eig_max = check.number(gen["eig_max"], "eig_max", ("ensemble", "generator", "eig_max"))
        x_star = check.vector(gen["x_star"], "x_star", ("ensemble", "generator", "x_star"), d)
        if not Hypercube(xi, d).contains(np.asarray(x_star)):
            check.fail("generator x_star must lie inside the box", ("ensemble", "generator", "x_star"))
        try:
            generated = make_redundant_ensemble(n, f, d, x_star, gen_seed, eig_min, eig_max)
        except ValueError as exc:
            check.fail(str(exc), ("ensemble", "generator"))
        ensemble = CostEnsemble(costs=generated.costs, honest_set=honest_set)
        ens_effective = {"generator": {"seed": gen_seed, "eig_min": eig_min, "eig_max": eig_max, "x_star": x_star}}
    else:
        entries = ens_map["costs"]
        if not isinstance(entries, list) or len(entries) != n:
            check.fail(f"ensemble costs must list one cost per agent ({n})", ("ensemble", "costs"))
        costs = []
        costs_effective = []
        for k, entry in enumerate(entries):
            path = ("ensemble", "costs", k)
            entry = check.mapping(entry, {"A", "b", "c"}, path)
            if "A" not in entry or "b" not in entry:
                check.fail(f"cost {k} needs 'A' and 'b'", path)
            a_rows = entry["A"]
            if not isinstance(a_rows, list) or len(a_rows) != d:
                check.fail(f"cost {k}: A must be a {d}x{d} matrix", path + ("A",))
            A = [check.vector(row, f"A[{r}]", path + ("A", r), d) for r, row in enumerate(a_rows)]
            b = check.vector(entry["b"], "b", path + ("b",), d)
            c = check.number(entry.get("c", 0.0), "c", path + ("c",))
            try:
                costs.append(QuadraticCost(A=np.asarray(A), b=np.asarray(b), c=c))
            except ValueError as exc:
                check.fail(f"cost {k}: {exc}", path)
            costs_effective.append({"A": A, "b": b, "c": c})
        ensemble = CostEnsemble(costs=tuple(costs), honest_set=honest_set)
        ens_effective = {"costs": costs_effective}

    try:
        scenario = Scenario(
            f=f, xi=xi,
            ensemble=ensemble,
            adversary=adversary,
            schedule=schedule,
            horizon=horizon,
            seed=seed,
            init=init,
            record_every=record_every,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    effective = {
        "version": SCHEMA_VERSION,
        "n": n, "f": f, "d": d, "xi": xi,
        "seed": seed,
        "horizon": horizon,
        "record_every": scenario.stride,
        "faulty_ids": sorted(faulty_ids),
        "init": init_effective,
        "schedule": {"kind": schedule.kind, "eta0": schedule.eta0, "p": schedule.p},
        "adversary": _strategy_mapping(adversary),
        "ensemble": ens_effective,
    }
    return LoadedScenario(scenario=scenario, effective=effective, digest=scenario_digest(effective))


def _strategy_mapping(strategy: AdversaryStrategy) -> dict:
    out = {"kind": strategy.kind}
    if strategy.scale is not None:
        out["scale"] = float(strategy.scale)
    if strategy.target is not None:
        out["target"] = [float(v) for v in strategy.target]
        out["estimates"] = strategy.estimates
    return out


def read_scenario_file(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file: {exc}")


def load_scenario_file(path, overrides: dict | None = None) -> LoadedScenario:
    return parse_scenario_text(read_scenario_file(path), overrides)


def scenario_digest(effective: dict) -> str:
    """Stable content hash of a resolved configuration."""
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dump_scenario(mapping: dict) -> str:
    """Render a scenario mapping as a YAML document."""
    return yaml.safe_dump(mapping, sort_keys=False, default_flow_style=None, width=100)


def _interior_point(seed: int, d: int, xi: float) -> list[float]:
    return [float(v) for v in Substreams(seed, PURPOSE_TEMPLATE).uniform([()], -0.5 * xi, 0.5 * xi, d)[0]]


def template_redundant_quadratic(
    n: int = 10,
    f: int = 2,
    d: int = 3,
    seed: int = 7,
    xi: float = 10.0,
    horizon: int = 20000,
    eta0: float = 1.0,
    eig_min: float = 1.0,
    eig_max: float = 1.0,
    record_every: int | None = None,
) -> dict:
    """A redundant ensemble under a colluding attack from the last f agents.

    The colluders push toward a box corner and scatter per-receiver random
    estimates; the honest minimizer sits at a seed-derived interior point.
    """
    if n < 2 * f + 1:
        raise ValueError(f"need n >= 2f+1, got n={n}, f={f}")
    Hypercube(float(xi), d)  # refuses xi and d before anything is drawn
    check_hessians_fit(n, d)
    adversary = {"kind": "collude_target", "target": [float(xi)] * d, "estimates": "random_in_box"}
    generator = {
        "seed": seed,
        "eig_min": float(eig_min),
        "eig_max": float(eig_max),
        "x_star": _interior_point(seed, d, xi),
    }
    return _template_mapping(n, f, d, seed, xi, horizon, eta0, record_every, adversary, {"generator": generator})


def template_violated_redundancy(
    n: int = 5,
    f: int = 1,
    d: int = 1,
    seed: int = 7,
    xi: float = 10.0,
    horizon: int = 500,
    eta0: float = 1.0,
    record_every: int | None = None,
) -> dict:
    """Identity-Hessian agents whose minimizers deliberately disagree."""
    if f < 1:
        raise ValueError("violated_redundancy needs f >= 1; f = 0 is always redundant")
    if n < 2 * f + 1:
        raise ValueError(f"need n >= 2f+1, got n={n}, f={f}")
    Hypercube(float(xi), d)  # refuses xi and d before anything is built
    check_hessians_fit(n, d)
    spread = np.linspace(-0.5 * xi, 0.5 * xi, n)
    costs = []
    for i in range(n):
        b = [0.0] * d
        b[0] = float(spread[i])
        costs.append({"A": np.eye(d).tolist(), "b": b, "c": 0.0})
    return _template_mapping(n, f, d, seed, xi, horizon, eta0, record_every, {"kind": "sign_flip"}, {"costs": costs})


def template_margin_negative(
    n: int = 10,
    f: int = 4,
    d: int = 9,
    seed: int = 7,
    xi: float = 10.0,
    horizon: int = 500,
    eta0: float = 1.0,
    record_every: int | None = None,
) -> dict:
    """A redundant ensemble whose fault-tolerance margin is non-positive.

    Starts from identical isotropic costs; if those still leave a positive
    margin, one stiff agent among near-flat ones inflates the smoothness /
    convexity ratio until the margin goes non-positive.
    """
    if f < 1:
        raise ValueError("margin_negative needs f >= 1; the margin is positive when f = 0")
    if n < 2 * f + 1:
        raise ValueError(f"need n >= 2f+1, got n={n}, f={f}")
    box = Hypercube(float(xi), d)  # refuses xi and d before anything is drawn
    check_hessians_fit(n, d)
    x_star = _interior_point(seed, d, xi)
    honest_set = frozenset(range(n - f))  # as _template_mapping declares

    def build(eps: float | None) -> list[dict]:
        out = []
        for i in range(n):
            scale = 1.0 if (eps is None or i == 0) else eps
            A = (scale * np.eye(d)).tolist()
            b = (scale * np.asarray(x_star)).tolist()
            out.append({"A": A, "b": b, "c": 0.0})
        return out

    def margin(costs: list[dict]) -> float:
        ensemble = CostEnsemble(
            costs=tuple(QuadraticCost(A=np.asarray(e["A"]), b=np.asarray(e["b"]), c=e["c"]) for e in costs),
            honest_set=honest_set,
        )
        return spectral_constants(ensemble, f, box).alpha

    costs = build(None)
    eps = 1e-2
    while margin(costs) > 0.0:
        costs = build(eps)
        eps *= 0.1
        if eps < 1e-12:
            raise ValueError("could not drive the margin non-positive")  # unreachable for f >= 1
    return _template_mapping(n, f, d, seed, xi, horizon, eta0, record_every, {"kind": "sign_flip"}, {"costs": costs})


def _template_mapping(n, f, d, seed, xi, horizon, eta0, record_every, adversary, ensemble) -> dict:
    """The scenario mapping every template shares: the last f agents are faulty."""
    mapping = {
        "version": SCHEMA_VERSION,
        "n": n, "f": f, "d": d, "xi": float(xi),
        "seed": seed,
        "horizon": horizon,
        "faulty_ids": list(range(n - f, n)),
        "init": "uniform",
        "schedule": {"kind": "harmonic", "eta0": float(eta0)},
        "adversary": adversary,
        "ensemble": ensemble,
    }
    if record_every is not None:
        mapping["record_every"] = record_every
    return mapping


_TEMPLATE_BUILDERS = {
    "redundant_quadratic": template_redundant_quadratic,
    "violated_redundancy": template_violated_redundancy,
    "margin_negative": template_margin_negative,
}
TEMPLATES = tuple(_TEMPLATE_BUILDERS)


def build_template(name: str, **params) -> dict:
    """Dispatch a template by its scenario-file name."""
    if name not in _TEMPLATE_BUILDERS:
        raise ValueError(f"unknown template {name!r}; known: {TEMPLATES}")
    make_mapping = _TEMPLATE_BUILDERS[name]
    unknown = sorted(set(params) - set(inspect.signature(make_mapping).parameters))
    if unknown:
        raise ValueError(f"template {name!r} takes no parameter {', '.join(unknown)}")
    return make_mapping(**params)
