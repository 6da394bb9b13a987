import dataclasses

import numpy as np
import pytest
import yaml

import byzgrad.scenario_io
from byzgrad import ConfigError, check_redundancy_sufficient, run, spectral_constants
from byzgrad.scenario_io import (
    build_template,
    dump_scenario,
    parse_scenario_text,
    scenario_digest,
)

MINIMAL = """\
version: 1
n: 5
f: 1
d: 2
xi: 4.0
seed: 11
horizon: 40
faulty_ids: [4]
schedule: {kind: harmonic, eta0: 1.0}
adversary: {kind: sign_flip}
ensemble:
  generator: {seed: 11, eig_min: 1.0, eig_max: 1.0, x_star: [0.5, -0.5]}
"""


class TestParsing:
    def test_minimal_file_parses(self):
        loaded = parse_scenario_text(MINIMAL)
        scenario = loaded.scenario
        assert scenario.n == 5 and scenario.f == 1 and scenario.d == 2
        assert scenario.faulty_ids == frozenset({4})
        assert scenario.ensemble.honest_set == frozenset({0, 1, 2, 3})

    def test_unknown_top_level_key_pinpoints_line(self):
        text = MINIMAL + "typo_key: 3\n"
        with pytest.raises(ConfigError, match="unknown key 'typo_key'") as info:
            parse_scenario_text(text)
        assert "line 13" in str(info.value)

    def test_unknown_nested_key_rejected(self):
        text = MINIMAL.replace("{kind: sign_flip}", "{kind: sign_flip, strength: 2}")
        with pytest.raises(ConfigError, match="unknown key 'strength'"):
            parse_scenario_text(text)

    def test_version_mismatch(self):
        with pytest.raises(ConfigError, match="version"):
            parse_scenario_text(MINIMAL.replace("version: 1", "version: 99"))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'horizon'"):
            parse_scenario_text(MINIMAL.replace("horizon: 40\n", ""))

    def test_trim_invariant_cited(self):
        bad = MINIMAL.replace("n: 5", "n: 4").replace("f: 1", "f: 2").replace("faulty_ids: [4]", "faulty_ids: [3]")
        with pytest.raises(ConfigError, match=r"n >= 2f\+1"):
            parse_scenario_text(bad)

    def test_not_yaml(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_scenario_text("n: [unclosed")

    def test_faulty_ids_validation(self):
        with pytest.raises(ConfigError, match="duplicates"):
            parse_scenario_text(MINIMAL.replace("faulty_ids: [4]", "faulty_ids: [4, 4]").replace("f: 1", "f: 2"))
        with pytest.raises(ConfigError, match="exceed"):
            parse_scenario_text(MINIMAL.replace("faulty_ids: [4]", "faulty_ids: [3, 4]"))

    def test_explicit_costs_parse(self):
        text = """\
version: 1
n: 2
f: 0
d: 1
xi: 5.0
seed: 3
horizon: 10
ensemble:
  costs:
    - {A: [[1.0]], b: [1.0]}
    - {A: [[1.0]], b: [3.0], c: 0.5}
"""
        loaded = parse_scenario_text(text)
        assert loaded.scenario.ensemble.costs[1].c == 0.5
        result = run(loaded.scenario)
        assert result.x_star[0] == pytest.approx(2.0, abs=1e-12)

    def test_explicit_init_points(self):
        text = MINIMAL + "init:\n  points: [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4], [0.5, 0.5]]\n"
        loaded = parse_scenario_text(text)
        assert isinstance(loaded.scenario.init, np.ndarray)

    def test_out_of_box_init_rejected(self):
        text = MINIMAL + "init:\n  points: [[9.0, 0.0], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4], [0.5, 0.5]]\n"
        with pytest.raises(ConfigError, match="outside the box"):
            parse_scenario_text(text)

    def test_x_star_must_sit_in_box(self):
        bad = MINIMAL.replace("x_star: [0.5, -0.5]", "x_star: [9.0, 0.0]")
        with pytest.raises(ConfigError, match="x_star"):
            parse_scenario_text(bad)

    def test_generator_requires_all_fields(self):
        bad = MINIMAL.replace("seed: 11, ", "")
        # the outer seed remains; only the generator seed was removed
        with pytest.raises(ConfigError, match="generator spec needs 'seed'"):
            parse_scenario_text(bad)


def same(a, b) -> bool:
    """Field-by-field equality for the dataclasses, arrays and tuples a Scenario holds."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


OVERRIDES = [("seed", 12), ("f", 2), ("record_every", 3), ("schedule.eta0", 0.5), ("adversary.scale", 2.0)]


# Texts that must be refused, each with the line the error cites (None: no line).
UNPRINTABLE = ["\x00", "\x07", "\x0b", "\x1b", "\x7f", "\x80", "\x9f", "\ufffe", "\uffff", "\ud800"]
REFUSED_TEXTS = {
    **{f"unprintable_{ord(c):04x}_in_value": (MINIMAL.replace("horizon: 40", f"horizon: 4{c}0"), None) for c in UNPRINTABLE},
    **{f"unprintable_{ord(c):04x}_in_comment": ("# " + c + "\n" + MINIMAL, None) for c in UNPRINTABLE},
    "unclosed_flow": (MINIMAL.replace("faulty_ids: [4]", "faulty_ids: [4"), 9),
    "unclosed_quote": (MINIMAL.replace("xi: 4.0", "xi: '4.0"), 13),
    "tab_indent": (MINIMAL + "extra:\n\tkey: 1\n", 14),
    "bad_indent": (MINIMAL.replace("schedule: {kind: harmonic, eta0: 1.0}", "schedule:\n  kind: harmonic\n eta0: 1.0"), 11),
    "two_documents": (MINIMAL + "---\nversion: 1\n", 13),
    "unknown_alias": (MINIMAL.replace("xi: 4.0", "xi: *s"), 5),
    "mapping_in_scalar": (MINIMAL.replace("n: 5", "n: a: 5"), 2),
    "python_tag": (MINIMAL.replace("n: 5", "n: !!python/object:os.system x"), 2),
    "bad_escape": (MINIMAL.replace("xi: 4.0", 'xi: "\\q"'), 5),
    "sequence": ("- 1\n- 2\n", None),
    "bad_value_on_known_line": (MINIMAL.replace("horizon: 40", "horizon: -4"), 7),
    "unknown_nested_key": (MINIMAL.replace("eta0: 1.0}", "eta0: 1.0, p: 2, q: 3}"), 9),
}


class TestLoaders:
    """The libyaml loader must refuse exactly what the pure-Python one refuses, citing the same lines."""

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("case", REFUSED_TEXTS)
    def test_both_loaders_refuse_alike(self, monkeypatch, case):
        text, line = REFUSED_TEXTS[case]
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(byzgrad.scenario_io, "_LOADER", loader)
            with pytest.raises(ConfigError) as refused:
                parse_scenario_text(text)
            assert refused.value.line == line, loader.__name__

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_both_loaders_build_the_same_scenario(self, monkeypatch):
        text = dump_scenario(build_template("margin_negative", seed=5))
        loaded = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(byzgrad.scenario_io, "_LOADER", loader)
            loaded.append(parse_scenario_text(text))
        assert loaded[0].digest == loaded[1].digest and loaded[0].effective == loaded[1].effective


class TestOverrides:
    @pytest.mark.parametrize("dotted, value", OVERRIDES, ids=[key for key, _ in OVERRIDES])
    def test_same_as_editing_the_file(self, dotted, value):
        mapping = yaml.safe_load(MINIMAL)
        *parents, last = dotted.split(".")
        cursor = mapping
        for part in parents:
            cursor = cursor[part]
        cursor[last] = value
        edited = parse_scenario_text(dump_scenario(mapping))
        overridden = parse_scenario_text(MINIMAL, {dotted: value})
        assert overridden.digest == edited.digest
        assert same(overridden.scenario, edited.scenario)

    @pytest.mark.parametrize(
        "dotted, value, message",
        [("horizon", 0, "horizon must be >= 1"), ("record_every", 0, "record_every must be >= 1"), ("seed", -1, "seed must lie")],
    )
    def test_error_in_an_override_cites_no_line(self, dotted, value, message):
        with pytest.raises(ConfigError, match=message) as info:
            parse_scenario_text(MINIMAL, {dotted: value})
        assert info.value.line is None

    def test_parents_keep_their_lines(self):
        # adversary.kind loses its line; the adversary mapping on line 10 keeps its own
        with pytest.raises(ConfigError, match="norm_inflate needs a finite scale") as info:
            parse_scenario_text(MINIMAL, {"adversary.kind": "norm_inflate"})
        assert info.value.line == 10

    def test_missing_parent_becomes_a_mapping(self):
        loaded = parse_scenario_text(MINIMAL.replace("schedule: {kind: harmonic, eta0: 1.0}\n", ""), {"schedule.eta0": 0.5})
        assert loaded.effective["schedule"] == {"kind": "harmonic", "eta0": 0.5, "p": 1.0}


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_file_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ConfigError, match=r"seed must lie in 0\.\.2\*\*64-1") as info:
            parse_scenario_text(MINIMAL.replace("\nseed: 11\n", f"\nseed: {seed}\n"))
        assert info.value.line == 6

    def test_largest_seed_accepted(self):
        loaded = parse_scenario_text(MINIMAL.replace("\nseed: 11\n", f"\nseed: {2**64 - 1}\n"))
        assert loaded.scenario.seed == 2**64 - 1


class TestDigest:
    def test_stable_across_parses(self):
        assert parse_scenario_text(MINIMAL).digest == parse_scenario_text(MINIMAL).digest

    def test_seed_override_changes_digest_but_keeps_costs(self):
        base = parse_scenario_text(MINIMAL)
        overridden = parse_scenario_text(MINIMAL, overrides={"seed": 999})
        assert base.digest != overridden.digest
        assert overridden.scenario.seed == 999
        for ca, cb in zip(base.scenario.ensemble.costs, overridden.scenario.ensemble.costs):
            assert np.array_equal(ca.A, cb.A) and np.array_equal(ca.b, cb.b)

    def test_content_changes_digest(self):
        other = parse_scenario_text(MINIMAL.replace("horizon: 40", "horizon: 41"))
        assert other.digest != parse_scenario_text(MINIMAL).digest

    def test_record_override_lands_in_digest(self):
        assert (
            parse_scenario_text(MINIMAL, overrides={"record_every": 3}).digest
            != parse_scenario_text(MINIMAL).digest
        )

    def test_digest_is_over_effective_mapping(self):
        loaded = parse_scenario_text(MINIMAL)
        assert loaded.digest == scenario_digest(loaded.effective)


class TestTemplates:
    def test_redundant_quadratic_round_trips(self):
        mapping = build_template("redundant_quadratic", n=10, f=2, d=2, seed=5, horizon=50)
        loaded = parse_scenario_text(dump_scenario(mapping))
        scenario = loaded.scenario
        assert scenario.n == 10 and scenario.f == 2
        assert scenario.faulty_ids == frozenset({8, 9})
        assert check_redundancy_sufficient(scenario.ensemble, scenario.f)
        consts = spectral_constants(scenario.ensemble, scenario.f, scenario.box)
        assert consts.alpha > 0

    def test_violated_redundancy_template(self):
        mapping = build_template("violated_redundancy", n=5, f=1, d=1, horizon=30)
        loaded = parse_scenario_text(dump_scenario(mapping))
        assert not check_redundancy_sufficient(loaded.scenario.ensemble, loaded.scenario.f)

    def test_margin_negative_template(self):
        mapping = build_template("margin_negative", n=10, f=4, d=9, horizon=30)
        loaded = parse_scenario_text(dump_scenario(mapping))
        consts = spectral_constants(loaded.scenario.ensemble, loaded.scenario.f, loaded.scenario.box)
        assert consts.alpha <= 0.0
        # identity Hessians suffice here: alpha = 1/(1+2*sqrt(d)) - f/n
        assert consts.alpha == pytest.approx(1.0 / 7.0 - 0.4, abs=1e-12)

    def test_margin_negative_falls_back_to_heterogeneous(self):
        # f/n = 1/5 with d = 1 leaves identity Hessians positive, so the
        # template must inflate the smoothness ratio instead
        mapping = build_template("margin_negative", n=5, f=1, d=1, horizon=30)
        loaded = parse_scenario_text(dump_scenario(mapping))
        consts = spectral_constants(loaded.scenario.ensemble, loaded.scenario.f, loaded.scenario.box)
        assert consts.alpha <= 0.0
        assert check_redundancy_sufficient(loaded.scenario.ensemble, loaded.scenario.f)

    def test_margin_negative_needs_faults(self):
        with pytest.raises(ValueError, match="f >= 1"):
            build_template("margin_negative", n=5, f=0, d=2)

    def test_unknown_template(self):
        with pytest.raises(ValueError, match="unknown template"):
            build_template("nonsense")

    def test_unknown_parameter_named(self):
        with pytest.raises(ValueError, match="'violated_redundancy' takes no parameter eig_max, eig_min"):
            build_template("violated_redundancy", eig_min=0.5, eig_max=2.0)

    def test_templates_are_deterministic(self):
        a = build_template("redundant_quadratic", seed=3)
        b = build_template("redundant_quadratic", seed=3)
        assert dump_scenario(a) == dump_scenario(b)
