"""Golden trajectories: sha256 of `trace.csv` for short runs through the CLI.

Every row is written with 17 significant digits, so a digest pins each
recorded value bit for bit. A change to the round engine that is meant to
be a pure refactor or speed-up must leave every digest here unchanged; a
change that alters trajectories on purpose replaces them and says why.
"""

import hashlib

import pytest

from byzgrad.cli import main
from byzgrad.scenario_io import build_template, dump_scenario

TARGET = [10.0, 10.0, 10.0]

# name -> (template, template parameters, adversary override or None)
CASES = {
    "sign_flip": ("redundant_quadratic", dict(n=10, f=2, d=3, horizon=1000), {"kind": "sign_flip"}),
    "norm_inflate": ("redundant_quadratic", dict(n=10, f=2, d=3, horizon=1000), {"kind": "norm_inflate", "scale": 25.0}),
    "coord_extreme": ("redundant_quadratic", dict(n=10, f=2, d=3, horizon=1000), {"kind": "coord_extreme"}),
    "random_in_box": ("redundant_quadratic", dict(n=10, f=2, d=3, horizon=1000), {"kind": "random_in_box"}),
    "collude_target": (
        "redundant_quadratic", dict(n=10, f=2, d=3, horizon=1000), {"kind": "collude_target", "target": TARGET},
    ),
    "collude_target_random_estimates": ("redundant_quadratic", dict(n=10, f=2, d=3, horizon=1500), None),
    "n40_d1": ("redundant_quadratic", dict(n=40, f=7, d=1, horizon=300), None),
    "fault_free": ("redundant_quadratic", dict(n=10, f=0, d=3, horizon=500), None),
    "n100": ("redundant_quadratic", dict(n=100, f=19, d=3, horizon=40), None),
    "margin_negative": ("margin_negative", dict(horizon=500), None),
    "violated_redundancy": ("violated_redundancy", dict(horizon=500), None),
}

DIGESTS = {
    "collude_target": "65639e56485be332da794dea6b2c203c7527f56560812a222fab5202955d300c",
    "collude_target_random_estimates": "7cf810e0bc755cab74ce4db689fcc2200aefc9c659541c31c450d423c53e7790",
    "coord_extreme": "6d2cc8bdb97cd9d03b4ad11787e939ce9a8dba7dd184564f67f9546ccd0dc509",
    "fault_free": "78b4b27c8734cf2ffb385e0470766a31fac7f711b59f099c97c886dcd11e714d",
    "margin_negative": "f1e5438ffe116424b47d07ab9bb005f7030b603b274fcc06355cbb239971861e",
    "n100": "80e72efdfe17b9fd7630fc40dde440645aa61ad063e191824a7ec4cce512718e",
    "n40_d1": "bbb0a036179b82cf63688ec01f2df9cb6d4bf76dda30a7c0a39aab1bed6edf4c",
    "norm_inflate": "55dfb1457b6fdb8624fa39a2e62d709a7ad2312069b41081f60e7fb8fb89fa29",
    "random_in_box": "577ec3883458a08b2e0a569c505dd31ebbbfc977bbbe00ac8d678be7724697f6",
    "sign_flip": "a5148b003bd5f034ed7494bbe4ce139952093961b7923225ca8189141ca8d97e",
    "violated_redundancy": "c3a4a483e4b7073561dd4cda3f9d91cddca910b4cece94383f82292c89b42df0",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest(name, tmp_path):
    template, params, adversary = CASES[name]
    mapping = build_template(template, seed=7, record_every=1, **params)
    if adversary is not None:
        mapping["adversary"] = adversary
    path = tmp_path / "scenario.yaml"
    path.write_text(dump_scenario(mapping))
    out = tmp_path / "out"
    assert main(["run", str(path), "-o", str(out)]) == 0
    assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == DIGESTS[name]
