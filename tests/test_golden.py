"""Golden outputs: sha256 of `trace.csv` and `summary.json` for short runs through the CLI, and of `gen` output.

Trace rows carry 17 significant digits and the summary's floats are
written so that they round-trip, so a digest pins each recorded value bit
for bit. A change to the round engine that is meant to
be a pure refactor or speed-up must leave every digest here unchanged; a
change that alters trajectories on purpose replaces them and says why.
"""

import csv
import hashlib
import json

import pytest

from byzgrad.cli import main
from byzgrad.metrics import ZETA_SLACK
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
    # d = 12 puts 4096 vertices per honest cost into zeta, which the colluders' pull carries into every message
    "collude_target_d12": (
        "redundant_quadratic", dict(n=10, f=2, d=12, horizon=200, eig_min=0.5, eig_max=2.0), None,
    ),
    "n40_d1": ("redundant_quadratic", dict(n=40, f=7, d=1, horizon=300), None),
    "fault_free": ("redundant_quadratic", dict(n=10, f=0, d=3, horizon=500), None),
    "n100": ("redundant_quadratic", dict(n=100, f=19, d=3, horizon=40), None),
    "margin_negative": ("margin_negative", dict(horizon=500), None),
    "violated_redundancy": ("violated_redundancy", dict(horizon=500), None),
}

DIGESTS = {
    "collude_target": "6850665948547b3dd24d64de44d2885ebacc9a1700e8f72be11f03696f1558cd",
    "collude_target_d12": "fe81d6dd3d80d5f81f1108189ca35987e88a25bfb7c28cc35fa37f949f5ffbc9",
    "collude_target_random_estimates": "ecc5e06d0cf1658940d2b2ee65f44062b45594e9b0aa2c194ae7b7d7c3d769c7",
    "coord_extreme": "28f43a1bc652a76fd622d23d639ff1a2aafa51e1f38b3115d0874bc76947c811",
    "fault_free": "365968f35a093dc64817700b7cd937ceea35bce5f33c3434729e04d16b034b31",
    "margin_negative": "7ef6e2513f4cf97ed448cc98cee55d278886b027b527435c62b1077817733464",
    "n100": "760d795f5fa893307e1f3975db39b133582f65536c1c2a44adc5fd6bc390ee49",
    "n40_d1": "fdbbe7d545c2e9d237488d28f004874000eed93fe07341f06b4bbd2508217b5e",
    "norm_inflate": "e5ed51346b94f7b10a2da371bcdc71c5cb55e2cae9fe61cb7cb443cb743e4ec5",
    "random_in_box": "8e3421138db239474d3c319ef3f0bc0c799b06d842a099443993f93d67d2d414",
    "sign_flip": "d3d387598b6dc56505622ebba0bd01d81c94ba06f9f2991650b1731cda8ef5aa",
    "violated_redundancy": "1804257a513339f4949d2ddb8213ee53b688985f5167684fa8cd877c05c5915d",
}


SUMMARY_DIGESTS = {
    "collude_target": "ca82e23d6d9a86c81cc889aff06b64eaa3631816196e277bd61dcfc54e0095da",
    "collude_target_d12": "dff272feac6b619af8723108c580873134cc295b3049d73b350bab53a53e2f62",
    "collude_target_random_estimates": "9350b05d6982b96eaa487c6e4d8b897d9b9fbd6b3cfd7e9d0052c6ca435981af",
    "coord_extreme": "a5c3523b4b65c662f1f9ba2c1fa08dc6fd0dc2b468dadd66ff3ee5b9062393fb",
    "fault_free": "6f17507922c9185b08e220353c5b13717a7e2da6f4f6734e37c02c3d8cca3185",
    "margin_negative": "14e340727f974499aea1648f16ad81daf6a706daac7e4a4badcc9eb6a355fba9",
    "n100": "a90d76fe5388889414eaf475a04650f3edeef576b7ac855b6366a74570006907",
    "n40_d1": "6cfca91852e49977cb570782f89a89e9f7f088463ec6ca8905993dcef2d75a8c",
    "norm_inflate": "2dc60b80d3d3d2397ec8ec97876c51b674b8d5bb7d6f420c474e3e5380dc7cf5",
    "random_in_box": "cf0250972fac12fdf86397e5fc673d67486f251b9c175eee6ad70dc2f7663801",
    "sign_flip": "4f68fbbaa1a692fd2706acda07209e67cc0ab49ba8ecb73abe15304bd57b33e4",
    "violated_redundancy": "c3f061ea9ecfca49a65ab52dc715aa5c3b4ad4b1e221b0ee22a4dda0e4b411d8",
}


# `gen` output at fixed parameters: pins each template's draws and layout byte for byte
GEN_DIGESTS = {
    "redundant_quadratic --n 9 --f 2 --d 12 --seed 5 --eig-min 0.5 --eig-max 2":
        "f313109d6ec3a9924503fa20b4f0a00a017a9efb8ff86dd2a94d721b78c44ba5",
    "violated_redundancy --n 7 --f 2 --d 3": "456f86a0c2782c93e6023872f8a5542a70ef645d4352d76b1d1b34f47a25ce9d",
    "margin_negative --d 5 --seed 11": "798aef78e697b42cf44fc58dcc97ed9951309a7a6ecf2d2c2d741141b276e7de",
}


@pytest.fixture(scope="module")
def run_case(tmp_path_factory):
    """Run each case through the CLI once; return its output directory."""
    outputs = {}

    def get(name):
        if name not in outputs:
            template, params, adversary = CASES[name]
            mapping = build_template(template, seed=7, record_every=1, **params)
            if adversary is not None:
                mapping["adversary"] = adversary
            root = tmp_path_factory.mktemp(name)
            path = root / "scenario.yaml"
            path.write_text(dump_scenario(mapping))
            assert main(["run", str(path), "-o", str(root / "out")]) == 0
            outputs[name] = root / "out"
        return outputs[name]

    return get


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest(name, run_case):
    assert sha256(run_case(name) / "trace.csv") == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_summary_digest(name, run_case):
    assert sha256(run_case(name) / "summary.json") == SUMMARY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_zeta_columns_agree(name, run_case):
    zeta = json.loads((run_case(name) / "summary.json").read_text())["zeta"]
    with open(run_case(name) / "trace.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            exceeds = float(row["cge_norm_max"]) > zeta + ZETA_SLACK
            assert row["zeta_violated"] == ("true" if exceeds else "false"), row["t"]


@pytest.mark.parametrize("args", sorted(GEN_DIGESTS))
def test_gen_digest(args, capsys):
    assert main(["gen", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == GEN_DIGESTS[args]
