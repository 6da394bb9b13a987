"""Golden outputs: sha256 of `trace.csv` and `summary.json` for short runs through the CLI.

Trace rows carry 17 significant digits and the summary's floats are
written so that they round-trip, so a digest pins each recorded value bit
for bit. A change to the round engine that is meant to
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
    "collude_target": "65639e56485be332da794dea6b2c203c7527f56560812a222fab5202955d300c",
    "collude_target_d12": "06e40cb53fa8c4dfcc4ad7f1e1a615703832c2a9afd40589f4b2dd75d8bbff55",
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


SUMMARY_DIGESTS = {
    "collude_target": "f7451d59881b0cb14cb9dc103ee06e36ed1d61fcdcd5f1b9d4bf9b5a448cfdc5",
    "collude_target_d12": "d85ef5e2424551a1976a48b152e7cc41968c1713e055b57e8e7f8046aa59dddb",
    "collude_target_random_estimates": "ca8553c0e18e917597d6e233039567690d33ef8bed53f85bf5e950bebc8a9ab2",
    "coord_extreme": "2bd037dffb4dd890e71013469d2bbeaa212aae46291bddc5cf3cb470672266b5",
    "fault_free": "d8e04b8026eb54ab1af0c0a15b91fda1d23974d620b733b92c804786892b8848",
    "margin_negative": "d2562249605657678b46861330658f48c0778220f809a88e98f16dac76087553",
    "n100": "a8ac89b4e6e44251a229a56afd671e26e30ab8ec197523ece40bebc0ed1aa413",
    "n40_d1": "394d47e1a7c1a1160f7f9f5835b5f0af2d39a8e13daf6867f4c9242269704905",
    "norm_inflate": "00eda2a7c7cfe8ab21bb8860d7341a80296246ac33ba49876c70bd8e3d09917f",
    "random_in_box": "22e8382b44a7c2408e108e04f5a415afdc834b4989fe2a4ee8991b1d47331ef9",
    "sign_flip": "00a97a00feab92386c18890cf10a6f97b4c0993906c58bdf1f8685c7b1e3b8bf",
    "violated_redundancy": "0d339ac44214f175c14308b332154848f433eafa3b5b451f59cd27508a3b4f8d",
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
