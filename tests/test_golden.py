"""Golden digests of the simulator's squared-error records.

Each digest is the sha256 of `simulate_runs(...).sq_net.tobytes()` for
runs [0, 1, 2] x 300 iterations of one preset algorithm. fig1 switches
to its mixture phase at iteration 150, so the outlier draws are pinned
too; two extra entries pin the GD-TLS estimator and the LMS fallback of
the total-correntropy estimator on a noiseless input channel.

A second test simulates each case's digested algorithms stream group by
stream group with `simulate_group` and checks the same digests, so the
one-pass path the harness takes is pinned as well.

A third test pins the bytes of `difflab theory`'s `theory_report.txt`
on compare.cfg at N=10 and N=100 and on fig1.cfg, so the closed form's
inputs, gate and formatting are held bit for bit too.

The digests hold the simulator to the randomness contract bit for bit:
a refactor that reorders a floating-point expression fails here even
when every tolerance-based test still passes. They were computed with
NumPy 2 on x86-64; another libm may round `exp` differently, and a
mismatch there is a platform difference, not a defect.
"""

import functools
import hashlib
import os
from dataclasses import replace

import pytest

from difflab import cli
from difflab.config import parse_config
from difflab.harness import _stream_groups
from difflab.simulate import simulate_group, simulate_runs

PRESET_DIR = os.path.join(os.path.dirname(__file__), "..", "presets")
RUNS = [0, 1, 2]
ITERATIONS = 300

# (config, override pairs) per case name
CONFIGS = {
    "compare.cfg": ("compare.cfg", ()),
    "fig1.cfg": ("fig1.cfg", (("noise.after.switch_iteration", 150),)),
    "fig2a.cfg": ("fig2a.cfg", ()),
    "fig2b.cfg": ("fig2b.cfg", ()),
    "fig2c.cfg": ("fig2c.cfg", ()),
    "fig3.cfg": ("fig3.cfg", ()),
    "compare.cfg-x0": ("compare.cfg", (("noise.x.sigma_a2", 0.0),)),
}

DIGESTS = {
    ("compare.cfg", "dmtc"):
        "9c5170afc379898d87692a22dd3f4821a6cc0c8f6c8db87a07bd92dd94e2b07e",
    ("fig1.cfg", "noncoop-lms"):
        "fb2fd4dad8d9246cfd4caa16459fe63ca4ae54f48cc6a34e9db98dcabb679ab5",
    ("fig1.cfg", "dlms"):
        "b40e82e45309d9101de9aa14fd22bbebddb61677bbeeb476ed43da2900586814",
    ("fig1.cfg", "ac-dlms"):
        "79dcbf9bb849b5ef5609a3a2abe2ae7ddb17f88189db7a7f37f410cabbf7d541",
    ("fig1.cfg", "ac-dlms-nds"):
        "eb4fe5b54bbe642eb45950e437a615a9eee6f176d3c9b3e80921c2981ac93c1f",
    ("fig1.cfg", "dmcc"):
        "f360e69e20299f4772c91263c67ccba4f49daf129ee38b1f8ce7160480ea0bcc",
    ("fig1.cfg", "dmtc-ds"):
        "a7e97d2e91a247e5624e0af61e9e137a98256b98e2a157803445752fc9a509a6",
    ("fig1.cfg", "ac-dmtc"):
        "efc44b2638b8c7f10180f43e1dd4213291a0ed97e2123d322caaa6b8a0941eb5",
    ("fig1.cfg", "dgdtls"):
        "3daa185206f505d421a93f2e0c42b355e3899a13fd7e4c86136d3f7011639ecb",
    ("fig2a.cfg", "noncoop-lms"):
        "fb2fd4dad8d9246cfd4caa16459fe63ca4ae54f48cc6a34e9db98dcabb679ab5",
    ("fig2a.cfg", "dlms"):
        "6b65cf695f47a929c26ace9b2dddf81ade772e10b7cdf63ae041c1ba30065118",
    ("fig2a.cfg", "ac-dlms"):
        "3596c401af5233a3dff9e83fc06239780c39131e6034be4acfdf4735a3c0b36c",
    ("fig2a.cfg", "ac-dlms-nds"):
        "ce095bd6bbb7788ba239f1184e28f4e7061c8752384109130583f0e2cda92ed6",
    ("fig2a.cfg", "dmcc"):
        "0753a0ec1ac5e043029e9b7f72d43fffc85171662c210c0023f37ff8cea54afb",
    ("fig2a.cfg", "dmtc-ds"):
        "5d323ffcc37bf504edc737a557165ffaf687c7c5cdeb1a96d5fec052e66f0abd",
    ("fig2a.cfg", "ac-dmtc"):
        "71371fe0984460cb5763589f60a5208ad0a86d7c83b706fab93a237989412f64",
    ("fig2b.cfg", "noncoop-lms"):
        "fb2fd4dad8d9246cfd4caa16459fe63ca4ae54f48cc6a34e9db98dcabb679ab5",
    ("fig2b.cfg", "dlms"):
        "6b65cf695f47a929c26ace9b2dddf81ade772e10b7cdf63ae041c1ba30065118",
    ("fig2b.cfg", "ac-dlms"):
        "3596c401af5233a3dff9e83fc06239780c39131e6034be4acfdf4735a3c0b36c",
    ("fig2b.cfg", "ac-dlms-nds"):
        "ce095bd6bbb7788ba239f1184e28f4e7061c8752384109130583f0e2cda92ed6",
    ("fig2b.cfg", "dmcc"):
        "0753a0ec1ac5e043029e9b7f72d43fffc85171662c210c0023f37ff8cea54afb",
    ("fig2b.cfg", "dmtc-ds"):
        "5d323ffcc37bf504edc737a557165ffaf687c7c5cdeb1a96d5fec052e66f0abd",
    ("fig2b.cfg", "ac-dmtc"):
        "71371fe0984460cb5763589f60a5208ad0a86d7c83b706fab93a237989412f64",
    ("fig2c.cfg", "noncoop-lms"):
        "fb2fd4dad8d9246cfd4caa16459fe63ca4ae54f48cc6a34e9db98dcabb679ab5",
    ("fig2c.cfg", "dlms"):
        "99366c0ea5b97b8c7bc094a90536d2da882982077894f668d1a19454554afeda",
    ("fig2c.cfg", "ac-dlms"):
        "83a6a95471b5c395f9650faf55da434763ad422acd1e74efa90788cef6d1dceb",
    ("fig2c.cfg", "ac-dlms-nds"):
        "50741ca248acc24654dbbbd370b18fca1afdebcf98ce6cba2bff3a23f19c98a5",
    ("fig2c.cfg", "dmcc"):
        "07ead81420da29d47a20208eb16be9ce4d2f72047580b3eea7488f7147de4738",
    ("fig2c.cfg", "dmtc-ds"):
        "4682e05c6fe421987f7a0a87fa746e866ccc8204feb3c76951f0750620cd088e",
    ("fig2c.cfg", "ac-dmtc"):
        "7d9b05d4702cb92302c7387c98d34da24f80c1ccb7dff26b256775d4fb9bcdb0",
    ("fig3.cfg", "ac-dmtc"):
        "71371fe0984460cb5763589f60a5208ad0a86d7c83b706fab93a237989412f64",
    ("compare.cfg-x0", "dmtc"):
        "1a44158cd156e34dc13d7f4e3900b0108418377a2016cdf9d466480cd008d5eb",
}

# sha256 of theory_report.txt: (config, --set overrides) -> digest
THEORY_DIGESTS = {
    ("compare.cfg", ()):
        "47158602bed2fcb713883fcec13ae68e0fbdd9dd346bf5972e20b2c43cbf876a",
    ("compare.cfg", ("graph.nodes=100",)):
        "216d15a2eb40a8b8a941aefb3dc9e39c84c1045dd2baff22525bbb9580a87215",
    ("fig1.cfg", ()):
        "b0143a1cb8b3a3fc197ffb8f7be08864c625dbb3e3b709078586275c8d7b4319",
}


@functools.lru_cache(maxsize=None)
def _problem_and_algos(case):
    name, overrides = CONFIGS[case]
    cfg = parse_config(os.path.join(PRESET_DIR, name), overrides)
    algos = {a.name: a for a in cfg.algorithms}
    if case == "fig1.cfg":
        algos["dgdtls"] = replace(algos["dlms"], name="dgdtls",
                                  estimator="gdtls", step_size=0.01)
    return cfg.build_problem(), algos


def sha(res):
    return hashlib.sha256(res.sq_net.tobytes()).hexdigest()


def digest(case, algo_name):
    problem, algos = _problem_and_algos(case)
    return sha(simulate_runs(problem, algos[algo_name], RUNS, ITERATIONS))


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="/".join)
def test_golden_digest(key):
    assert digest(*key) == DIGESTS[key]


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_golden_digest_grouped(case):
    problem, algos = _problem_and_algos(case)
    digested = [algos[name] for c, name in sorted(DIGESTS) if c == case]
    for group in _stream_groups(digested):
        results = simulate_group(problem, group, RUNS, ITERATIONS)
        assert {a.name: sha(res) for a, res in zip(group, results)} == \
            {a.name: DIGESTS[case, a.name] for a in group}


@pytest.mark.parametrize("key", sorted(THEORY_DIGESTS),
                         ids=lambda k: " ".join((k[0],) + k[1]))
def test_golden_theory_report(key, tmp_path, capsys):
    name, sets = key
    argv = ["theory", "--config", os.path.join(PRESET_DIR, name),
            "--out", str(tmp_path)]
    for kv in sets:
        argv += ["--set", kv]
    assert cli.main(argv) == cli.EXIT_OK
    report = (tmp_path / "theory_report.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == THEORY_DIGESTS[key]
