"""Golden digests of the simulator's squared-error records.

Each digest is the sha256 of `simulate_runs(...).sq_net.tobytes()` for
runs [0, 1, 2] x 300 iterations of one preset algorithm. fig1 switches
to its mixture phase at iteration 150, so the outlier draws are pinned
too; two extra entries pin the GD-TLS estimator and the LMS fallback of
the total-correntropy estimator on a noiseless input channel.

A second test simulates all of each case's digested algorithms in one
`simulate_group` pass and checks the same digests, so the one-pass path
the harness takes is pinned as well.

A third test pins the bytes of `difflab theory`'s `theory_report.txt`
on compare.cfg at N=10 and N=100 and on fig1.cfg, so the closed form's
inputs, gate and formatting are held bit for bit too.

A fourth pins the bytes of `difflab sweep`'s `sweep_<param>.csv` on the
four sweep presets at 17 runs x 300 iterations (mixture phase from 150),
in one process and on two workers (17 runs make two tasks), so that the
swept values, their noise phases and the reduction to steady dB are held
bit for bit whatever the task split.

A fifth pins the bytes of every file `difflab run --per-node-msd` writes
on fig1.cfg at 17 runs x 100 iterations (mixture phase from 50) on two
workers, so the per-node path from the flag to its CSVs is held too. A
sixth pins `emit` of each preset, the canonical form of a parsed config.
A seventh pins the network structure of each preset and of compare.cfg
at N=100: the bytes of `metropolis_weights` and of the `LinkStructure`
index arrays, dtype included.

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
from difflab.config import emit, parse_config
from difflab.simulate import LinkStructure, simulate_group, simulate_runs
from difflab.topology import metropolis_weights

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
        "98379363dfa6b906fb9fa2e7d0a2dcc1b6ae006acb39f8f5c859a00490eec4ba",
    ("fig1.cfg", "dlms"):
        "b40e82e45309d9101de9aa14fd22bbebddb61677bbeeb476ed43da2900586814",
    ("fig1.cfg", "ac-dlms"):
        "79dcbf9bb849b5ef5609a3a2abe2ae7ddb17f88189db7a7f37f410cabbf7d541",
    ("fig1.cfg", "ac-dlms-nds"):
        "d008e8dc7bd2819699c20c5bd436d624c4f210fec493c16e3c16e78537d89172",
    ("fig1.cfg", "dmcc"):
        "f360e69e20299f4772c91263c67ccba4f49daf129ee38b1f8ce7160480ea0bcc",
    ("fig1.cfg", "dmtc-ds"):
        "ce5748accc8a254966e0776c8c542aade8689722f65852801594a4f8a1a31553",
    ("fig1.cfg", "ac-dmtc"):
        "efc44b2638b8c7f10180f43e1dd4213291a0ed97e2123d322caaa6b8a0941eb5",
    ("fig1.cfg", "dgdtls"):
        "3daa185206f505d421a93f2e0c42b355e3899a13fd7e4c86136d3f7011639ecb",
    ("fig2a.cfg", "noncoop-lms"):
        "72fef7e3b095011800f775ce42417b36482cb034739003a7088ffb3bb07e3227",
    ("fig2a.cfg", "dlms"):
        "6b65cf695f47a929c26ace9b2dddf81ade772e10b7cdf63ae041c1ba30065118",
    ("fig2a.cfg", "ac-dlms"):
        "3596c401af5233a3dff9e83fc06239780c39131e6034be4acfdf4735a3c0b36c",
    ("fig2a.cfg", "ac-dlms-nds"):
        "109bc0383443a01f60aea8a9ec0e51eb6173bff004d2c995f32201bfd43b15d6",
    ("fig2a.cfg", "dmcc"):
        "0753a0ec1ac5e043029e9b7f72d43fffc85171662c210c0023f37ff8cea54afb",
    ("fig2a.cfg", "dmtc-ds"):
        "60b28167f17cbb9e34e39f3b2e027b5cd6ab1ceec52a893d54e26071dabdc043",
    ("fig2a.cfg", "ac-dmtc"):
        "71371fe0984460cb5763589f60a5208ad0a86d7c83b706fab93a237989412f64",
    ("fig2b.cfg", "noncoop-lms"):
        "72fef7e3b095011800f775ce42417b36482cb034739003a7088ffb3bb07e3227",
    ("fig2b.cfg", "dlms"):
        "6b65cf695f47a929c26ace9b2dddf81ade772e10b7cdf63ae041c1ba30065118",
    ("fig2b.cfg", "ac-dlms"):
        "3596c401af5233a3dff9e83fc06239780c39131e6034be4acfdf4735a3c0b36c",
    ("fig2b.cfg", "ac-dlms-nds"):
        "109bc0383443a01f60aea8a9ec0e51eb6173bff004d2c995f32201bfd43b15d6",
    ("fig2b.cfg", "dmcc"):
        "0753a0ec1ac5e043029e9b7f72d43fffc85171662c210c0023f37ff8cea54afb",
    ("fig2b.cfg", "dmtc-ds"):
        "60b28167f17cbb9e34e39f3b2e027b5cd6ab1ceec52a893d54e26071dabdc043",
    ("fig2b.cfg", "ac-dmtc"):
        "71371fe0984460cb5763589f60a5208ad0a86d7c83b706fab93a237989412f64",
    ("fig2c.cfg", "noncoop-lms"):
        "72fef7e3b095011800f775ce42417b36482cb034739003a7088ffb3bb07e3227",
    ("fig2c.cfg", "dlms"):
        "99366c0ea5b97b8c7bc094a90536d2da882982077894f668d1a19454554afeda",
    ("fig2c.cfg", "ac-dlms"):
        "83a6a95471b5c395f9650faf55da434763ad422acd1e74efa90788cef6d1dceb",
    ("fig2c.cfg", "ac-dlms-nds"):
        "f09f47772a7eb88c38e61b746057d75169e6245f7953876927816705ca55049a",
    ("fig2c.cfg", "dmcc"):
        "07ead81420da29d47a20208eb16be9ce4d2f72047580b3eea7488f7147de4738",
    ("fig2c.cfg", "dmtc-ds"):
        "bd84ea1c29bdcf1df057cd75a1c526be51a19a4f00c7b6a18051bd44f6611980",
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
        "96a3a9bdbddf0c4c472acc0802b576fee7a18030e975f739a93eb12612068c56",
    ("compare.cfg", ("signal.observation_variance="
                     "[0.1,0.2,0.05,0.3,0.1,0.1,0.2,0.4,0.1,0.15]",)):
        "6923a0fa22b915aecbaa4b87a812e3f060814cc94a5e0eebf1cabf3cbbb164bb",
}

# sha256 of sweep_<param>.csv per sweep preset, at any --jobs
SWEEP_DIGESTS = {
    "fig2a.cfg":
        "b8e12485d028d09aa02a075f797fc5541aeb922f531e2021d1419369937048b6",
    "fig2b.cfg":
        "3eeb2a7aa45fd0678c973fd9bb652b183d172cae2858f98c3c45d8e75f57a936",
    "fig2c.cfg":
        "ce602bbe2a1911e01196998672941c2869de4b2e21215e056b6f86e2b4c5bc09",
    "fig3.cfg":
        "e8fc04e3dbc3341a50b31d0802ad48bed40b00a72d6ebfbb9b5d428d1d465735",
}

# sha256 of each file of `run --per-node-msd` on fig1.cfg, by name
PER_NODE_DIGESTS = {
    "learning_curve.csv":
        "74990dce72b0843d292f134f6b0ddbb491e883d3eedf9070b7b9d623fc7e6851",
    "noncoop-lms_per_node.csv":
        "dbe90abfe84a9d2eff435fcdacc7152344a0b81ce908de8616f1cb8cec80de6d",
    "dlms_per_node.csv":
        "c5251f5adc88043c815abae89ad8eb3f6dd1fc1ea817106b5a37cf7182eb9e22",
    "ac-dlms_per_node.csv":
        "d233bf7a80f0752fd80d7b90a1e9b38797e893ab7d302bb0b1012ba457f51048",
    "ac-dlms-nds_per_node.csv":
        "bf2b0efd66105402284cfa56c9d5799439ab4f2558c075b88963c47c4a9f553d",
    "dmcc_per_node.csv":
        "bea91e9d87b03512f1301426501d316177d0d28365e6320c1466298240545b35",
    "dmtc-ds_per_node.csv":
        "a19e1a0e2935a294ab3588935e4248f11ec1f91fd753d899537d5a9a77a57bee",
    "ac-dmtc_per_node.csv":
        "71021b1933c1a7733d9c3b8f5931c678319b1677dc22b7ab15752cd8db9876ae",
}

# sha256 of emit(parse_config(preset))
EMIT_DIGESTS = {
    "compare.cfg":
        "1a33a4f3c90603fa5b927ea2c9f596695df997316a1be51057c69ca508acd661",
    "fig1.cfg":
        "c58d8673bc71e5cfcf449419055283bd2b5251a425473c05ed656d8f207aed9e",
    "fig2a.cfg":
        "fd0a5d6a4367c7a11e46ffd82f6a7c069f97872d34bfaae2ef47f10332bdef0c",
    "fig2b.cfg":
        "1f7f5cff002d6a026402c92349d90611275cd0340ef420da68cf1671ca591a2a",
    "fig2c.cfg":
        "363054ae2f912d276746fdcd2416d2ce2b1fad2b959cf7a5a01701074b49f3a2",
    "fig3.cfg":
        "166cbc2c0ed4fb53eef248432f0433449b000d76a50b78acd89fd5fdeec710ee",
}

# sha256 of metropolis_weights, then src, dst, seg_starts, self_idx,
# cross_idx and perm of LinkStructure.from_graph: (config, overrides)
NETWORK_DIGESTS = {
    ("compare.cfg", ()):
        "e253e22b9ab1660f470ca570fb1bea3f29b37c6587841bbaa34731019a498648",
    ("compare.cfg", (("graph.nodes", 100),)):
        "b58dfd2f0c68b7163a26f30f996538e19a71411fd2671e0d3a149feeffeb88da",
    **{(name, ()):
       "847def37e6011e406491da93498adfa03b8d7833ebdaf32eefe09704f891e953"
       for name in ("fig1.cfg", "fig2a.cfg", "fig2b.cfg", "fig2c.cfg",
                    "fig3.cfg")},
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
    results = simulate_group(problem, digested, RUNS, ITERATIONS)
    assert {a.name: sha(res) for a, res in zip(digested, results)} == \
        {a.name: DIGESTS[case, a.name] for a in digested}


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


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_golden_sweep_csv(name, jobs, tmp_path, capsys):
    argv = ["sweep", "--config", os.path.join(PRESET_DIR, name),
            "--out", str(tmp_path), "--runs", "17", "--jobs", jobs,
            "--set", "simulation.iterations=300",
            "--set", "noise.after.switch_iteration=150"]
    assert cli.main(argv) == cli.EXIT_OK
    (csv,) = tmp_path.glob("sweep_*.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SWEEP_DIGESTS[name]


def test_golden_run_per_node_csv(tmp_path, capsys):
    argv = ["run", "--config", os.path.join(PRESET_DIR, "fig1.cfg"),
            "--out", str(tmp_path), "--per-node-msd", "--runs", "17",
            "--jobs", "2", "--set", "simulation.iterations=100",
            "--set", "noise.after.switch_iteration=50"]
    assert cli.main(argv) == cli.EXIT_OK
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == PER_NODE_DIGESTS


@pytest.mark.parametrize("name", sorted(EMIT_DIGESTS))
def test_golden_emit(name):
    text = emit(parse_config(os.path.join(PRESET_DIR, name)))
    assert hashlib.sha256(text.encode()).hexdigest() == EMIT_DIGESTS[name]


@pytest.mark.parametrize("key", sorted(NETWORK_DIGESTS),
                         ids=lambda k: " ".join([k[0]] + [f"{p}={v}"
                                                          for p, v in k[1]]))
def test_golden_network(key):
    name, overrides = key
    graph = parse_config(os.path.join(PRESET_DIR, name), overrides).build_graph()
    links = LinkStructure.from_graph(graph)
    h = hashlib.sha256(metropolis_weights(graph).tobytes())
    for array in (links.src, links.dst, links.seg_starts, links.self_idx,
                  links.cross_idx, links.perm):
        h.update(array.tobytes())
    assert h.hexdigest() == NETWORK_DIGESTS[key]
