"""The wire shape of every report: the exact key set at each level.

Reports are encoded field by field from their dataclasses, so a field
added to a report dataclass changes the JSON; these tests make such a
change fail here instead of passing unnoticed.
"""

import hashlib
import json

import pytest

from loopbraid.cli import main

TW4_ARGS = ["tw4", "--lambda", "1", "2", "3", "2/3", "--gamma2", "2"]

META = {"toolkit_version", "input_sha256"}
REP = {"target", "A", "B", "S1", "S2"}
SCALAR = {"conductor", "coeffs"}
MATRIX = {"dim", "conductor", "entries"}


def assert_scalar(obj):
    assert set(obj) == SCALAR


def assert_matrix(obj):
    assert set(obj) == MATRIX
    for row in obj["entries"]:
        for entry in row:
            assert_scalar(entry)


def assert_rep(obj, present):
    assert set(obj) == REP
    for name in REP - {"target"}:
        if name in present:
            assert_matrix(obj[name])
        else:
            assert obj[name] is None


def run_report(args, path):
    assert main([*args, "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("shape")
    out = {"dir": d}
    for name, args in {
        "tw4": TW4_ARGS,
        "tw3": ["tw3", "--lambda", "1", "1", "-1"],
        "c6": ["counterexample6"],
    }.items():
        out[name] = d / f"{name}.json"
        assert main(["construct", *args, "--out", str(out[name])]) == 0
    ext = run_report(["extend", str(out["tw4"]), "--mode", "standard"], d / "ext.json")
    out["tw4ext"] = d / "tw4ext.json"
    out["tw4ext"].write_text(json.dumps(ext["representation"]))
    return out


def test_construct_shape(files):
    assert_rep(json.loads(files["tw4"].read_text()), {"A", "B"})


def test_extend_standard_shape(files):
    obj = run_report(["extend", str(files["tw4"]), "--mode", "standard"], files["dir"] / "s.json")
    assert set(obj) == {"meta", "mode", "representation", "certificate", "candidate_count"}
    assert set(obj["meta"]) == META
    assert_rep(obj["representation"], {"A", "B", "S1", "S2"})
    cert = obj["certificate"]
    assert set(cert) == {"k", "S", "params", "trace_value"}
    assert_scalar(cert["k"])
    assert_matrix(cert["S"])
    params = cert["params"]
    assert set(params) == {"M", "G", "a", "N"}
    for name in ("M", "G", "N"):
        if params[name] is not None:
            assert_matrix(params[name])


def test_extend_nonstandard3_shape(files):
    obj = run_report(
        ["extend", str(files["tw3"]), "--mode", "nonstandard3", "--z", "2"],
        files["dir"] / "n.json",
    )
    assert set(obj) == {"meta", "mode", "z", "sign", "representation", "verifies_SLB3"}
    assert set(obj["meta"]) == META
    assert_scalar(obj["z"])
    assert_rep(obj["representation"], {"A", "B", "S1", "S2"})


def test_extend_vb3_shape(files):
    obj = run_report(["extend", str(files["tw4ext"]), "--mode", "vb3"], files["dir"] / "v.json")
    assert set(obj) == {"meta", "mode", "k", "representation", "trace_of_S"}
    assert set(obj["meta"]) == META
    assert_scalar(obj["k"])
    assert_scalar(obj["trace_of_S"])
    assert_rep(obj["representation"], {"A", "B", "S1", "S2"})


def test_analyze_shape(files):
    obj = run_report(["analyze", str(files["tw4ext"])], files["dir"] / "a.json")
    assert set(obj) == {"meta", "analysis"}
    assert set(obj["meta"]) == META
    sec = obj["analysis"]
    assert set(sec) == {"irreducible", "uniqueness", "slb3", "polynomial_S", "k_candidates"}
    assert set(sec["uniqueness"]) == {
        "d", "monomials", "n_unknowns", "n_equations", "rank", "verdict",
    }
    assert set(sec["slb3"]) == {"direct", "commutator"}
    for c in sec["polynomial_S"]:
        assert_scalar(c)
    assert set(sec["k_candidates"]) == {"candidates", "reason"}
    assert sec["k_candidates"]["candidates"]
    for cand in sec["k_candidates"]["candidates"]:
        assert set(cand) == {"k", "m"}
        assert_scalar(cand["k"])


def test_certify_shape(files):
    obj = run_report(
        ["certify", str(files["c6"]), "--starts", "50", "--seed", "0"], files["dir"] / "c.json"
    )
    assert set(obj) == {"meta", "report"}
    assert set(obj["meta"]) == META
    rep = obj["report"]
    assert set(rep) == {
        "dim", "conductor", "candidates", "oracle", "exact_steps_pass",
        "all_traces_non_integer", "oracle_exhaustive", "verdict",
    }
    assert rep["candidates"]
    for v in rep["candidates"]:
        assert set(v) == {
            "coefficients", "intertwines", "cubes_to_identity", "trace",
            "trace_is_integer", "trace_is_real",
        }
        for c in v["coefficients"]:
            assert_scalar(c)
        assert_scalar(v["trace"])
    oracle = rep["oracle"]
    assert set(oracle) == {
        "dim", "starts", "converged", "diverged", "unconverged", "tol", "cluster_radius",
        "seed", "clusters",
    }
    assert oracle["converged"] + oracle["diverged"] + oracle["unconverged"] == oracle["starts"]
    assert oracle["clusters"]
    for c in oracle["clusters"]:
        assert set(c) == {
            "centroid", "size", "max_residual", "trace", "nearest_candidate", "nearest_distance",
        }
        for z in [*c["centroid"], c["trace"]]:  # complex numbers as [re, im]
            assert len(z) == 2 and all(isinstance(x, float) for x in z)


def test_extend_standard_bytes_pinned(files):
    # Exact arithmetic only, so the bytes are the same on every platform;
    # the report embeds the toolkit version, so a version bump changes them.
    path = files["dir"] / "pinned.json"
    assert main(["extend", str(files["tw4"]), "--mode", "standard", "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "471f7db692eb99fd34a43eec2a9c82d99d7f75fa59c153b0a36290a982c2d34f"
