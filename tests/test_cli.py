"""CLI exit codes, report determinism, scalar literals."""

import builtins
import codecs
import hashlib
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbraid import catalog, cli, cyclotomic, extend, linalg, modular, sampling
from loopbraid.cli import main, parse_scalar
from loopbraid.cyclotomic import CycNum, euler_phi, make_root_of_unity
from loopbraid.linalg import CMatrix
from loopbraid.repcore import GroupKind, LBRep, tensor_product
from loopbraid.serialize import cycnum_from_obj, dumps, rep_from_obj, rep_to_obj


TW4_ARGS = ["tw4", "--lambda", "1", "2", "3", "2/3", "--gamma2", "2"]


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_scalar_literals():
    assert parse_scalar("3/2") == CycNum.from_rational(Fraction(3, 2), 1)
    assert parse_scalar("-2") == CycNum.from_rational(-2, 1)
    assert parse_scalar("z12^5") == make_root_of_unity(12, 5)
    assert parse_scalar("z3") == make_root_of_unity(3, 1)
    assert parse_scalar("-1/2*z3^2") == make_root_of_unity(3, 2) * Fraction(-1, 2)
    with pytest.raises(ValueError):
        parse_scalar("nope")


@st.composite
def _scalars(draw):
    """A CycNum at N = 3, 12 or 60 with some coefficients zero."""
    n = draw(st.sampled_from([3, 12, 60]))
    coeffs = [
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4))) if draw(st.booleans()) else 0
        for _ in range(euler_phi(n))
    ]
    return CycNum.from_coeffs(n, coeffs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_scalars())
def test_parse_scalar_reads_what_str_writes(x):
    for text in (str(x), f"({x})"):
        y = parse_scalar(text)
        assert y == x
        assert y.conductor == (1 if x.is_rational else x.conductor)


def test_a_malformed_term_of_a_sum_exits_2(capsys):
    assert main(["construct", "tw3", "--lambda", "(3/5 + z12^)", "1", "1"]) == 2
    assert capsys.readouterr().err == "error: cannot parse scalar literal '3/5+z12^'\n"


@pytest.mark.parametrize("text", ["3*", "(-1/2*)", "3/5 + 2*", "2z3", "1/2z12^5"])
def test_a_star_stands_only_between_a_rational_and_a_root(text, capsys):
    assert main(["construct", "tw3", "--lambda", text, "1", "1"]) == 2
    literal = text.replace(" ", "").strip("()")
    assert capsys.readouterr().err == f"error: cannot parse scalar literal {literal!r}\n"


def test_a_sweep_draw_rebuilds_with_construct(capsys):
    # sweep writes each draw's scalars by str(CycNum), sums included
    _, out = run(["sweep", "--family", "tw4", "--draws", "1", "--seed", "0"], capsys)
    params = json.loads(out)["sweep"]["results"][0]["params"]
    assert any("+" in text for text in params["lambda"])
    lam = [f"({text})" for text in params["lambda"]]
    code, out = run(["construct", "tw4", "--lambda", *lam, "--gamma2", f"({params['gamma2']})"], capsys)
    assert code == 0
    drawn, _ = sampling.draw_family("tw4", sampling.rng_for(0))
    built = rep_from_obj(json.loads(out))
    assert (built.A, built.B) == (drawn.A, drawn.B)


def test_construct_verify_round_trip(tmp_path, capsys):
    rep_file = tmp_path / "tw3.json"
    code, _ = run(["construct", "tw3", "--lambda", "1", "2", "3", "--out", str(rep_file)], capsys)
    assert code == 0
    code, out = run(["verify", str(rep_file), "--group", "B3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["B1"] == "holds"
    assert report["meta"]["toolkit_version"]
    assert report["meta"]["input_sha256"]


def test_construct_constraint_violation_exit2(capsys):
    code = main(["construct", "tw4", "--lambda", "1", "1", "1", "2", "--gamma2", "1"])
    assert code == 2


def test_verify_missing_generators_exit2(tmp_path, capsys):
    rep_file = tmp_path / "c6.json"
    assert main(["construct", "counterexample6", "--out", str(rep_file)]) == 0
    capsys.readouterr()
    code = main(["verify", str(rep_file), "--group", "LB3"])
    assert code == 2


def test_verify_failing_relation_exit1(tmp_path, capsys):
    rep_file = tmp_path / "bad.json"
    assert main(["construct", "perm3", "--t", "2", "--out", str(rep_file)]) == 0
    obj = json.loads(rep_file.read_text())
    obj["S1"], obj["S2"] = obj["S2"], obj["S1"]  # break L2 but keep shapes
    rep_file.write_text(json.dumps(obj))
    capsys.readouterr()
    code, out = run(["verify", str(rep_file), "--group", "LB3"], capsys)
    assert code == 1
    report = json.loads(out)  # a relation violation still writes its report
    assert report["all_hold"] is False and report["failing"]


def test_extend_standard_and_verify(tmp_path, capsys):
    rep_file = tmp_path / "tw5.json"
    out_file = tmp_path / "ext.json"
    assert (
        main(
            [
                "construct", "tw5",
                "--lambda", "1", "2", "1", "3", "1/192",
                "--gamma", "1/2",
                "--out", str(rep_file),
            ]
        )
        == 0
    )
    code = main(["extend", str(rep_file), "--mode", "standard", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["certificate"]["trace_value"] == -1  # five-dim: Tr(S) = -1
    assert payload["certificate"]["k"]["coeffs"][0] == "4"  # gamma^-2 = 4
    rep2 = tmp_path / "ext_rep.json"
    rep2.write_text(json.dumps(payload["representation"]))
    capsys.readouterr()
    assert main(["verify", str(rep2), "--group", "LB3"]) == 0


def test_extend_counterexample_exit3(tmp_path, capsys):
    rep_file = tmp_path / "c6.json"
    assert main(["construct", "counterexample6", "--out", str(rep_file)]) == 0
    code = main(["extend", str(rep_file), "--mode", "standard"])
    assert code == 3


def test_extend_nonstandard3(tmp_path, capsys):
    rep_file = tmp_path / "tw3.json"
    assert main(
        ["construct", "tw3", "--lambda", "1", "1", "-1", "--out", str(rep_file)]
    ) == 0
    capsys.readouterr()
    code, out = run(["extend", str(rep_file), "--mode", "nonstandard3", "--z", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verifies_SLB3"] is True


def _nonstandard3_on_tw3(tmp_path, capsys, lams):
    rep_file = tmp_path / "tw3.json"
    assert main(["construct", "tw3", "--lambda", *lams, "--out", str(rep_file)]) == 0
    capsys.readouterr()
    code = main(["extend", str(rep_file), "--mode", "nonstandard3", "--z", "2"])
    return code, capsys.readouterr().err


def test_extend_nonstandard3_needs_negated_eigenvalue(tmp_path, capsys):
    code, err = _nonstandard3_on_tw3(tmp_path, capsys, ["1", "2", "3"])
    assert code == 3
    assert err.startswith("no nonstandard extension")
    assert "relabel" not in err  # no pair of eigenvalues sums to 0


def test_extend_nonstandard3_suggests_relabeling_when_it_helps(tmp_path, capsys):
    code, err = _nonstandard3_on_tw3(tmp_path, capsys, ["1", "(-1)", "2"])
    assert code == 3
    assert "relabel the eigenvalues" in err  # lambda1 + lambda2 = 0


@pytest.mark.parametrize(
    "construct", [["perm3", "--t", "2"], ["lkb3", "--q", "2", "--t", "3"]]
)
def test_extend_nonstandard3_outside_tw3_normal_form_exits_2(tmp_path, capsys, construct):
    rep_file = tmp_path / "rep.json"
    assert main(["construct", *construct, "--out", str(rep_file)]) == 0
    capsys.readouterr()
    code = main(["extend", str(rep_file), "--mode", "nonstandard3", "--z", "2"])
    assert code == 2
    assert "tw3 normal form" in capsys.readouterr().err


def test_extend_vb3(tmp_path, capsys):
    rep_file = tmp_path / "perm.json"
    assert main(["construct", "perm3", "--t", "8", "--out", str(rep_file)]) == 0
    capsys.readouterr()
    code, out = run(["extend", str(rep_file), "--mode", "vb3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["representation"]["target"] == "VB3"


def test_extend_vb3_reads_the_trace_without_forming_s(tmp_path, capsys, monkeypatch):
    # S1^2 = I, so Tr(S1 S2) = Tr(S): the trace is read off the lift's
    # certificate, and the lifted S1 @ S2 is never formed, nor summed
    rep_file = tmp_path / "perm.json"
    assert main(["construct", "perm3", "--t", "8", "--out", str(rep_file)]) == 0
    capsys.readouterr()
    built, products, sums = [], [], []
    lift, matmul, dot = extend.vb3_lift, CMatrix.__matmul__, cyclotomic.dot
    monkeypatch.setattr(extend, "vb3_lift", lambda rep, k: built.append(lift(rep, k)) or built[-1])
    monkeypatch.setattr(CMatrix, "__matmul__", lambda x, y: products.append((x, y)) or matmul(x, y))
    monkeypatch.setattr(cyclotomic, "dot", lambda xs, ys: sums.append(len(xs)) or dot(xs, ys))
    code, out = run(["extend", str(rep_file), "--mode", "vb3"], capsys)
    assert code == 0
    (rep, cert), = built
    assert not any(x is rep.S1 and y is rep.S2 for x, y in products)
    assert sums == [] and not hasattr(cli, "dot")
    monkeypatch.undo()
    trace = cycnum_from_obj(json.loads(out)["trace_of_S"])
    assert trace == (rep.S1 @ rep.S2).trace() == cert.S.trace()


def test_analyze_uniqueness(tmp_path, capsys):
    rep_file = tmp_path / "tw4.json"
    assert main(
        [
            "construct", "tw4",
            "--lambda", "1", "2", "3", "2/3",
            "--gamma2", "2",
            "--out", str(rep_file),
        ]
    ) == 0
    capsys.readouterr()
    code, out = run(["analyze", str(rep_file), "--uniqueness"], capsys)
    assert code == 0
    payload = json.loads(out)
    u = payload["analysis"]["uniqueness"]
    assert u["rank"] == 9 and u["n_unknowns"] == 9
    assert u["verdict"] == "unique-standard"


def test_sweep_deterministic(capsys, monkeypatch):
    code, out1 = run(["sweep", "--family", "tw4", "--draws", "4", "--seed", "7"], capsys)
    assert code == 0
    code, out2 = run(["sweep", "--family", "tw4", "--draws", "4", "--seed", "7"], capsys)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["sweep"]["successes"] == 4
    # the seed comes from --seed alone, 0 by default: no environment
    # variable changes a report
    _, seed0 = run(["sweep", "--family", "tw2", "--draws", "3", "--seed", "0"], capsys)
    monkeypatch.setenv("LOOPBRAID_SEED", "7")
    assert run(["sweep", "--family", "tw2", "--draws", "3"], capsys) == (0, seed0)


def test_sweep_tw5_full_rate(capsys):
    code, out = run(["sweep", "--family", "tw5", "--draws", "25", "--seed", "7"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["sweep"]["successes"] == 25
    assert payload["sweep"]["rate"] == 1.0


def test_sweep_without_draws_reports_no_rate(capsys):
    # with nothing drawn, a rate of 0.0 would read as "no draw extends"
    code, out = run(["sweep", "--family", "tw4", "--draws", "0", "--seed", "7"], capsys)
    assert code == 0
    sweep = json.loads(out)["sweep"]
    assert (sweep["draws"], sweep["successes"], sweep["results"]) == (0, 0, [])
    assert sweep["rate"] is None


def test_certify_cli_counterexample(tmp_path, capsys):
    rep_file = tmp_path / "c6.json"
    assert main(["construct", "counterexample6", "--out", str(rep_file)]) == 0
    capsys.readouterr()
    code, out = run(
        ["certify", str(rep_file), "--starts", "300", "--seed", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["verdict"].startswith("no extension")
    assert payload["report"]["oracle"]["starts"] == 300


def test_negative_scalar_literals_in_parens(capsys):
    assert parse_scalar("(-1/2*z3)") == make_root_of_unity(3, 1) * Fraction(-1, 2)
    code = main(["construct", "tw2", "--lambda", "1", "(-1)", "--family", "2"])
    capsys.readouterr()
    assert code == 0


def test_extend_tw3_123_reports_no_cyclotomic_root(tmp_path, capsys):
    rep_file = tmp_path / "tw3.json"
    assert main(["construct", "tw3", "--lambda", "1", "2", "3", "--out", str(rep_file)]) == 0
    capsys.readouterr()
    assert main(["extend", str(rep_file)]) == 2
    err = capsys.readouterr().err
    assert "no cube root in any cyclotomic field" in err
    assert "suggested conductor" not in err


@pytest.mark.parametrize(
    "lam, k_cubed, conductor",
    [
        (["1", "2", "3"], "1/36", None),
        (["z12", "1", "1"], "1 + -1*z12^2", 36),
    ],
    ids=["tw3-123", "tw3-z12-1-1"],
)
def test_extend_says_an_extension_outside_the_field_exists(
    tmp_path, capsys, lam, k_cubed, conductor
):
    # the search is empty, so Tr(AB) = 0 and every cube root k of k^3 has
    # Tr(kAB) = 0: a standard extension exists over the field with k adjoined,
    # and the command, which works inside the field, refuses its input
    rep_file = str(tmp_path / "tw3.json")
    assert main(["construct", "tw3", "--lambda", *lam, "--out", rep_file]) == 0
    capsys.readouterr()
    assert main(["extend", rep_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a standard extension exists only outside the working field")
    assert err.count("\n") == 1
    assert f"k^3 must equal {k_cubed}," in err
    if conductor is None:
        assert "conductor" not in err
    else:
        assert f"suggested conductor {conductor}" in err


def test_analyze_dense_tw4_reports_uniqueness_unavailable(tmp_path, capsys):
    rep_file = tmp_path / "tw4.json"
    assert main(["construct", *TW4_ARGS, "--out", str(rep_file)]) == 0
    rep = rep_from_obj(json.loads(rep_file.read_text()))
    upper = CMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], rep.conductor)
    p = upper @ upper.transpose()  # unimodular and dense
    pinv = p.inverse()
    dense = LBRep(target=rep.target, A=p @ rep.A @ pinv, B=p @ rep.B @ pinv)
    rep_file.write_text(json.dumps(rep_to_obj(dense)))
    capsys.readouterr()
    code, out = run(["analyze", str(rep_file)], capsys)
    assert code == 0
    sections = json.loads(out)["analysis"]
    assert sections["uniqueness"].startswith("unavailable: ")
    assert sections["irreducible"] is True
    assert sections["k_candidates"]["candidates"]


@pytest.mark.parametrize(
    "flag, section, reason",
    [
        ("--uniqueness", "uniqueness", "uniqueness linearization is for dimensions 4 and 5"),
        ("--slb3", "slb3", "input has no S1, S2"),
        ("--poly-s", "polynomial_S", "input has no S1, S2"),
    ],
)
def test_requested_analyze_section_says_why_it_is_unavailable(
    tmp_path, capsys, flag, section, reason
):
    # a tw3 B3 pair: dimension 3 and no S1, S2; then no pair at all
    rep_file = tmp_path / "tw3.json"
    assert main(["construct", "tw3", "--lambda", "1", "2", "3", "--out", str(rep_file)]) == 0
    capsys.readouterr()
    code, out = run(["analyze", str(rep_file), flag], capsys)
    assert code == 0
    assert json.loads(out)["analysis"] == {section: f"unavailable: {reason}"}
    obj = rep_to_obj(catalog.perm3(2))
    rep_file.write_text(json.dumps({**obj, "target": "S3", "A": None, "B": None}))
    code, out = run(["analyze", str(rep_file), flag], capsys)
    assert code == 0
    assert json.loads(out)["analysis"] == {
        section: "unavailable: input has no braid pair A, B"
    }


def test_singular_pair_is_refused_and_analyze_keeps_its_other_sections(
    tmp_path, capsys
):
    # A = B nilpotent: ABA = BAB = 0 and (AB)^3 = 0, so no k has (kAB)^3 = I;
    # with S1 = S2 the swap the pair is an LB3 representation too
    nil = CMatrix([[0, 1], [0, 0]], 1)
    swap = CMatrix([[0, 1], [1, 0]], 1)
    pair_file, lb3_file = tmp_path / "pair.json", tmp_path / "lb3.json"
    pair_file.write_text(json.dumps(rep_to_obj(LBRep(GroupKind.B3, A=nil, B=nil))))
    lb3 = LBRep(GroupKind.LB3, A=nil, B=nil, S1=swap, S2=swap)
    lb3_file.write_text(json.dumps(rep_to_obj(lb3)))
    for args in (
        ["extend", str(pair_file)],
        ["extend", str(lb3_file), "--mode", "vb3"],
        ["certify", str(pair_file), "--starts", "10"],
    ):
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: (AB)^3 = 0") and err.count("\n") == 1, err
    code, out = run(["analyze", str(pair_file)], capsys)
    assert code == 0
    assert json.loads(out)["analysis"] == {
        "irreducible": False,
        "k_candidates": "unavailable: (AB)^3 = 0, so no k gives (kAB)^3 = I",
    }
    code, out = run(["analyze", str(lb3_file)], capsys)
    assert code == 0
    sections = json.loads(out)["analysis"]
    assert sections["k_candidates"].startswith("unavailable: (AB)^3 = 0")
    assert sections["slb3"] == {"direct": True, "commutator": True}
    assert sections["polynomial_S"] == "unavailable: S is not in the span of the B^n A B"


@pytest.fixture(scope="module")
def malformed_inputs(tmp_path_factory):
    """The bad files: a rep without a target, a matrix entry written as
    [[1]], an extend report in place of a representation, an entry with a
    huge prime conductor (10^18 + 9) but a single coefficient, a valid rep
    behind a UTF-8 BOM or behind a byte that is not UTF-8, a missing file
    and a directory."""
    root = tmp_path_factory.mktemp("malformed")
    rep_file = root / "tw4.json"
    report_file = root / "report.json"
    assert main(["construct", *TW4_ARGS, "--out", str(rep_file)]) == 0
    assert main(["extend", str(rep_file), "--out", str(report_file)]) == 0
    bad_entry = json.loads(rep_file.read_text())
    bad_entry["A"]["entries"][0][0] = [[1]]
    huge_conductor = json.loads(rep_file.read_text())
    huge_conductor["A"]["entries"][0][0] = {"conductor": 10**18 + 9, "coeffs": ["1"]}
    files = {
        "null-A": {"A": None},
        "list-entry": bad_entry,
        "extend-report": json.loads(report_file.read_text()),
        "huge-conductor": huge_conductor,
    }
    for name, obj in files.items():
        (root / f"{name}.json").write_text(json.dumps(obj))
    good = rep_file.read_bytes()
    (root / "bom.json").write_bytes(codecs.BOM_UTF8 + good)
    (root / "not-utf8.json").write_bytes(b"\xff" + good)
    (root / "directory.json").mkdir()
    return root


@pytest.mark.parametrize(
    "name",
    [
        "null-A", "list-entry", "extend-report", "huge-conductor",
        "bom", "not-utf8", "missing", "directory",
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "{}", "--group", "B3"],
        ["extend", "{}"],
        ["extend", "{}", "--mode", "vb3"],
        ["analyze", "{}"],
        ["certify", "{}", "--starts", "10"],
    ],
    ids=["verify", "extend", "extend-vb3", "analyze", "certify"],
)
def test_malformed_input_exits_2(malformed_inputs, name, command, capsys):
    path = str(malformed_inputs / f"{name}.json")
    capsys.readouterr()
    code = main([arg.format(path) for arg in command])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_commands_needing_a_braid_pair_exit_2(tmp_path, capsys):
    rep_file = tmp_path / "s3.json"
    obj = rep_to_obj(catalog.perm3(2))
    for absent in ({"A": None, "B": None}, {"B": None}):  # no pair, half a pair
        rep_file.write_text(json.dumps({**obj, "target": "S3", **absent}))
        for command in (["extend"], ["certify", "--starts", "10"]):
            assert main([command[0], str(rep_file), *command[1:]]) == 2
            assert capsys.readouterr().err == "error: input has no braid pair A, B\n"
        code, out = run(["analyze", str(rep_file)], capsys)
        assert code == 0
        assert set(json.loads(out)["analysis"]) == {"irreducible"}


@pytest.mark.parametrize(
    "construct, command",
    [
        (TW4_ARGS, ["verify", "--group", "B3"]),
        (TW4_ARGS, ["extend"]),
        (["tw3", "--lambda", "1", "1", "-1"], ["extend", "--mode", "nonstandard3", "--z", "2"]),
        (["perm3", "--t", "8"], ["extend", "--mode", "vb3"]),
        (TW4_ARGS, ["analyze"]),
        (TW4_ARGS, ["certify", "--starts", "10"]),
    ],
    ids=["verify", "extend", "extend-nonstandard3", "extend-vb3", "analyze", "certify"],
)
def test_each_command_opens_its_input_once(tmp_path, capsys, monkeypatch, construct, command):
    rep_file = str(tmp_path / "rep.json")
    assert main(["construct", *construct, "--out", rep_file]) == 0
    opened = []
    real_open = builtins.open

    def recording(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    assert main([command[0], rep_file, *command[1:]]) == 0
    assert opened.count(rep_file) == 1
    capsys.readouterr()


def test_input_hash_names_the_bytes_parsed(tmp_path, capsys, monkeypatch):
    # the file grows while the command runs: the report still names the
    # bytes it analysed
    rep_file = tmp_path / "tw4.json"
    assert main(["construct", *TW4_ARGS, "--out", str(rep_file)]) == 0
    parsed = rep_file.read_bytes()
    search = extend.standard_k_candidates

    def appending(a, b):
        with open(rep_file, "ab") as fh:
            fh.write(b"\n")
        return search(a, b)

    monkeypatch.setattr(extend, "standard_k_candidates", appending)
    capsys.readouterr()
    code, out = run(["analyze", str(rep_file)], capsys)
    assert code == 0
    assert rep_file.read_bytes() != parsed
    assert json.loads(out)["meta"]["input_sha256"] == hashlib.sha256(parsed).hexdigest()


def test_analyze_says_why_the_commutator_and_polynomial_routes_fail(tmp_path, capsys):
    # abeq at n = 3 is LB3 with A = B, and B is not cyclic
    rep_file = str(tmp_path / "abeq3.json")
    abeq = ["abeq", "--n", "3", "--mu", "4", "--sqrt-mu", "2"]
    assert main(["construct", *abeq, "--out", rep_file]) == 0
    capsys.readouterr()
    code, out = run(["analyze", rep_file], capsys)
    assert code == 0
    sections = json.loads(out)["analysis"]
    assert sections["slb3"]["commutator"] == (
        "hypothesis unmet: commutator route needs min poly = char poly"
    )
    assert sections["polynomial_S"] == "unavailable: min poly of B must equal its char poly"
    assert main(["certify", rep_file]) == 2
    assert capsys.readouterr().err == "error: min poly of B must equal its char poly\n"


GENERATORS = ("A", "B", "S1", "S2")
FUZZ_COMMANDS = (
    *(["verify", "--group", g.value] for g in GroupKind),
    *(["extend", "--mode", m, "--z", "2"] for m in ("standard", "nonstandard3", "vb3")),
    ["analyze"],
    ["certify", "--starts", "5"],
)


@pytest.mark.parametrize("target", [g.value for g in GroupKind])
def test_every_generator_set_on_every_command(tmp_path, capsys, target):
    # each subset of the four generator images of perm3(8), the others
    # null: every command exits with a documented code and nothing raises
    full = rep_to_obj(catalog.perm3(8))
    rep_file = tmp_path / "rep.json"
    for mask in range(2 ** len(GENERATORS)):
        obj = {"target": target}
        for i, g in enumerate(GENERATORS):
            obj[g] = full[g] if mask >> i & 1 else None
        rep_file.write_text(json.dumps(obj))
        for command in FUZZ_COMMANDS:
            code = main([command[0], str(rep_file), *command[1:]])
            assert code in (0, 1, 2, 3), (mask, command)
        capsys.readouterr()


def test_extend_vb3_with_k(tmp_path, capsys):
    rep_file = tmp_path / "tw4.json"
    lb3_file = tmp_path / "lb3.json"
    assert main(["construct", *TW4_ARGS, "--out", str(rep_file)]) == 0
    capsys.readouterr()
    _, out = run(["extend", str(rep_file)], capsys)
    lb3_file.write_text(json.dumps(json.loads(out)["representation"]))
    _, out = run(["extend", str(lb3_file), "--mode", "vb3"], capsys)
    searched = json.loads(out)
    assert searched["k"]["coeffs"][0] == "-1/2"  # the only candidate of tw4
    code, out = run(["extend", str(lb3_file), "--mode", "vb3", "--k", "(-1/2)"], capsys)
    assert code == 0
    assert json.loads(out)["representation"] == searched["representation"]
    # (kAB)^3 = -I for k = 1/2, so it is no candidate
    assert main(["extend", str(lb3_file), "--mode", "vb3", "--k", "1/2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_extend_with_k_picks_one_of_three_candidates(tmp_path, capsys):
    # Tr(AB) = 0 here, so the k-search finds three candidates k, k w, k w^2;
    # at N = 1 it adjoins omega, as the builder does, so w/16 is one of them
    rep_file = tmp_path / "n12.json"
    lam = ["z12", "(z12^2)", "(z12^9)"]
    assert main(["construct", "tw3", "--lambda", *lam, "--out", str(rep_file)]) == 0
    capsys.readouterr()
    code, out = run(["extend", str(rep_file), "--k", "z3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["candidate_count"] == 3
    assert cycnum_from_obj(payload["certificate"]["k"]) == make_root_of_unity(12, 4)
    assert main(["extend", str(rep_file), "--k", "2"]) == 2
    assert "--k is not a valid candidate" in capsys.readouterr().err
    n1_file = str(tmp_path / "n1.json")
    assert main(["construct", "tw3", "--lambda", "(-4)", "(-4)", "(-4)", "--out", n1_file]) == 0
    capsys.readouterr()
    code, out = run(["extend", n1_file, "--k", "(1/16*z3)"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["candidate_count"] == 3
    assert cycnum_from_obj(payload["certificate"]["k"]) == parse_scalar("(1/16*z3)")


def test_extend_vb3_refuses_a_k_outside_the_working_field(tmp_path, capsys):
    # perm3(2): k^3 = 1/4 has no cube root in any cyclotomic field, and the
    # empty search forces Tr(AB) = 0, so the refusal is extend's exit 2
    rep_file = tmp_path / "perm3.json"
    assert main(["construct", "perm3", "--t", "2", "--out", str(rep_file)]) == 0
    capsys.readouterr()
    assert main(["extend", str(rep_file), "--mode", "vb3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a standard extension exists only outside the working field: "
        "k^3 must equal 1/4, which has no cube root in any cyclotomic field\n"
    )


# A = B and S1 = S2 = I give B^2 S = AB: the lift's condition on k is the
# k-search's, so its empty search leaves no lift in any field
@pytest.mark.parametrize(
    "name, reason",
    [
        ("z6", "no k gives Tr(kAB) a rational integer"),
        ("d12", "(AB)^3 is not scalar"),
    ],
    ids=["diag-1-1-z6", "diag-1-2"],
)
def test_extend_vb3_without_a_lift_names_the_search_reason(report_inputs, name, reason, capsys):
    capsys.readouterr()
    assert main(["verify", report_inputs[name], "--group", "LB3"]) == 0
    capsys.readouterr()
    assert main(["extend", report_inputs[name], "--mode", "vb3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"no VB3 lift: {reason}\n"


def test_extend_vb3_of_a_non_lb3_input_exits_2(tmp_path, capsys):
    rep_file = tmp_path / "perm3.json"
    assert main(["construct", "perm3", "--t", "2", "--out", str(rep_file)]) == 0
    obj = json.loads(rep_file.read_text())
    obj["S2"] = obj["S1"]
    rep_file.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["extend", str(rep_file), "--mode", "vb3"]) == 2
    assert "input does not verify LB3" in capsys.readouterr().err


def _diagonal_lb3(path, entries) -> str:
    """Write A = B = diag(entries), S1 = S2 = I: diagonal A and B commute, so
    every relation of LB3 holds."""
    a = CMatrix.diagonal(entries)
    one = CMatrix.identity(a.dim, a.conductor)
    path.write_text(json.dumps(rep_to_obj(LBRep(GroupKind.LB3, A=a, B=a, S1=one, S2=one))))
    return str(path)


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    """Input files for every command and every extend mode."""
    d = tmp_path_factory.mktemp("reports")
    names = ("tw3", "tw311", "tw5", "lb3", "c6", "bad", "b9")
    paths = {name: str(d / f"{name}.json") for name in names}
    for name, construct in (
        ("tw3", ["tw3", "--lambda", "1", "2", "3"]),
        ("tw311", ["tw3", "--lambda", "1", "1", "-1"]),
        ("tw5", ["tw5", "--lambda", "1", "2", "1", "3", "1/192", "--gamma", "1/2"]),
        ("lb3", ["perm3", "--t", "8"]),
        ("c6", ["counterexample6"]),
        ("bad", ["perm3", "--t", "2"]),
        ("b9", ["binomial", "--lambda", *"1 2 3 4 6 9 12 18 36".split(), "--c", "36"]),
    ):
        assert main(["construct", *construct, "--out", paths[name]]) == 0
    # S2 := S1 breaks an LB3 relation but keeps the shapes
    bad = d / "bad.json"
    obj = json.loads(bad.read_text())
    obj["S2"] = obj["S1"]
    bad.write_text(json.dumps(obj))
    paths["z6"] = _diagonal_lb3(d / "z6.json", [1, 1, make_root_of_unity(6, 1)])
    paths["d12"] = _diagonal_lb3(d / "d12.json", [1, 2])
    return paths


@pytest.mark.parametrize(
    "argv, code",
    [
        (["construct", "tw3", "--lambda", "1", "2", "3"], 0),
        (["verify", "{tw3}", "--group", "B3"], 0),
        (["verify", "{bad}", "--group", "LB3"], 1),
        (["extend", "{tw5}"], 0),
        (["extend", "{tw311}", "--mode", "nonstandard3", "--z", "2"], 0),
        (["extend", "{lb3}", "--mode", "vb3"], 0),
        (["analyze", "{tw5}"], 0),
        (["analyze", "{b9}"], 0),
        (["certify", "{c6}", "--starts", "20"], 0),
        (["sweep", "--family", "tw2", "--draws", "3"], 0),
    ],
    ids=[
        "construct", "verify", "verify-failing", "extend-standard", "extend-nonstandard3",
        "extend-vb3", "analyze", "analyze-binomial-9", "certify", "sweep",
    ],
)
def test_out_writes_the_bytes_stdout_gets(report_inputs, argv, code, tmp_path, capsys):
    # each command runs twice; the 9-dimensional binomial pair's closure
    # rows mod p have width 81, so each packed slot holds 81 row operations
    argv = [a.format(**report_inputs) for a in argv]
    capsys.readouterr()
    assert main(argv) == code
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    if argv[0] == "analyze":
        assert report["analysis"]["irreducible"] is True
    out_file = tmp_path / "report.json"
    assert main([*argv, "--out", str(out_file)]) == code
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == stdout.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "{c6}"],
        ["extend", "{tw3}", "--mode", "nonstandard3", "--z", "2"],
        ["extend", "{z6}", "--mode", "vb3"],
    ],
    ids=["standard-c6", "nonstandard3-tw3-123", "vb3-diag-1-1-z6"],
)
def test_no_extension_writes_no_report(report_inputs, argv, tmp_path, capsys):
    argv = [a.format(**report_inputs) for a in argv]
    out_file = tmp_path / "report.json"
    capsys.readouterr()
    for extra in ([], ["--out", str(out_file)]):
        assert main([*argv, *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
    assert not out_file.exists()


def test_nonstandard3_of_a_2_dimensional_pair_exits_2(tmp_path, capsys):
    rep_file = str(tmp_path / "tw2.json")
    assert main(["construct", "tw2", "--lambda", "1", "2", "--out", rep_file]) == 0
    capsys.readouterr()
    assert main(["extend", rep_file, "--mode", "nonstandard3", "--z", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nonstandard3 mode needs a 3-dimensional braid pair\n"


@pytest.fixture(scope="module")
def c6_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("c6") / "c6.json"
    assert main(["construct", "counterexample6", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize(
    "option",
    [
        ["--starts", "0"],
        ["--starts", "-5"],
        ["--tol", "-1"],
        ["--tol", "nan"],
        ["--cluster-radius", "0"],
        ["--cluster-radius", "inf"],
        ["--seed", "-1"],
    ],
    ids=["starts-0", "starts-neg", "tol-neg", "tol-nan", "radius-0", "radius-inf", "seed-neg"],
)
def test_certify_out_of_range_option_exits_2(c6_file, option, capsys):
    capsys.readouterr()
    assert main(["certify", str(c6_file), *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option[0].lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "abeq", "--mu", "1", "--sqrt-mu", "1"],
        ["construct", "tw2", "--lambda", "1", "2", "--family", "0"],
        ["construct", "v1", "--lambda", "1", "2", "3"],
        ["sweep", "--family", "tw2", "--draws", "-1"],
        ["sweep", "--family", "tw2", "--draws", "1", "--seed", "-1"],
        ["construct", "abeq", "--n", "129", "--mu", "4", "--sqrt-mu", "2"],
        ["construct", "tw3", "--lambda", "1/0", "1", "1"],
        ["construct", "tw3", "--lambda", "0/0", "1", "1"],
        ["construct", "tw3", "--lambda", "(1/0*z3)", "1", "1"],
        ["construct", *TW4_ARGS[:-1], "1/0"],
        ["construct", "lkb3", "--q", "2", "--t", "3/0"],
        ["construct", "binomial", "--lambda", "1", "1", "--c", "(-1/0)"],
        ["construct", "binomial", "--lambda", "1", "1", "--c", "0"],
    ],
    ids=[
        "abeq-without-n", "tw2-family-0", "v1-three-lambdas", "sweep-negative-draws",
        "sweep-negative-seed", "abeq-n-129",
        "lambda-1/0", "lambda-0/0", "lambda-root-1/0", "gamma2-1/0", "t-3/0", "c-1/0", "c-0",
    ],
)
def test_bad_construct_and_sweep_arguments_exit_2(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# each family with the fewest flags it builds from
MINIMAL_CONSTRUCT = {
    "tw2": ["--lambda", "1", "2"],
    "tw3": ["--lambda", "1", "2", "3"],
    "tw4": TW4_ARGS[1:],
    "tw5": ["--lambda", "1", "2", "3", "4", "4/3", "--gamma", "2"],
    "binomial": ["--lambda", "1", "2", "--c", "2"],
    "counterexample6": [],
    "v1": ["--lambda", "2"],
    "abeq": ["--n", "1", "--mu", "4", "--sqrt-mu", "2"],
    "lkb3": ["--q", "2", "--t", "3"],
    "perm3": ["--t", "2"],
}


@pytest.mark.parametrize("family", MINIMAL_CONSTRUCT)
def test_every_family_constructs_from_its_minimal_flags(family, capsys):
    code, out = run(["construct", family, *MINIMAL_CONSTRUCT[family]], capsys)
    assert code == 0
    assert json.loads(out)["A"] is not None


def test_construct_offers_exactly_the_pinned_families(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "nope"])
    assert exc.value.code == 2
    offered = capsys.readouterr().err.split("choose from", 1)[1]
    assert set(re.findall(r"\w+", offered)) == set(MINIMAL_CONSTRUCT)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["tw4", "--lambda", "1", "2", "3", "2/3"], "--gamma2"),
        (["tw5", "--lambda", "1", "2", "3", "4", "4/3"], "--gamma"),
        (["binomial", "--lambda", "1", "2"], "--c"),
        (["abeq", "--mu", "4", "--sqrt-mu", "2"], "--n"),
        (["abeq", "--n", "1", "--sqrt-mu", "2"], "--mu"),
        (["abeq", "--n", "1", "--mu", "4"], "--sqrt-mu"),
        (["lkb3", "--t", "3"], "--q"),
        (["lkb3", "--q", "2"], "--t"),
        (["perm3"], "--t"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_a_missing_required_flag_is_named(argv, flag, capsys):
    capsys.readouterr()
    assert main(["construct", *argv]) == 2
    assert capsys.readouterr().err == f"error: missing required {flag}\n"


def test_nonstandard3_without_z_names_the_flag(tmp_path, capsys):
    rep_file = str(tmp_path / "tw3.json")
    assert main(["construct", "tw3", "--lambda", "1", "1", "-1", "--out", rep_file]) == 0
    capsys.readouterr()
    assert main(["extend", rep_file, "--mode", "nonstandard3"]) == 2
    assert capsys.readouterr().err == "error: missing required --z\n"


@pytest.fixture(scope="module")
def analyze_inputs(tmp_path_factory):
    """An S3-only rep (perm3 without A, B), a 3-dimensional B3 pair, a
    4-dimensional B3 pair and a 4-dimensional LB3 rep (its extension)."""
    root = tmp_path_factory.mktemp("analyze")
    paths = {name: str(root / f"{name}.json") for name in ("s3", "tw3", "tw4", "lb3")}
    obj = rep_to_obj(catalog.perm3(2))
    with open(paths["s3"], "w") as fh:
        json.dump({**obj, "target": "S3", "A": None, "B": None}, fh)
    assert main(["construct", "tw3", "--lambda", "1", "2", "3", "--out", paths["tw3"]]) == 0
    assert main(["construct", *TW4_ARGS, "--out", paths["tw4"]]) == 0
    ext = str(root / "ext.json")
    assert main(["extend", paths["tw4"], "--out", ext]) == 0
    with open(ext) as fh, open(paths["lb3"], "w") as out:
        json.dump(json.load(fh)["representation"], out)
    return paths


NO_PAIR = "unavailable: input has no braid pair A, B"
NO_S = "unavailable: input has no S1, S2"


@pytest.mark.parametrize(
    "flags, name, expected",
    [
        ([], "s3", {"irreducible": "bool"}),
        ([], "tw3", {"irreducible": "bool", "k_candidates": "dict"}),
        ([], "tw4", {"irreducible": "bool", "uniqueness": "dict", "k_candidates": "dict"}),
        (
            [], "lb3",
            {
                "irreducible": "bool", "uniqueness": "dict", "slb3": "dict",
                "polynomial_S": "list", "k_candidates": "dict",
            },
        ),
        (["--uniqueness", "--slb3"], "s3", {"uniqueness": NO_PAIR, "slb3": NO_PAIR}),
        (
            ["--uniqueness", "--slb3"], "tw3",
            {
                "uniqueness": "unavailable: uniqueness linearization is for dimensions 4 and 5",
                "slb3": NO_S,
            },
        ),
        (["--uniqueness", "--slb3"], "tw4", {"uniqueness": "dict", "slb3": NO_S}),
        (["--uniqueness", "--slb3"], "lb3", {"uniqueness": "dict", "slb3": "dict"}),
    ],
    ids=[
        *(f"no-flag-{name}" for name in ("s3", "tw3", "tw4", "lb3")),
        *(f"uniqueness-slb3-{name}" for name in ("s3", "tw3", "tw4", "lb3")),
    ],
)
def test_analyze_writes_the_pinned_sections(analyze_inputs, flags, name, expected, capsys):
    code, out = run(["analyze", analyze_inputs[name], *flags], capsys)
    assert code == 0
    sections = json.loads(out)["analysis"]
    shapes = {k: v if isinstance(v, str) else type(v).__name__ for k, v in sections.items()}
    assert shapes == expected


def test_inputs_asking_for_too_much_memory_exit_2(tmp_path, c6_file, capsys):
    """A conductor whose reduction tables would not fit, from the command
    line or from a wire file, and an oracle too large to allocate: each is
    refused with one error line, and the conductor before any table.  A
    prime conductor past 2^24, here 2^61 - 1, is refused before it is
    factored."""
    rep_file = tmp_path / "n20000.json"
    assert main(["construct", "tw2", "--lambda", "1", "2", "--out", str(rep_file)]) == 0
    obj = json.loads(rep_file.read_text())
    for m in (obj["A"], obj["B"]):
        m["conductor"] = 20000
        for row in m["entries"]:
            for e in row:
                e["conductor"], e["coeffs"] = 20000, e["coeffs"] + ["0"] * 7999
    rep_file.write_text(json.dumps(obj, separators=(",", ":")))
    capsys.readouterr()
    start = time.monotonic()
    assert main(["construct", "tw2", "--lambda", "z60000", "1"]) == 2
    assert main(["construct", "tw2", "--lambda", f"z{2**61 - 1}", "1"]) == 2
    assert main(["verify", str(rep_file), "--group", "B3"]) == 2
    assert time.monotonic() - start < 5
    assert main(["certify", str(c6_file), "--starts", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 4 and all(line.startswith("error: ") for line in lines)
    assert "conductor 60000" in lines[0] and f"conductor {2**61 - 1}" in lines[1]
    assert "conductor 20000" in lines[2]


def pinned_flow_digests(tmp_path, construct):
    """construct a pair, extend it, and lift its representation to VB3:
    the sha256 of the extend and vb3 reports."""
    rep, ext, lb3, vb3 = (str(tmp_path / f"{s}.json") for s in ("rep", "ext", "lb3", "vb3"))
    assert main(["construct", *construct, "--out", rep]) == 0
    assert main(["extend", rep, "--mode", "standard", "--out", ext]) == 0
    with open(ext) as fh, open(lb3, "w") as out:
        json.dump(json.load(fh)["representation"], out)
    assert main(["extend", lb3, "--mode", "vb3", "--out", vb3]) == 0
    return [
        hashlib.sha256((tmp_path / f"{s}.json").read_bytes()).hexdigest() for s in ("ext", "vb3")
    ]


def test_reports_at_conductor_60_are_pinned(tmp_path, capsys):
    """The pinned flow at N = 60.  Scalars there have phi = 16
    coefficients and the inverses climb a four-step Galois tower, so any
    change in exact arithmetic or in the writer shows here.  The reports
    carry the toolkit version, which a release moves."""
    assert pinned_flow_digests(
        tmp_path, ["tw3", "--lambda", "z60", "(2*z60^2)", "(1/2*z60^57)"]
    ) == [
        "de5b2e4a3b832b3850991e193c280ba684c6d64ec0fdbb0659a735790800b66c",
        "2fd04aa96d4d3a2c0d798ac4ac019508e69276c0a8b472d377bbe745eec4e6b1",
    ]


def test_reports_at_conductor_105_are_pinned(tmp_path, capsys):
    """The pinned flow at N = 105: phi = 48, and Phi_105, the first
    cyclotomic polynomial with a coefficient other than 0 and +-1, has a
    -2.  Folding a product back grows a coefficient up to 28-fold there
    (`_Field.growth`), against 7 at N = 60."""
    assert pinned_flow_digests(
        tmp_path, ["tw3", "--lambda", "z105", "(2*z105^2)", "(1/2*z105^102)"]
    ) == [
        "8a222fb0d81a6348adf2613ea7a2bf811e27370dfccea58eea06f185471b7e5e",
        "af336982eb3b682e2275acd078a5c7fdabc3a6b946c3c6a8e64d5ef551a26434",
    ]


def test_reports_of_a_tw5_flow_at_conductor_12_are_pinned(tmp_path, capsys):
    """The pinned flow of a 5-dimensional pair at N = 12, the flow that
    multiplies the same matrices most often: each of them is prepared for
    the product kernel once and then reused, so any drift between a
    prepared and a fresh operand shows here."""
    lam = ["z12", "(2*z12^2)", "(1/2*z12^3)", "(3*z12^5)", "(1/3*z12^6)"]
    assert pinned_flow_digests(tmp_path, ["tw5", "--lambda", *lam, "--gamma", "z12"]) == [
        "350c1f56f41296583e37eaf91c9a0217f3b5c56994614d49edf7cf1e899425b8",
        "ce3e17cbacbb449e9824c6a40825a6dbda657c02d50df5905835f236cfacdf35",
    ]


def test_analyze_reports_on_the_exact_rank_route_are_pinned(tmp_path, capsys):
    """The pinned `analyze` reports of three inputs whose rank questions
    fall short mod p, so the exact side answers: the tensor square of a
    tw2 family 2 extension (algebra dimension 10 < 16, uniqueness rank 5),
    tw2 family 1 at lambda = (-z3, 1) (3 < 4), and tw4 at an unlucky prime
    (uniqueness rank 8 mod 2147483659, 9 over Q)."""
    rep, ext, square, out = (str(tmp_path / f"{s}.json") for s in ("rep", "ext", "sq", "an"))

    def analyze_digest(path):
        assert main(["analyze", path, "--out", out]) == 0
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert main(["construct", "tw2", "--lambda", "3", "(-1/2)", "--family", "2", "--out", rep]) == 0
    assert main(["extend", rep, "--mode", "standard", "--out", ext]) == 0
    with open(ext) as fh:
        tw2 = rep_from_obj(json.load(fh)["representation"])
    with open(square, "w") as fh:
        fh.write(dumps(rep_to_obj(tensor_product(tw2, tw2))))
    digests = [analyze_digest(square)]
    family1 = ["tw2", "--lambda", "(-1*z3)", "1", "--family", "1"]
    assert main(["construct", *family1, "--out", rep]) == 0
    digests.append(analyze_digest(rep))
    lam = ["1", "4", "1", "4611686069966995600"]  # (1 + p)^2 = 1 mod p
    assert main(["construct", "tw4", "--lambda", *lam, "--gamma2", "4294967320", "--out", rep]) == 0
    digests.append(analyze_digest(rep))
    assert digests == [
        "1e2d1de71ed19e64d72f2f73556f5ee3ae4d0c4414a46bd846cd93d5df3faafa",
        "776e5507572cdf7ee0c0ad7a32d4c0722233518ac6dac63c4f7130d4718a2502",
        "836bd2e6160f49def28d248e7ec7c56f53fd24fa3d0c0ec15efd4ec2868a07f5",
    ]


def test_analyze_forms_each_image_product_and_verdict_once(tmp_path, monkeypatch):
    """All sections of one `analyze` ask about the same matrices, and each
    matrix keeps what was formed from it: every input matrix, and the
    identity of each size, is reduced mod p at most once, no exact product
    is formed twice from the same prepared operands, B's cyclicity is
    decided once, a product is the same object when asked again, and the
    reports are the ones pinned before matrices kept their products (the
    tensor square's digest is also pinned in the test above)."""
    rep, ext, lb3, square, out = (
        str(tmp_path / f"{s}.json") for s in ("rep", "ext", "lb3", "sq", "an")
    )
    tw5 = ["tw5", "--lambda", "1", "2", "3", "4", "4/3", "--gamma", "2"]
    assert main(["construct", *tw5, "--out", rep]) == 0
    assert main(["extend", rep, "--mode", "standard", "--out", ext]) == 0
    with open(ext) as fh, open(lb3, "w") as dest:
        json.dump(json.load(fh)["representation"], dest)
    assert main(["construct", "tw2", "--lambda", "3", "(-1/2)", "--family", "2", "--out", rep]) == 0
    assert main(["extend", rep, "--mode", "standard", "--out", ext]) == 0
    with open(ext) as fh:
        tw2 = rep_from_obj(json.load(fh)["representation"])
    with open(square, "w") as fh:
        fh.write(dumps(rep_to_obj(tensor_product(tw2, tw2))))

    loaded, reduced, products, closures = [], [], [], []
    load_rep, reduce_rows = cli._load_rep, modular.reduce_rows
    packed_product, algebra_dimension = linalg.packed_product, linalg.algebra_dimension

    def recorded(log, fn):
        def wrapper(*args):
            log.append(args)  # holding the operands, so no id is reused
            return fn(*args)
        return wrapper

    monkeypatch.setattr(modular, "reduce_rows", recorded(reduced, reduce_rows))
    monkeypatch.setattr(linalg, "packed_product", recorded(products, packed_product))
    monkeypatch.setattr(linalg, "algebra_dimension", recorded(closures, algebra_dimension))
    monkeypatch.setattr(cli, "_load_rep", lambda *a: loaded.append(load_rep(*a)) or loaded[-1])
    digests = []
    for path in (lb3, square):
        for log in (loaded, reduced, products, closures):
            log.clear()
        assert main(["analyze", path, "--out", out]) == 0
        with open(out, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
        (rep, _), = loaded
        assert rep.S1 is not None and reduced and products
        for m in rep.present():
            assert sum(rows is m.rows for rows, _ in reduced) <= 1
        identities = [
            (len(rows), n)
            for rows, n in reduced
            if all(
                x.is_one if i == j else x.is_zero
                for i, r in enumerate(rows)
                for j, x in enumerate(r)
            )
        ]
        assert len(set(identities)) == len(identities)
        pairs = [(id(x), id(y)) for x, y in products]
        assert len(set(pairs)) == len(pairs)
        assert sum(len(gens) == 1 and gens[0] is rep.B for gens, in closures) == 1
        assert rep.A @ rep.B is rep.A @ rep.B
    assert digests == [
        "2034d41f1bfb245bcb810c4e5cc9b0d27d94c410f83b95bd50f2ecb58d44c752",
        "1e2d1de71ed19e64d72f2f73556f5ee3ae4d0c4414a46bd846cd93d5df3faafa",
    ]


def test_extend_forms_each_product_once(tmp_path, monkeypatch):
    """No `extend` command forms a sum of products twice from the same
    operands, compared by value.  A standard extension makes 6: (AB)^3's
    two, S = kAB, S^2 and the completion's two.  The VB3 lift reuses S'A
    and BS', which verifying the input's L1 kept, and reads Tr(S) off its
    certificate: 12 in `verify`, (AB)^3's two, S, S^2 and the completion's
    two."""
    rep, out = str(tmp_path / "rep60.json"), str(tmp_path / "out.json")
    binomial = ["binomial", "--lambda", "z60", "(2*z60^6)", "(4*z60^11)", "--c", "(4*z60^12)"]
    assert main(["construct", *binomial, "--out", rep]) == 0
    products, packed_product = [], cyclotomic.packed_product

    def values(operand):
        vectors = operand.vectors if isinstance(operand, cyclotomic._Side) else operand
        return tuple(map(tuple, vectors))

    def recorded(rows, cols):
        products.append((values(rows), values(cols)))
        return packed_product(rows, cols)

    for module in (cyclotomic, linalg, extend, modular):
        if getattr(module, "packed_product", None) is packed_product:
            monkeypatch.setattr(module, "packed_product", recorded)
    counts = {}
    for mode in ("standard", "vb3"):
        products.clear()
        assert main(["extend", rep, "--mode", mode, "--out", out]) == 0
        assert len(set(products)) == len(products)
        counts[mode] = len(products)
    assert counts["standard"] == 6 and counts["vb3"] <= 18
