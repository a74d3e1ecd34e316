import json
import math
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import cli, gm_action, jump_loci, linalg, scalars
from hodgekit.errors import PreconditionError

SCHEMA = json.load(open("src/hodgekit/schemas/wire-v1.json"))


def run_ok(argv):
    result, code = cli.run(argv)
    assert code == 0
    return result


def validate(sub, verb, payload):
    schema = dict(SCHEMA["outputs"][sub][verb])
    schema["$defs"] = SCHEMA["$defs"]
    jsonschema.validate(payload, schema)


def test_rings_verbs():
    out = run_ok(["rings", "conj", "--inline", '{"scalar": "1/2+2/3*i"}'])
    assert out == {"scalar": "1/2-2/3*i"}
    validate("rings", "conj", out)

    out = run_ok(["rings", "eval", "--inline",
                  '{"poly": [{"exp": [1, 0], "coeff": "1"},'
                  ' {"exp": [0, 0], "coeff": "-1"}], "rho": ["1", "5"]}'])
    assert out == {"scalar": "0"}

    out = run_ok(["rings", "rank", "--inline",
                  '{"matrix": [["1", "i"], ["-i", "1"]]}'])
    assert out == {"rank": 1}
    validate("rings", "rank", out)

    out = run_ok(["rings", "minors", "--inline",
                  '{"vars": 1, "k": 1,'
                  ' "matrix": [[[{"exp": [1], "coeff": "1"},'
                  ' {"exp": [0], "coeff": "-1"}]]]}'])
    assert out["minors"] == [[{"exp": [0], "coeff": "-1"},
                              {"exp": [1], "coeff": "1"}]]

    out = run_ok(["rings", "snf", "--inline", '{"matrix": [[2, 0], [0, 3]]}'])
    assert [out["D"][0][0], out["D"][1][1]] == [1, 6]
    validate("rings", "snf", out)


FILT = ('{"dim": 2, "steps": [{"p": 0, "basis": [["1", "0"], ["0", "1"]]},'
        ' {"p": 1, "basis": [["1", "0"]]}]}')


def test_rees_verbs():
    out = run_ok(["rees", "build", "--inline", '{"filtration": %s}' % FILT])
    assert out["weights"] == [1, 0]
    validate("rees", "build", out)

    out2 = run_ok(["rees", "recover", "--inline",
                   json.dumps({"rees": out})])
    validate("rees", "recover", out2)
    assert out2["filtration"]["dim"] == 2

    out3 = run_ok(["rees", "fiber", "--inline",
                   json.dumps({"rees": out, "point": 0})])
    assert out3 == {"grades": {"0": 1, "1": 1}}

    out4 = run_ok(["rees", "griffiths", "--inline",
                   '{"filtration": %s, "nabla": [[["0", "0"], ["1", "0"]]]}'
                   % FILT])
    assert out4 == {"transversal": True}

    tr = ('{"dim": 2, "steps": [{"p": 0, "basis": [["1", "0"], ["0", "1"]]},'
          ' {"p": 1, "basis": [["0", "1"]]}]}')
    out5 = run_ok(["rees", "glue", "--inline",
                   '{"F": %s, "Fbar": %s}' % (FILT, tr)])
    assert out5["splitting"] == [1, 1] and out5["pure"] and out5["weight"] == 1
    validate("rees", "glue", out5)


def test_twistor_verbs():
    q = '{"r": 1, "J": [["0", "-1"], ["1", "0"]]}'
    out = run_ok(["twistor", "structure", "--inline",
                  '{"r": 1, "J": [["0", "-1"], ["1", "0"]], "lambda": "i"}'])
    assert out["sphere"] == {"x": "0", "y": "0", "z": "1"}
    validate("twistor", "structure", out)

    out = run_ok(["twistor", "section", "--inline",
                  '{"r": 1, "J": [["0", "-1"], ["1", "0"]],'
                  ' "v": ["1", "0"], "lambda0": "1"}'])
    assert out["a"] == ["1/2", "-1/2"]
    validate("twistor", "section", out)

    out = run_ok(["twistor", "bundle", "--inline", q])
    assert out["splitting"] == [1, 1]
    validate("twistor", "bundle", out)

    out = run_ok(["twistor", "sff", "--inline", '{"r": 1, "rprime": 1}'])
    assert out == {"dimension": 0}
    out = run_ok(["twistor", "sff", "--inline",
                  '{"r": 1, "rprime": 1, "constraints": "complex"}'])
    assert out["dimension"] > 0


def test_lambda_verbs():
    line = '{"g": 1, "nu": ["1+2*i"], "thetaPrime": ["i"]}'
    out = run_ok(["lambda", "pref", "--inline",
                  '{"line": %s, "lambda": "0"}' % line])
    assert out == {"beta": ["1+2*i"], "eta": ["1*i"], "lambda": "0"}
    validate("lambda", "pref", out)

    point = json.dumps({"point": out | {"lambda": "1"}})
    out2 = run_ok(["lambda", "sigma", "--inline", point])
    assert out2["lambda"] == "-1"
    validate("lambda", "sigma", out2)

    out3 = run_ok(["lambda", "act", "--inline",
                   '{"t": "2", "point": %s}' % json.dumps(out | {"lambda": "1"})])
    assert out3["lambda"] == "2"

    out4 = run_ok(["lambda", "classify", "--inline",
                   '{"beta": [["1+2*i"], ["-1*i"]], "eta": [["1*i"], ["-1+2*i"]]}'])
    assert out4["verdict"] == "prefered"
    assert out4["line"]["nu"] == ["1+2*i"]
    validate("lambda", "classify", out4)


CW = ('{"a": 1, "m": 1, "l": 1,'
      ' "A": [[[{"exp": [1], "coeff": "1"}, {"exp": [0], "coeff": "-1"}]]]}')


def test_jumploci_verbs():
    out = run_ok(["jumploci", "dims", "--inline",
                  '{"cw": %s, "rho": ["2"]}' % CW])
    assert out == {"h2": 0, "h3": 0}
    validate("jumploci", "dims", out)

    out = run_ok(["jumploci", "ideal", "--inline", '{"cw": %s, "k": 1}' % CW])
    assert len(out["generators"]) == 1
    validate("jumploci", "ideal", out)

    cw2 = ('{"a": 2, "m": 1, "l": 1,'
           ' "A": [[[{"exp": [1, 0], "coeff": "1"},'
           ' {"exp": [0, 0], "coeff": "-1"}]]]}')
    out = run_ok(["jumploci", "contains", "--inline",
                  '{"cw": %s, "k": 1, "subtorus":'
                  ' {"zeta": ["1", "1"], "E": [[0], [1]]}}' % cw2])
    assert out == {"contained": True}

    out = run_ok(["jumploci", "scan", "--seed", "5", "--inline",
                  '{"cw": %s, "k": 1, "count": 100}' % CW])
    assert all(c == ["1"] for c in out["characters"])
    validate("jumploci", "scan", out)


def test_scan_requires_seed():
    with pytest.raises(PreconditionError):
        cli.run(["jumploci", "scan", "--inline",
                 '{"cw": %s, "k": 1, "count": 10}' % CW])


def test_gmquot_verbs():
    act = '{"action": {"weights": [0, 1, 2], "a": "-1/2"}}'
    out = run_ok(["gmquot", "fixed", "--inline", act])
    assert len(out["components"]) == 3
    out = run_ok(["gmquot", "membership", "--weights", "0,1,2",
                  "--a", "-1/2", "--point", "1:1:0"])
    assert out == {"status": "in_U"}
    validate("gmquot", "membership", out)
    out = run_ok(["gmquot", "limits", "--inline",
                  '{"action": {"weights": [0, 1, 2], "a": "-1/2"},'
                  ' "point": "1:1:1"}'])
    assert out == {"limit0": ["1", "0", "0"], "limitinf": ["0", "0", "1"]}
    out = run_ok(["gmquot", "decompose", "--inline", act])
    assert out == {"plus": [0], "minus": [1, 2]}
    out = run_ok(["gmquot", "order", "--inline", act])
    assert [0, 2] in out["pairs"]
    out = run_ok(["gmquot", "orbit-eq", "--inline",
                  '{"action": {"weights": [0, 1, 2], "a": "-1/2"},'
                  ' "x": "1:1:1", "y": "1:2:4"}'])
    assert out == {"equivalent": True}
    arc = ('{"action": {"weights": [0, 1, 2], "a": "-1/2"},'
           ' "arc": [[{"exp": 0, "coeff": "1"}], [{"exp": 1, "coeff": "1"}],'
           ' [{"exp": 3, "coeff": "1"}]]}')
    out = run_ok(["gmquot", "arc", "--inline", arc])
    assert out["gauge"] == {"eps": "1", "landing": ["1", "1", "0"]}
    validate("gmquot", "arc", out)
    out = run_ok(["gmquot", "invariants", "--inline",
                  '{"action": {"weights": [0, 1, 2], "a": "1"}, "degree": 2}'])
    assert out == {"monomials": [[0, 2, 0], [1, 0, 1]]}


FAMILY = ('{"family": {"rank": 2, "entries":'
          ' [[[{"zexp": 1, "coeff": {"num": ["1"], "den": ["1"]}}],'
          '   [{"zexp": 0, "coeff": {"num": ["0", "1"], "den": ["1"]}}]],'
          '  [[],'
          '   [{"zexp": -1, "coeff": {"num": ["1"], "den": ["1"]}}]]]}}')


def test_langton_verbs():
    out = run_ok(["langton", "generic", "--inline", FAMILY])
    assert out == {"splitting": [0, 0]}
    out = run_ok(["langton", "special", "--inline", FAMILY])
    assert out == {"splitting": [1, -1]}
    out = run_ok(["langton", "step", "--inline", FAMILY])
    assert out["special_after"] == [0, 0]
    validate("langton", "step", out)
    out = run_ok(["langton", "reduce", "--inline", FAMILY])
    assert out["steps"] == 1 and out["final_type"] == [0, 0]
    validate("langton", "reduce", out)
    # the reduced family re-parses and is already reduced
    again = run_ok(["langton", "reduce", "--inline",
                    json.dumps({"family": out["family"]})])
    assert again["steps"] == 0


RANK0 = '{"family": {"rank": 0, "entries": []}}'


@pytest.mark.parametrize("verb", ["generic", "special", "step", "reduce"])
def test_langton_rank_zero_is_a_precondition(verb, capsys):
    assert cli.main(["langton", verb, "--inline", RANK0]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"kind": "precondition",
                   "reason": "family matrix must have rank >= 1"}


def test_empty_denominator_is_refused(capsys):
    # den [] is the zero polynomial, not 1
    family = {"family": {"rank": 1, "entries": [[[
        {"zexp": 0, "coeff": {"num": ["1"], "den": []}}]]]}}
    assert cli.main(["langton", "generic", "--inline", json.dumps(family)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "precondition",
        "reason": "rational function with zero denominator"}


LINE = {"dim": 1, "steps": [{"p": 0, "basis": [["1"]]}]}


@pytest.mark.parametrize("pairing,reason", [
    ([["1"], ["2"]], "pairing must be 1x1, got 2 rows"),
    ([["1", "2"]], "vector length 2 != dim 1"),
])
def test_rees_glue_refuses_a_pairing_of_the_wrong_shape(pairing, reason, capsys):
    request = {"F": LINE, "Fbar": LINE, "pairing": pairing}
    assert cli.main(["rees", "glue", "--inline", json.dumps(request)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "precondition", "reason": reason}


def run_cli_process(argv):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "hodgekit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_langton_rank_zero_subprocess_has_no_traceback():
    proc = run_cli_process(["langton", "reduce", "--inline", RANK0])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr, proc.stderr


@pytest.mark.parametrize("argv", [
    ["rings", "conj", "--inline", '{"scalar": "1/0"}'],
    ["rings", "conj", "--inline", '{"scalar": "3/0*i"}'],
    ["rings", "conj", "--inline",
     '{"scalar": {"order": 5, "coeffs": ["1/0", "0", "0", "0"]}}'],
    ["rings", "conj", "--inline",
     '{"scalar": {"order": 5, "coeffs": [0.1, 0, 0, 0]}}'],
    ["gmquot", "fixed", "--weights", "0,1,2", "--a", "1/0"],
    ["rings", "snf", "--inline", '{"matrix": [[1.5, 2], [3, true]]}'],
    ["rees", "fiber", "--inline",
     '{"rees": {"weights": [1, 0], "basis": [["1", "0"], ["0", "1"]]},'
     ' "point": 1.7}'],
    ["twistor", "sff", "--inline", '{"r": 1.9, "rprime": true}'],
    ["rings", "snf", "--inline", '{"matrix": [[1, 2], [3]]}'],
    ["rings", "snf", "--inline", '{"matrix": [[1], [2, 3]]}'],
    ["twistor", "sff", "--inline", '{"r": -1, "rprime": 1}'],
    ["twistor", "sff", "--inline", '{"r": 1, "rprime": -2}'],
])
def test_bad_rationals_are_precondition_errors(argv):
    # zero denominators, inexact floats, booleans read as numbers, ragged
    # integer matrices and negative ranks are the caller's error: exit 1
    # with one JSON error document, never a traceback
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr, proc.stderr
    assert json.loads(proc.stdout)["error"]["kind"] == "precondition"


@pytest.mark.parametrize("argv", [
    ["rings", "conj", "--inline", '{"scalar": true}'],
    ["rings", "conj", "--inline", '{"scalar": false}'],
    ["rings", "rank", "--inline", '{"matrix": [[true, "0"], ["0", "1"]]}'],
    ["rings", "eval", "--inline",
     '{"poly": [{"exp": [1.5], "coeff": "1"}], "rho": ["2"]}'],
    ["rings", "eval", "--inline",
     '{"poly": [{"exp": [true], "coeff": "1"}], "rho": ["2"]}'],
    ["gmquot", "arc", "--inline",
     '{"action": {"weights": [0, 1], "a": "-1/2"},'
     ' "arc": [[{"exp": 0.5, "coeff": "1"}], [{"exp": 1, "coeff": "1"}]]}'],
    ["langton", "generic", "--inline",
     '{"family": {"rank": 1, "entries":'
     ' [[[{"zexp": 1.0, "coeff": {"num": ["1"], "den": ["1"]}}]]]}}'],
    ["langton", "generic", "--inline",
     '{"family": {"rank": 1, "entries":'
     ' [[[{"zexp": false, "coeff": {"num": ["1"], "den": ["1"]}}]]]}}'],
    ["rings", "conj", "--inline",
     '{"scalar": {"order": 5.0, "coeffs": ["1", "0", "0", "0"]}}'],
    ["rings", "conj", "--inline",
     '{"scalar": {"order": true, "coeffs": ["1"]}}'],
])
def test_json_booleans_and_floats_are_precondition_errors(argv, capsys):
    # true would read as 1 and 1.5 as the exponent 1: neither is a number here
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "precondition"


def test_ragged_snf_and_negative_sff_ranks_give_their_reasons(capsys):
    for matrix in ([[1, 2], [3]], [[1], [2, 3]]):
        assert cli.main(["rings", "snf", "--inline",
                         json.dumps({"matrix": matrix})]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["reason"] == \
            "ragged matrix"
    for r, rprime in ((-1, 1), (1, -2)):
        assert cli.main(["twistor", "sff", "--inline",
                         json.dumps({"r": r, "rprime": rprime})]) == 1
        assert "non-negative" in json.loads(
            capsys.readouterr().out)["error"]["reason"]


# (fixture, path to one integer field); the CLI verb is the fixture's
INTEGER_FIELDS = [
    ("rings_minors.json", ["k"]), ("rings_minors.json", ["vars"]),
    ("rees_fiber0.json", ["point"]), ("rees_fiber0.json", ["rees", "weights", 0]),
    ("rees_build_flag.json", ["filtration", "dim"]),
    ("rees_build_flag.json", ["filtration", "steps", 1, "p"]),
    ("twistor_sff.json", ["r"]), ("twistor_sff.json", ["rprime"]),
    ("twistor_bundle_r1.json", ["r"]),
    ("lambda_pref.json", ["line", "g"]),
    ("jumploci_dims.json", ["cw", "a"]), ("jumploci_dims.json", ["cw", "m"]),
    ("jumploci_dims.json", ["cw", "l"]),
    ("jumploci_contains.json", ["k"]),
    ("jumploci_contains.json", ["subtorus", "E", 0, 0]),
    ("jumploci_scan.json", ["count"]),
    ("gmquot_invariants.json", ["degree"]),
    ("gmquot_invariants.json", ["action", "weights", 1]),
    ("langton_gap2.json", ["family", "rank"]),
]


@pytest.mark.parametrize("bad", [float, lambda x: True], ids=["float", "bool"])
@pytest.mark.parametrize("fixture,path", INTEGER_FIELDS)
def test_integer_fields_refuse_floats_and_booleans(fixture, path, bad, capsys):
    # the float keeps the fixture's value, so only its type is wrong
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    case = next(c for c in json.loads((fixtures / "manifest.json").read_text())
                ["cases"] if c["input"] == fixture)
    data = json.loads((fixtures / fixture).read_text())
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = bad(holder[path[-1]])
    argv = [case["sub"], case["verb"], "--inline", json.dumps(data)]
    assert cli.main(argv + ["--seed", "7"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "precondition"


GM = '{"action": {"weights": %s, "a": "-1/2"}, %s}'
ARC = '[{"exp": 0, "coeff": "1"}]'


@pytest.mark.parametrize("verb, weights, field", [
    ("limits", "[0, 1]", '"point": "1:1:1"'),
    ("limits", "[0, 1, 2]", '"point": "1:1"'),
    ("membership", "[0, 1]", '"point": "1:1:1"'),
    ("membership", "[0, 1, 2]", '"point": "1:1"'),
    ("order", "[0, 1]", '"witnesses": ["1:1:1"]'),
    ("order", "[0, 1, 2]", '"witnesses": ["1:1"]'),
    ("orbit-eq", "[0, 1]", '"x": "1:1:1", "y": "1:2:4"'),
    ("orbit-eq", "[0, 1, 2]", '"x": "1:1", "y": "1:2"'),
    ("arc", "[0, 1]", '"arc": [%s, %s, %s]' % (ARC, ARC, ARC)),
    ("arc", "[0, 1, 2]", '"arc": [%s, %s]' % (ARC, ARC)),
])
def test_gmquot_coordinate_count_must_match_weights(verb, weights, field, capsys):
    # too many coordinates used to be an IndexError, too few an answer
    # for another space
    assert cli.main(["gmquot", verb, "--inline", GM % (weights, field)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "precondition" and "coordinates for" in err["reason"]


def test_gmquot_coordinate_count_subprocess_has_no_traceback():
    proc = run_cli_process(["gmquot", "limits", "--weights", "0,1", "--point", "1:1:1"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr, proc.stderr
    assert json.loads(proc.stdout)["error"] == {
        "kind": "precondition", "reason": "3 coordinates for 2 weights"}


def test_unexpected_exception_is_internal_exit_2(monkeypatch, capsys):
    def boom(m):
        raise ZeroDivisionError("synthetic")
    monkeypatch.setattr(cli.linalg, "rank", boom)
    assert cli.main(["rings", "rank", "--inline", '{"matrix": [["1"]]}']) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    jsonschema.validate(out, dict(SCHEMA["$defs"]["errorEnvelope"],
                                  **{"$defs": SCHEMA["$defs"]}))
    assert out["error"] == {"kind": "internal", "reason": "ZeroDivisionError: synthetic"}


@pytest.mark.parametrize("error", [TypeError, KeyError, ValueError])
def test_errors_raised_by_the_computation_exit_2(error, monkeypatch, capsys):
    # the input decodes; the same exception types mean bad input only
    # while a reader runs
    def boom(m):
        raise error("synthetic")
    monkeypatch.setattr(cli.linalg, "rank", boom)
    assert cli.main(["rings", "rank", "--inline", '{"matrix": [["1"]]}']) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "internal"


@pytest.mark.parametrize("argv", [
    ["rings", "rank", "--inline", '{"matrix": [5]}'],
    ["rings", "snf", "--inline", '{"matrix": [5]}'],
    ["rings", "minors", "--inline", '{"vars": 1, "k": 1, "matrix": [5]}'],
    ["rees", "griffiths", "--inline",
     '{"filtration": {"dim": 1, "steps": []}, "nabla": 5}'],
    ["gmquot", "order", "--inline",
     '{"action": {"weights": [0, 1], "a": "0"}, "witnesses": 5}'],
    ["gmquot", "fixed", "--weights", "0,x"],
])
def test_errors_raised_while_reading_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "precondition"


def test_empty_snf_matrix_is_refused(capsys):
    assert cli.main(["rings", "snf", "--inline", '{"matrix": []}']) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "precondition", "reason": "expected a non-empty matrix"}


def test_langton_step_reuses_the_special_type_after(special_reductions):
    # one column reduction of the special fiber before the step, one after;
    # the handler reads both types off them and reduces no third time
    out = run_ok(["langton", "step", "--input", "fixtures/langton_gap2.json"])
    assert out["special_before"] == [1, -1] and out["special_after"] == [0, 0]
    assert len(special_reductions.reduced) == 2


def test_selftest_requires_seed_and_runs():
    with pytest.raises(PreconditionError):
        cli.run(["selftest"])
    out, code = cli.run(["selftest", "--seed", "3"])
    assert code == 0 and out["failed"] == 0
    validate("selftest", None, out) if None in SCHEMA["outputs"].get(
        "selftest", {}) else jsonschema.validate(
        out, dict(SCHEMA["outputs"]["selftest"], **{"$defs": SCHEMA["$defs"]}))


# multiplication replaced by addition after import; the battery must see it
# even with assert statements compiled away
SABOTAGED_SELFTEST = """
import sys
from hodgekit import cli
from hodgekit.scalars import Scalar
if not sys.flags.optimize:
    sys.exit(3)
Scalar.__mul__ = Scalar.__add__
sys.exit(cli.main(["selftest", "--seed", "1"]))
"""


def test_selftest_fails_a_sabotaged_operator_under_python_O():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", SABOTAGED_SELFTEST],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    failed = {c["name"] for c in out["checks"] if not c["passed"]}
    assert "scalar-field-axioms" in failed
    assert out["failed"] == len(failed) > 0


def test_exit_codes(capsys):
    code = cli.main(["rings", "conj", "--inline", '{"scalar": "what"}'])
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "precondition"

    code = cli.main(["nonsense"])
    assert code == 1
    capsys.readouterr()

    code = cli.main(["rings", "conj", "--inline", "not json"])
    assert code == 1
    capsys.readouterr()

    # internal invariant breaches exit 2
    def boom(verb, data, seed):
        from hodgekit.errors import InternalInvariantError
        raise InternalInvariantError("synthetic")
    saved = cli.HANDLERS["rings"]
    cli.HANDLERS["rings"] = (boom, saved[1])
    try:
        code = cli.main(["rings", "conj", "--inline", '{"scalar": "1"}'])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "internal"
    finally:
        cli.HANDLERS["rings"] = saved


def test_closed_stdout_is_not_a_traceback():
    # as in `hodgekit ... | head -1`: the reader is gone before the write
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hodgekit.cli", "rings", "conj",
         "--inline", '{"scalar": "1/2+2/3*i"}'],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert code == 1


def test_parser_reused_across_calls(capsys):
    # the parser is built once; a second call in the same process must not
    # see the first call's verb or flags
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["rings", "conj", "--inline", '{"scalar": "i"}',
                     "--seed", "4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"scalar": "-1*i"}
    assert cli.main(["langton", "special", "--inline", FAMILY]) == 0
    assert json.loads(capsys.readouterr().out) == {"splitting": [1, -1]}
    # no seed carried over from the first call
    assert cli.main(["jumploci", "scan", "--inline",
                     '{"cw": %s, "k": 1, "count": 10}' % CW]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "precondition"


I_CONJ = ["--inline", '{"scalar": "i"}']
GM_INLINE = ["--inline", '{"action": {"weights": [-1, 0, 2], "a": "-1/2"},'
             ' "point": "-1:1:0"}']
SCAN = ["--inline", '{"cw": %s, "k": 1, "count": 10}' % CW]


# argv -> the request it must match (same exit 0 and stdout) or, for a
# malformed argv, a text its precondition reason must contain
ARGV_GRAMMAR = [
    pytest.param([], "missing subcommand", id="no-subcommand"),
    pytest.param(["nonsense"], "'nonsense'", id="unknown-subcommand"),
    pytest.param(["--inline", '{"scalar": "i"}', "rings", "conj"], "'--inline'",
                 id="flag-before-subcommand"),
    pytest.param(["rings", "nonsense", *I_CONJ], "'nonsense'", id="unknown-verb"),
    pytest.param(["rings", *I_CONJ], "missing rings verb", id="missing-verb"),
    pytest.param(["selftest", "now", "--seed", "1"], "'now'",
                 id="selftest-takes-no-verb"),
    pytest.param(["rings", "conj", *I_CONJ, "extra"], "'extra'",
                 id="extra-positional"),
    pytest.param(["rings", "conj", "--inl", '{"scalar": "i"}'], "'--inl'",
                 id="abbreviated-flag"),
    pytest.param(["rings", "conj", '--inl={"scalar": "i"}'], "'--inl'",
                 id="abbreviated-joined-flag"),
    pytest.param(["rings", "conj", "--weights", "1", *I_CONJ], "'--weights'",
                 id="gmquot-flag-elsewhere"),
    pytest.param(["rings", *I_CONJ, "--", "conj"], "'--'", id="bare-double-dash"),
    pytest.param(["rings", "conj", "-x", *I_CONJ], "'-x'", id="short-flag"),
    pytest.param(["rings", "conj", "--inline"], "--inline", id="flag-without-value"),
    pytest.param(["rings", "conj", *I_CONJ, "--seed", "x"], "'x'", id="seed-not-int"),
    pytest.param(["rings", "conj", *I_CONJ, "--seed=1.5"], "'1.5'",
                 id="joined-seed-not-int"),
    # every flag in its split and its joined form
    pytest.param(["rings", "conj", "--input", "fixtures/rings_conj.json"],
                 ["rings", "conj", "--inline", '{"scalar": "1/2+2/3*i"}'],
                 id="input-split"),
    pytest.param(["rings", "conj", "--input=fixtures/rings_conj.json"],
                 ["rings", "conj", "--inline", '{"scalar": "1/2+2/3*i"}'],
                 id="input-joined"),
    pytest.param(["rings", "conj", '--inline={"scalar": "i"}'],
                 ["rings", "conj", *I_CONJ], id="inline-joined"),
    pytest.param(["jumploci", "scan", *SCAN, "--seed=3"],
                 ["jumploci", "scan", *SCAN, "--seed", "3"], id="seed-joined"),
    pytest.param(["rings", "conj", *I_CONJ, "--out", os.devnull],
                 ["rings", "conj", *I_CONJ], id="out-split"),
    pytest.param(["rings", "conj", *I_CONJ, f"--out={os.devnull}"],
                 ["rings", "conj", *I_CONJ], id="out-joined"),
    # gmquot's flags stand for an input; values may start with "-"
    pytest.param(["gmquot", "membership", "--weights", "-1,0,2", "--a", "-1/2",
                  "--point", "-1:1:0"],
                 ["gmquot", "membership", *GM_INLINE], id="gmquot-split"),
    pytest.param(["gmquot", "membership", "--weights=-1,0,2", "--a=-1/2",
                  "--point=-1:1:0"],
                 ["gmquot", "membership", *GM_INLINE], id="gmquot-joined"),
    pytest.param(["gmquot", "--a", "-1/2", "--point=-1:1:0", "membership",
                  "--weights", "-1,0,2"],
                 ["gmquot", "membership", *GM_INLINE], id="gmquot-mixed"),
    # the last of a repeated flag wins, and flags may precede the verb
    pytest.param(["rings", "conj", "--inline", '{"scalar": "1"}', *I_CONJ],
                 ["rings", "conj", *I_CONJ], id="repeated-flag"),
    pytest.param(["rings", *I_CONJ, "conj"], ["rings", "conj", *I_CONJ],
                 id="flag-before-verb"),
]


@pytest.mark.parametrize("argv, expect", ARGV_GRAMMAR)
def test_argv_grammar(argv, expect, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    if isinstance(expect, str):
        assert code == 1, out
        err = json.loads(out)["error"]
        assert err["kind"] == "precondition" and expect in err["reason"], err
    else:
        assert code == 0, out
        assert cli.main(expect) == 0
        assert out == capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["rings", "conj", "--help"],
                                  ["gmquot", "-h", "--weights", "0"]])
def test_help_exits_0_and_names_every_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as ex:
        cli.main(argv)
    assert ex.value.code == 0
    words = capsys.readouterr().out.split()
    assert "usage:" in words
    for name in [*cli.HANDLERS, "selftest"]:
        assert name in words, name


def test_importing_the_cli_does_not_import_argparse():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hodgekit.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _cw_json(n):
    """An n x n presentation over Z[t^+-1] with entries t^(i - j)."""
    return {"a": 1, "m": n, "l": n,
            "A": [[[{"exp": [i - j], "coeff": "1"}] for j in range(n)]
                  for i in range(n)]}


# a 12 x 12 request for 6-minors asks for C(12, 6)^2 = 853776 expansions;
# 12 coordinates at degree 10^4 give about 10^37 monomials, which no search
# started before the check could finish
BUDGET_OVERRUNS = [
    pytest.param(["rings", "minors"],
                 {"vars": 1, "k": 6, "matrix": _cw_json(12)["A"]},
                 "853776 minors of size 6 of a 12x12 matrix", "linalg._MAX_MINORS",
                 10000, id="rings-minors"),
    pytest.param(["jumploci", "ideal"], {"cw": _cw_json(12), "k": 7},
                 "853776 minors of size 6 of a 12x12 matrix", "linalg._MAX_MINORS",
                 10000, id="jumploci-ideal"),
    pytest.param(["jumploci", "contains"],
                 {"cw": _cw_json(12), "k": 7,
                  "subtorus": {"zeta": ["1"], "E": [[1]]}},
                 "853776 minors of size 6 of a 12x12 matrix", "linalg._MAX_MINORS",
                 10000, id="jumploci-contains"),
    pytest.param(["gmquot", "invariants"],
                 {"action": {"weights": list(range(12)), "a": "1"},
                  "degree": 10**4},
                 f"{math.comb(10**4 + 11, 11)} monomials of degree 10000 in 12 "
                 "coordinates", "gm_action._MAX_MONOMIALS", 100000,
                 id="gmquot-invariants"),
    pytest.param(["jumploci", "scan", "--seed", "1"],
                 {"cw": _cw_json(2), "k": 1, "count": 10**6},
                 "1000000 character samples", "jump_loci._MAX_SAMPLES",
                 100000, id="jumploci-scan"),
    pytest.param(["rings", "conj"],
                 {"scalar": {"order": 10**6, "coeffs": []}},
                 "1000000 distinct powers of zeta_n",
                 "scalars._MAX_CYCLOTOMIC_ORDER", 120, id="cyclotomic-order"),
]


@pytest.mark.parametrize("argv, request_, counted, name, cap", BUDGET_OVERRUNS)
def test_budget_overrun_exits_1_before_expanding(argv, request_, counted, name,
                                                 cap, monkeypatch, capsys):
    def expanded(*_):
        raise AssertionError("expanded before the budget check")
    monkeypatch.setattr(linalg, "det_ring", expanded)
    assert cli.main([*argv, "--inline", json.dumps(request_)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "precondition",
        "reason": f"{counted} exceed the budget {cap} ({name})"}


@pytest.mark.parametrize("argv, request_, module, name, reason", [
    (["rings", "minors"], {"vars": 1, "k": 2, "matrix": _cw_json(3)["A"]},
     linalg, "_MAX_MINORS", "9 minors of size 2 of a 3x3 matrix exceed the budget 8"),
    (["gmquot", "invariants"],
     {"action": {"weights": [0, 1, 2], "a": "1"}, "degree": 2},
     gm_action, "_MAX_MONOMIALS",
     "6 monomials of degree 2 in 3 coordinates exceed the budget 5"),
    (["jumploci", "scan", "--seed", "1"],
     {"cw": _cw_json(2), "k": 1, "count": 3},
     jump_loci, "_MAX_SAMPLES", "3 character samples exceed the budget 2"),
    (["rings", "conj"],
     {"scalar": {"order": 12, "coeffs": ["1", "0", "0", "0"]}},
     scalars, "_MAX_CYCLOTOMIC_ORDER",
     "12 distinct powers of zeta_n exceed the budget 11"),
])
def test_budget_refuses_one_over_and_runs_at_the_cap(argv, request_, module, name,
                                                     reason, monkeypatch, capsys):
    count = int(reason.split()[0])
    inline = ["--inline", json.dumps(request_)]
    monkeypatch.setattr(module, name, count - 1)
    assert cli.main([*argv, *inline]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["reason"] == (
        f"{reason} ({module.__name__.rsplit('.', 1)[1]}.{name})")
    monkeypatch.setattr(module, name, count)
    assert cli.main([*argv, *inline]) == 0
    capsys.readouterr()


def test_missing_input_rejected():
    with pytest.raises(PreconditionError):
        cli.run(["rees", "build"])


def test_out_flag(tmp_path):
    target = tmp_path / "result.json"
    code = cli.main(["rings", "conj", "--inline", '{"scalar": "i"}',
                     "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text()) == {"scalar": "-1*i"}


def test_out_flag_joined_form(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = cli.main(["rings", "conj", "--inline", '{"scalar": "i"}',
                     f"--out={target}"])
    assert code == 0
    assert target.read_text() == capsys.readouterr().out
    assert json.loads(target.read_text()) == {"scalar": "-1*i"}


def test_unwritable_out_is_a_precondition(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hodgekit.cli", "rings", "conj",
         "--inline", '{"scalar": "i"}',
         "--out", str(tmp_path / "missing" / "result.json")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr, proc.stderr
    err = json.loads(proc.stdout)     # one JSON document, not the result too
    assert err["error"]["kind"] == "precondition"
    assert "--out" in err["error"]["reason"]


@pytest.mark.parametrize("out", [["--out="], ["--out", ""]])
def test_empty_out_is_refused_like_empty_input(out, capsys):
    code = cli.main(["rings", "conj", "--inline", '{"scalar": "i"}', *out])
    assert code == 1
    err = json.loads(capsys.readouterr().out)   # the error only, no result
    assert err["error"]["kind"] == "precondition"
    assert "--out" in err["error"]["reason"]
    assert cli.main(["rings", "conj", "--input="]) == 1


def test_output_reparses():
    # round-trip: results re-parse under the wire formats they declare
    from hodgekit import jsonio
    out = run_ok(["twistor", "bundle", "--inline",
                  '{"r": 1, "J": [["0", "-1"], ["1", "0"]]}'])
    bundle = jsonio.bundle_from_json(out["transition"])
    assert bundle.n == 2
    out = run_ok(["langton", "reduce", "--inline", FAMILY])
    fam = jsonio.family_from_json(out["family"])
    assert fam.n == 2


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.iterdir()), ids=lambda p: p.name)
def test_emitter_matches_json_dumps_on_golden_output(path):
    obj = json.loads(path.read_text())
    assert cli._dumps(obj) == json.dumps(obj, indent=2)
    assert cli._dumps(obj) + "\n" == path.read_text()


# wire trees: what the handlers return
WIRE_SCALARS = (st.none() | st.booleans() | st.integers() | st.text())
WIRE_TREES = st.recursive(
    WIRE_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(WIRE_TREES)
def test_emitter_matches_json_dumps_on_wire_trees(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


def test_emitter_edge_cases():
    for obj in ({}, [], (), {"a": [], "b": {}}, [[[]]], -7, 0, "",
                "\u00e9\u2603\U0001f600 \"q\" \\ \n\x00", {"\u00e9": -1}):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("bad", [{1, 2}, object(), b"x", 1.5, {"k": [1.5]},
                                 {(1,): 2}, {1: 2}, {None: 2}])
def test_emitter_refuses_other_types(bad):
    with pytest.raises(TypeError):
        cli._dumps(bad)


def test_unencodable_result_exits_2(monkeypatch, capsys):
    # json.dumps refuses a set with this TypeError too
    monkeypatch.setattr(cli.linalg, "rank", lambda m: {1})
    assert cli.main(["rings", "rank", "--inline", '{"matrix": [["1"]]}']) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "internal",
        "reason": "TypeError: Object of type set is not JSON serializable"}
