"""Golden tests: drive the CLI over every shipped fixture.

The manifest pins each worked example to the subcommand/verb that
reproduces it and the exact fields the result must carry.  ``golden/``
holds the full stdout text of every case, so any change to the wire
output, however small, fails here.  After a deliberate change of output,
rewrite those files with ``PYTHONPATH=src python tests/test_fixtures.py``.
"""

import contextlib
import io
import json
import pathlib

import pytest

from hodgekit import cli

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden"
MANIFEST = json.loads((FIXTURES / "manifest.json").read_text())


def case_id(case):
    return f"{case['sub']}-{case['verb']}-{case['input']}"


def run_case(case):
    """Exit code and stdout text of ``hodgekit`` on one case."""
    argv = [case["sub"], case["verb"], "--input", str(FIXTURES / case["input"])]
    if "seed" in case:
        argv += ["--seed", str(case["seed"])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=case_id)
def test_fixture(case):
    code, text = run_case(case)
    assert code == 0
    assert text == (GOLDEN / case_id(case)).read_text()
    result = json.loads(text)
    for key, want in case.get("expect", {}).items():
        assert result[key] == want, (key, result[key], want)
    if "expect_nonempty" in case:
        assert result[case["expect_nonempty"]]


def test_manifest_covers_every_fixture_file():
    listed = {c["input"] for c in MANIFEST["cases"]}
    on_disk = {p.name for p in FIXTURES.glob("*.json")} - {"manifest.json"}
    assert listed == on_disk


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for c in MANIFEST["cases"]:
        rc, txt = run_case(c)
        assert rc == 0, case_id(c)
        (GOLDEN / case_id(c)).write_text(txt)
