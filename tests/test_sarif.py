"""repro.check.sarif + the ``repro lint`` CLI contract.

SARIF output must validate against the 2.1.0 structure (checked by the
offline validator, which itself must reject broken documents), and the
CLI must keep its exit-code and byte-stability contracts: 0 clean /
1 violations, ``--format json|sarif`` byte-identical across reruns,
``--fix`` a no-op on the second run, ``--debt`` failing only on
reasonless suppressions or ones naming an unknown rule code.
"""

from __future__ import annotations

import json

import pytest

from repro.check import sarif, simlint
from repro.cli import main


@pytest.fixture
def dirty_tree(tmp_path):
    (tmp_path / "dirty.py").write_text(
        "import time\n"
        "import random\n"
        "def go(sim):\n"
        "    t = time.time()\n"
        "    rng = random.Random()\n"
        "    for x in {'b', 'a'}:\n"
        "        sim.log(x)\n")
    return tmp_path


# ------------------------------------------------------------------ sarif


def test_sarif_output_validates(dirty_tree):
    violations = simlint.lint_paths([str(dirty_tree)])
    assert violations
    document = sarif.format_sarif(violations)
    assert sarif.validate_sarif(document) == []
    parsed = json.loads(document)
    assert parsed["version"] == "2.1.0"
    run = parsed["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    # The full rule catalog rides along, and every result points into it.
    ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert ids == sorted(simlint.RULES)
    for result in run["results"]:
        assert ids[result["ruleIndex"]] == result["ruleId"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_empty_run_validates():
    assert sarif.validate_sarif(sarif.format_sarif([])) == []


def test_sarif_is_byte_stable(dirty_tree):
    violations = simlint.lint_paths([str(dirty_tree)])
    assert sarif.format_sarif(violations) == sarif.format_sarif(violations)


def test_validator_rejects_broken_documents():
    assert sarif.validate_sarif("not json") != []
    assert sarif.validate_sarif({}) != []
    assert sarif.validate_sarif({"version": "2.0.0", "runs": []}) != []
    assert sarif.validate_sarif({"version": "2.1.0", "runs": [{}]}) != []
    good = json.loads(sarif.format_sarif([]))
    good["runs"][0]["results"] = [{"ruleId": "NOPE",
                                   "message": {"text": "x"}}]
    assert any("NOPE" in problem
               for problem in sarif.validate_sarif(good))
    bad_region = json.loads(sarif.format_sarif([]))
    bad_region["runs"][0]["results"] = [{
        "message": {"text": "x"},
        "locations": [{"physicalLocation": {
            "artifactLocation": {"uri": "a.py"},
            "region": {"startLine": 0}}}],
    }]
    assert sarif.validate_sarif(bad_region) != []


# ------------------------------------------------------------ CLI contract


def test_cli_exit_codes(dirty_tree, tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    assert main(["lint", str(dirty_tree / "dirty.py")]) == 1
    capsys.readouterr()


def test_cli_json_is_stable_and_sorted(dirty_tree, capsys):
    main(["lint", "--format", "json", str(dirty_tree)])
    first = capsys.readouterr().out
    main(["lint", "--format", "json", str(dirty_tree)])
    second = capsys.readouterr().out
    assert first == second
    document = json.loads(first)
    assert list(document) == sorted(document)
    assert json.dumps(document, indent=2, sort_keys=True) + "\n" == first


def test_cli_sarif_validates(dirty_tree, capsys):
    assert main(["lint", "--format", "sarif", str(dirty_tree)]) == 1
    out = capsys.readouterr().out
    assert sarif.validate_sarif(out) == []


def test_cli_fix_then_clean_and_idempotent(dirty_tree, capsys):
    assert main(["lint", "--fix", str(dirty_tree)]) == 1  # D101 remains
    first = capsys.readouterr().out
    assert "fixed" in first
    remaining = [v.code for v in simlint.lint_paths([str(dirty_tree)])]
    assert remaining == ["D101"]  # the wall-clock read is not mechanical
    assert main(["lint", "--fix", str(dirty_tree)]) == 1
    second = capsys.readouterr().out
    assert "nothing to fix" in second


def test_cli_debt_exit_codes(tmp_path, capsys):
    reasoned = tmp_path / "reasoned.py"
    reasoned.write_text(
        "import time\n"
        "t = time.time()  # simlint: disable=D101 -- host timing\n")
    assert main(["lint", "--debt", str(reasoned)]) == 0
    out = capsys.readouterr().out
    assert "host timing" in out and "0 without a reason" in out
    bare = tmp_path / "bare.py"
    bare.write_text(
        "import time\n"
        "t = time.time()  # simlint: disable=D101\n")
    assert main(["lint", "--debt", str(bare)]) == 1
    assert "NO REASON" in capsys.readouterr().out
    # A suppression naming a retired or misspelt code is stale debt;
    # `all` stays a valid code.
    stale = tmp_path / "stale.py"
    stale.write_text(
        "import time\n"
        "t = time.time()  # simlint: disable=D101,O302 -- host timing\n")
    assert main(["lint", "--debt", str(stale)]) == 1
    assert "UNKNOWN CODE O302" in capsys.readouterr().out
    catch_all = tmp_path / "catch_all.py"
    catch_all.write_text(
        "import time\n"
        "t = time.time()  # simlint: disable=all -- host timing\n")
    assert main(["lint", "--debt", str(catch_all)]) == 0


def test_debt_ignores_suppressions_inside_strings(tmp_path):
    (tmp_path / "fixture.py").write_text(
        'SRC = "x = 1  # simlint: disable=D101"\n'
        "y = 2  # simlint: disable=D104 -- real one\n")
    suppressions = simlint.collect_suppressions([str(tmp_path)])
    assert len(suppressions) == 1
    assert suppressions[0].line == 2
    assert suppressions[0].codes == ("D104",)
    assert suppressions[0].reason == "real one"


def test_debt_parses_file_wide_scope(tmp_path):
    (tmp_path / "wide.py").write_text(
        "# simlint: disable-file=O301,D104 -- fixtures drive hooks\n"
        "x = 1\n")
    suppressions = simlint.collect_suppressions([str(tmp_path)])
    assert len(suppressions) == 1
    assert suppressions[0].scope == "file"
    assert suppressions[0].codes == ("O301", "D104")
    assert suppressions[0].reason == "fixtures drive hooks"
