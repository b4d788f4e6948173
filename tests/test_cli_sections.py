"""The CLI surface: cell ids, parsed defaults and printed bytes.

The pins were recorded before the artifact subcommands moved onto the
``SECTIONS`` registry, so they hold the registry to the old surface:
the 203 cell ids (the cache keys and BENCH case ids), every artifact
subcommand's parsed defaults, and the stdout of the cheap sections at
small sizes (``tests/data/cli/``).  The whole paper's stdout is the CI
``paper`` job's gate (``tests/data/repro_all.stdout``).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

DATA = Path(__file__).parent / "data"

ALL_CELLS_SHA256 = (
    "a331bb82b5c6fe346d2c7f0abd29e44f6ec06cec1df5ba6edcfcad3e31b35175")


def test_all_cells_ids_are_pinned():
    ids = [cell.id for cell in cli.all_cells()]
    assert len(ids) == 203
    assert len(set(ids)) == 203
    digest = hashlib.sha256("\n".join(ids).encode()).hexdigest()
    assert digest == ALL_CELLS_SHA256


# Parsed defaults of every artifact subcommand (and `all`), minus `func`.
DEFAULTS = {
    "quick": {"jobs": None, "san": False, "telemetry": False, "shards": 0},
    "table2": {"jobs": None, "shards": 0, "depth": [0, 3], "warm": False},
    "table3": {"jobs": None, "shards": 0, "depth": [0], "warm": True},
    "table4": {"jobs": None, "shards": 0, "mb": 16},
    "table5": {"jobs": None, "transactions": 5000, "files": 1000},
    "table6": {"jobs": None, "transactions": 1000},
    "table7": {"jobs": None, "queries": 4, "mb": 128},
    "table8": {"jobs": None, "dirs": 12},
    "table9": {"jobs": None, "transactions": 4000},
    "table10": {"jobs": None, "transactions": 4000},
    "fig3": {"jobs": None, "op": "mkdir"},
    "fig4": {"jobs": None, "op": "mkdir"},
    "fig5": {"jobs": None},
    "fig6": {"jobs": None, "mb": 4},
    "fig7": {"jobs": None},
    "sec7": {"jobs": None},
    "all": {"jobs": None, "no_cache": False},
}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_artifact_defaults_are_pinned(command):
    parsed = vars(cli.build_parser().parse_args([command]))
    assert callable(parsed.pop("func"))
    assert parsed == dict(DEFAULTS[command], command=command)


def test_registry_covers_every_artifact_subcommand():
    names = [name for section in cli.SECTIONS for name in section.names]
    assert sorted(names) == sorted(set(DEFAULTS) - {"all"})
    assert set(names) <= set(cli.iter_subcommands())
    headings = [section.heading for section in cli.SECTIONS]
    assert "table9/table10" in headings
    # One generic command serves every artifact; no per-artifact wrapper.
    assert not [name for name in names if hasattr(cli, "cmd_" + name)]


# Cheap sections at small sizes; the outputs were recorded before the
# registry existed.  Tables 6 and 9/10 cost about a minute each even at
# small sizes (the TPC-C load phase), and fig7 (no size flag) about six
# seconds, so only the CI paper job runs them.  sec7's golden copy is
# checked by test_counters_params_cli.test_cli_sec7_runs, which already
# runs it.
GOLDEN = {
    "quick": ["quick"],
    "table2": ["table2", "--depth", "0"],
    "table3": ["table3"],
    "table4": ["table4", "--mb", "1"],
    "table5": ["table5", "--transactions", "50", "--files", "20"],
    "table7": ["table7", "--queries", "1", "--mb", "4"],
    "table8": ["table8", "--dirs", "1"],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "fig5": ["fig5"],
    "fig6": ["fig6", "--mb", "1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_section_stdout_matches_golden(name, capsys):
    assert cli.main(GOLDEN[name]) == 0
    expected = (DATA / "cli" / ("%s.stdout" % name)).read_text()
    assert capsys.readouterr().out == expected


def test_whole_paper_golden_is_committed():
    """The CI paper job cmp's against this file; keep it whole."""
    text = (DATA / "repro_all.stdout").read_text()
    headings = ["== %s ==" % section.heading for section in cli.SECTIONS]
    assert [line for line in text.splitlines()
            if line.startswith("== ")] == headings
    assert text.endswith("203 cells (0 cached, 203 computed), jobs=2\n")


# -- bad input is a usage error, not a traceback --------------------------------------
# The farm's --nclients/--servers/--connections cases live in test_farm.py.

BAD_ARGS = [
    ["table2", "--jobs", "0"],
    ["table2", "--depth", "-1"],
    ["table4", "--mb", "0"],
    ["table6", "--transactions", "0"],
    ["table9", "--transactions", "-5"],
    ["fig6", "--mb", "x"],
    ["quick", "--shards", "-1"],
    ["all", "--jobs", "0"],
    ["scale", "--clients", "0"],
    ["scale", "--groups", "0"],
    ["scale", "--requests", "0"],
    ["scale", "--repeat", "0"],
    ["scale", "--shards", "0"],
    ["scale", "--jobs", "0"],
    ["explain", "smoke", "--top", "0"],
    ["dash", "smoke", "--width", "0"],
    ["trace", "smoke", "--limit", "-1"],
    ["fig3", "--op", "nosuch"],
    ["fig4", "--op", "nosuch"],
]


@pytest.mark.parametrize("argv", BAD_ARGS, ids=" ".join)
def test_bad_count_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err


def test_bad_count_exits_2_without_traceback():
    """The same contract through the real entry point."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table6", "--transactions", "0"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert "--transactions: must be >= 1 (got 0)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_op_choices_are_the_workload_ops():
    # fig3 accepts BATCH_OPS (run_batching_sweep's own check) and fig4
    # SYSCALL_OPS, every one of which SyscallMicrobench._op must handle.
    from repro.workloads import BATCH_OPS, SYSCALL_OPS, SyscallMicrobench

    class Client:
        def __getattr__(self, _name):
            return lambda *args: iter(())

    bench = SyscallMicrobench("iscsi")
    for op in SYSCALL_OPS:
        assert list(bench._op(Client(), op, 0)) == []
    with pytest.raises(ValueError):
        list(bench._op(Client(), "nosuch", 0))
    parser = cli.build_parser()
    for name, ops in (("fig3", BATCH_OPS), ("fig4", SYSCALL_OPS)):
        for op in ops:
            assert parser.parse_args([name, "--op", op]).op == op


# Each command that reads bench/scale documents, with one bad path.
BAD_DOCUMENTS = {
    "bench old": ["bench", "--compare", "{bad}", "BENCH_quick.json"],
    "bench new": ["bench", "--compare", "BENCH_quick.json", "{bad}"],
    "explain a": ["explain", "smoke", "--bench-a", "{bad}",
                  "--bench-b", "BENCH_quick.json"],
    "explain b": ["explain", "smoke", "--bench-a", "BENCH_quick.json",
                  "--bench-b", "{bad}"],
    "scale": ["scale", "--compare", "{bad}", "BENCH_scale.json"],
}


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "malformed", "not-an-object"])
@pytest.mark.parametrize("argv", BAD_DOCUMENTS.values(),
                         ids=BAD_DOCUMENTS.keys())
def test_unreadable_document_is_a_usage_error(argv, content, tmp_path,
                                              capsys):
    bad = tmp_path / "doc.json"
    if content is not None:
        bad.write_text(content)
    root = Path(__file__).resolve().parents[1]
    argv = [str(bad) if arg == "{bad}"
            else str(root / arg) if arg.startswith("BENCH_") else arg
            for arg in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "%s: cannot read document: %s: " % (argv[0], bad))


def test_unknown_fault_plan_is_a_usage_error(capsys):
    assert cli.main(["faults", "smoke", "--plan", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown fault plan 'nosuch'" in captured.err
