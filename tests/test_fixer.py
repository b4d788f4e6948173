"""repro.check.fixer: autofix rewrites, idempotency, output identity.

The acceptance contract for ``repro lint --fix``: on a fixture tree
seeded with fixable violations it produces a lint-clean result, a
second run is a no-op, and the *simulated output* of the fixed program
is byte-identical to the original (the rewrites only impose the
deterministic order on already order-independent results).
"""

from __future__ import annotations

import subprocess
import sys

from repro.check import simlint
from repro.check.fixer import fix_paths, fix_source


def remaining(source):
    return [v.code for v in simlint.lint_source(source)]


# ------------------------------------------------------------ single fixes


def test_fix_wraps_set_iteration_in_sorted():
    fixed, count = fix_source("for name in {'b', 'a'}:\n    print(name)\n")
    assert count == 1
    assert "for name in sorted({'b', 'a'}):" in fixed
    assert remaining(fixed) == []


def test_fix_wraps_laundered_set_iteration():
    src = ("names = set(items)\n"
           "for name in names:\n"
           "    print(name)\n")
    fixed, count = fix_source(src)
    assert count == 1
    assert "for name in sorted(names):" in fixed
    assert remaining(fixed) == []


def test_fix_wraps_dict_view_from_set():
    src = ("d = {k: 0 for k in {'b', 'a'}}\n"
           "for k in d.keys():\n"
           "    print(k)\n")
    fixed, _count = fix_source(src)
    assert "sorted(d.keys())" in fixed
    assert remaining(fixed) == []


def test_fix_seeds_bare_random():
    fixed, count = fix_source("import random\nrng = random.Random()\n")
    assert count == 1
    assert "random.Random(0)" in fixed
    assert remaining(fixed) == []


def test_fix_inserts_tracer_guard():
    src = ("def step(tracer, value):\n"
           "    tracer.instant('v', value)\n")
    fixed, count = fix_source(src)
    assert count == 1
    assert "    if tracer is not None:\n        tracer.instant" in fixed
    assert remaining(fixed) == []


def test_fix_inserts_telem_and_recorder_guards():
    src = ("def push(self, value):\n"
           "    self.telem.observe('lat', value)\n"
           "    self.recorder.note_event(value)\n")
    fixed, count = fix_source(src)
    assert count == 2
    assert "if self.telem is not None:" in fixed
    assert "if self.recorder is not None:" in fixed
    assert remaining(fixed) == []


def test_fix_respects_suppressions():
    src = ("for name in {'b', 'a'}:"
           "  # simlint: disable=D103 -- order-free side effect\n"
           "    print(name)\n")
    fixed, count = fix_source(src)
    assert count == 0 and fixed == src


def test_fix_leaves_unfixable_rules_alone():
    src = "import time\nt = time.time()\n"
    fixed, count = fix_source(src)
    assert count == 0 and fixed == src
    assert remaining(fixed) == ["D101"]


# --------------------------------------------------------- the fixture tree


_FIXTURE = """\
import random


class NullTracer:
    enabled = False

    def instant(self, name, value):
        pass


def run():
    values = set([3, 1, 2, 40])
    acc = 0
    for value in values:
        acc = acc + value
    rng = random.Random()
    rng.random()
    tracer = NullTracer()
    tracer.instant('acc', acc)
    print(acc)


if __name__ == '__main__':
    run()
"""


def _run(path):
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          check=True).stdout


def test_fix_tree_becomes_clean_with_byte_identical_output(tmp_path):
    target = tmp_path / "sim_fixture.py"
    target.write_text(_FIXTURE)
    assert simlint.lint_paths([str(tmp_path)]) != []
    before = _run(target)

    fixed = fix_paths([str(tmp_path)])
    assert fixed == {str(target): 3}  # D103 + D102 + O301
    assert simlint.lint_paths([str(tmp_path)]) == []
    assert _run(target) == before


def test_fix_is_idempotent(tmp_path):
    target = tmp_path / "sim_fixture.py"
    target.write_text(_FIXTURE)
    fix_paths([str(tmp_path)])
    first = target.read_text()
    assert fix_paths([str(tmp_path)]) == {}
    assert target.read_text() == first
