"""Unit tests for the ``repro check --static`` rule catalogue.

Each rule gets a minimal violating snippet (the lint-side "seeded bug"),
a clean counterpart, and a suppression check; the final test pins the
acceptance criterion that the repository itself lints clean.
"""

import pytest

from repro.analysis.lint import (
    RULES,
    format_violations,
    lint_paths,
    lint_source,
    rule_catalogue,
)

ZONE = "src/repro/sim/snippet.py"
OUTSIDE = "src/repro/reporting.py"
HOT = "src/repro/lsq/queues.py"
SCHEMES = "src/repro/core/schemes/snippet.py"


def ids(violations):
    return sorted({v.rule_id for v in violations})


class TestWallClock:
    def test_perf_counter_in_zone(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert ids(lint_source(src, path=ZONE)) == ["REPRO001"]

    def test_datetime_now_in_zone(self):
        src = "import datetime\ndef f():\n    return datetime.now()\n"
        # ``datetime.now`` via attribute access on the module name.
        violations = lint_source(src, path=ZONE)
        assert ids(violations) == ["REPRO001"]

    def test_from_import_flagged(self):
        src = "from time import perf_counter\n"
        assert ids(lint_source(src, path=ZONE)) == ["REPRO001"]

    def test_outside_zone_clean(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert lint_source(src, path=OUTSIDE) == []

    def test_noqa_suppresses(self):
        src = ("import time\ndef f():\n"
               "    return time.perf_counter()  # repro: noqa[REPRO001]\n")
        assert lint_source(src, path=ZONE) == []


class TestAmbientRandom:
    def test_import_random(self):
        src = "import random\n"
        assert ids(lint_source(src, path=ZONE)) == ["REPRO002"]

    def test_random_call(self):
        src = "def f(random):\n    return random.random()\n"
        assert "REPRO002" in ids(lint_source(src, path=ZONE))

    def test_from_random_import(self):
        src = "from random import randint\n"
        assert ids(lint_source(src, path=ZONE)) == ["REPRO002"]

    def test_outside_zone_clean(self):
        assert lint_source("import random\n", path=OUTSIDE) == []


class TestSetIteration:
    def test_for_over_set_local(self):
        src = "def f():\n    pending = set()\n    for x in pending:\n        pass\n"
        assert ids(lint_source(src, path=ZONE)) == ["REPRO003"]

    def test_for_over_set_literal_ctor(self):
        src = "def f(xs):\n    for x in set(xs):\n        pass\n"
        assert ids(lint_source(src, path=ZONE)) == ["REPRO003"]

    def test_comprehension_over_self_attr(self):
        src = ("class Q:\n"
               "    def __init__(self):\n"
               "        self.live = set()\n"
               "    def f(self):\n"
               "        return [x for x in self.live]\n")
        assert "REPRO003" in ids(lint_source(src, path=ZONE))

    def test_sorted_set_is_clean(self):
        src = "def f():\n    pending = set()\n    for x in sorted(pending):\n        pass\n"
        assert lint_source(src, path=ZONE) == []

    def test_membership_is_clean(self):
        src = "def f(x):\n    pending = set()\n    return x in pending\n"
        assert lint_source(src, path=ZONE) == []


class TestHotPathCounters:
    def test_bump_in_hot_function(self):
        src = ("def sq_forward_search_soa(stats):\n"
               "    stats.bump('sq.searches')\n")
        assert ids(lint_source(src, path=HOT)) == ["REPRO004"]

    def test_bump_in_cold_function_ok(self):
        src = ("def drain(stats):\n"
               "    stats.bump('sq.drains')\n")
        assert lint_source(src, path=HOT) == []

    def test_bump_in_unlisted_file_ok(self):
        src = "def f(stats):\n    stats.bump('x')\n"
        assert lint_source(src, path=ZONE) == []


class TestHotPathAllocation:
    @pytest.mark.parametrize("body, label", [
        ("tmp = []", "empty list"),
        ("tmp = {}", "empty dict"),
        ("tmp = list()", "list() call"),
        ("tmp = dict()", "dict() call"),
        ("tmp = [e for e in self.entries]", "comprehension"),
        ("tmp = sorted(self.entries, key=lambda e: e.seq)", "lambda"),
    ])
    def test_allocation_flavours(self, body, label):
        src = ("def lq_violation_search_soa(self):\n"
               f"    {body}\n")
        assert ids(lint_source(src, path=HOT)) == ["REPRO005"], label

    def test_fixed_display_ok(self):
        src = ("def lq_violation_search_soa(self):\n"
               "    return (None, 0)\n")
        assert lint_source(src, path=HOT) == []

    def test_noqa_with_justification(self):
        src = ("def lq_violation_search_soa(self):\n"
               "    tmp = []  # repro: noqa[REPRO005]\n")
        assert lint_source(src, path=HOT) == []


class TestFrozenMutation:
    def test_namedtuple_result_mutated(self):
        src = ("from typing import NamedTuple\n"
               "class ForwardResult(NamedTuple):\n"
               "    hit: bool\n"
               "def f():\n"
               "    r = ForwardResult(True)\n"
               "    r.hit = False\n")
        assert ids(lint_source(src, path=OUTSIDE)) == ["REPRO006"]

    def test_frozen_dataclass_mutated(self):
        src = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\n"
               "class Cfg:\n"
               "    n: int\n"
               "def f():\n"
               "    c = Cfg(1)\n"
               "    c.n += 1\n")
        assert ids(lint_source(src, path=OUTSIDE)) == ["REPRO006"]

    def test_replace_is_clean(self):
        src = ("from typing import NamedTuple\n"
               "class R(NamedTuple):\n"
               "    x: int\n"
               "def f():\n"
               "    r = R(1)\n"
               "    r = r._replace(x=2)\n"
               "    return r\n")
        assert lint_source(src, path=OUTSIDE) == []

    def test_rebound_name_not_tracked(self):
        src = ("from typing import NamedTuple\n"
               "class R(NamedTuple):\n"
               "    x: int\n"
               "class Box:\n"
               "    pass\n"
               "def f():\n"
               "    r = R(1)\n"
               "    r = Box()\n"
               "    r.x = 2\n")
        assert lint_source(src, path=OUTSIDE) == []

    def test_self_mutation_inside_frozen_class(self):
        src = ("from typing import NamedTuple\n"
               "class R(NamedTuple):\n"
               "    x: int\n"
               "    def twiddle(self):\n"
               "        self.x = 3\n")
        assert ids(lint_source(src, path=OUTSIDE)) == ["REPRO006"]


class TestSchemeProtocol:
    def test_misspelled_hook(self):
        src = ("class MyScheme(CheckScheme):\n"
               "    def on_comit(self, instr, cycle):\n"
               "        pass\n")
        violations = lint_source(src, path=SCHEMES)
        assert ids(violations) == ["REPRO007"]
        assert "typo" in violations[0].message

    def test_wrong_arity(self):
        src = ("class MyScheme(CheckScheme):\n"
               "    def on_store_resolve(self, store, cycle, extra):\n"
               "        pass\n")
        assert ids(lint_source(src, path=SCHEMES)) == ["REPRO007"]

    def test_extra_defaulted_arg_ok(self):
        src = ("class MyScheme(CheckScheme):\n"
               "    def on_store_resolve(self, store, cycle, extra=None):\n"
               "        pass\n")
        assert lint_source(src, path=SCHEMES) == []

    def test_conforming_scheme_clean(self):
        src = ("class MyScheme(CheckScheme):\n"
               "    def on_load_issue(self, load, cycle):\n"
               "        return None\n"
               "    def on_commit(self, instr, cycle):\n"
               "        return None\n")
        assert lint_source(src, path=SCHEMES) == []

    def test_non_scheme_class_ignored(self):
        src = ("class Helper:\n"
               "    def on_comit(self, x, y):\n"
               "        pass\n")
        assert lint_source(src, path=SCHEMES) == []

    def test_misspelled_hook_on_hook_set(self):
        src = ("class _MyHooks(SoaHooks):\n"
               "    def on_comit_load(self, slot):\n"
               "        return False\n")
        violations = lint_source(src, path=SCHEMES)
        assert ids(violations) == ["REPRO007"]
        assert "typo" in violations[0].message

    def test_hook_set_wrong_arity(self):
        src = ("class _MyHooks(SoaHooks):\n"
               "    def on_store_resolve(self, slot):\n"
               "        return -1\n")
        assert ids(lint_source(src, path=SCHEMES)) == ["REPRO007"]

    def test_conforming_hook_set_clean(self):
        src = ("class _MyHooks(SoaHooks):\n"
               "    def on_load_issue(self, slot, cycle):\n"
               "        return -1\n"
               "    def on_commit_load(self, slot):\n"
               "        return False\n")
        assert lint_source(src, path=SCHEMES) == []

    def test_outside_schemes_dir_ignored(self):
        src = ("class MyScheme(CheckScheme):\n"
               "    def on_comit(self, instr, cycle):\n"
               "        pass\n")
        assert lint_source(src, path=ZONE) == []


class TestEngine:
    def test_bare_noqa_suppresses_everything(self):
        src = "import random  # repro: noqa\n"
        assert lint_source(src, path=ZONE) == []

    def test_targeted_noqa_other_rule_survives(self):
        src = "import random  # repro: noqa[REPRO001]\n"
        assert ids(lint_source(src, path=ZONE)) == ["REPRO002"]

    def test_noqa_anchors_to_the_whole_statement(self):
        # The violation reports on the opening line; the suppression
        # sits on a continuation line of the same statement.
        src = ("import time\n"
               "def f():\n"
               "    return time.perf_counter(  # a continuation comment\n"
               "    )  # repro: noqa[REPRO001]\n")
        assert lint_source(src, path=ZONE) == []

    def test_noqa_on_the_opening_line_covers_continuations(self):
        src = ("import time\n"
               "def f():\n"
               "    values = [  # repro: noqa[REPRO001]\n"
               "        time.time(),\n"
               "        time.time(),\n"
               "    ]\n"
               "    return values\n")
        assert lint_source(src, path=ZONE) == []

    def test_compound_header_noqa_does_not_blanket_the_block(self):
        # A suppression on an ``if`` header covers the header only —
        # violations inside the body still surface.
        src = ("import time\n"
               "def f(flag):\n"
               "    if flag:  # repro: noqa[REPRO001]\n"
               "        return time.time()\n"
               "    return 0\n")
        assert ids(lint_source(src, path=ZONE)) == ["REPRO001"]

    def test_noqa_inside_a_string_literal_is_inert(self):
        src = ("import time\n"
               "def f():\n"
               '    note = "use # repro: noqa[REPRO001] to suppress"\n'
               "    return (time.time(), note)\n")
        assert ids(lint_source(src, path=ZONE)) == ["REPRO001"]

    def test_violations_sorted_and_formatted(self):
        src = "import random\nimport time\ndef f():\n    return time.time()\n"
        violations = lint_source(src, path=ZONE)
        assert [v.line for v in violations] == sorted(v.line for v in violations)
        text = format_violations(violations)
        assert "REPRO002" in text and text.endswith("violation(s)")

    def test_catalogue_covers_all_rules(self):
        text = rule_catalogue()
        for rule in RULES:
            assert rule.rule_id in text


def test_repository_lints_clean():
    """Acceptance criterion: ``repro check --static`` exits clean on src/."""
    assert lint_paths(["src"]) == []


def test_hot_function_table_names_existing_functions():
    """A stale ``HOT_FUNCTIONS`` entry silently takes its function out of
    REPRO004/REPRO005; every listed qualname must exist in its file."""
    import ast
    from pathlib import Path

    import repro
    from repro.analysis.lint.rules import HOT_FUNCTIONS, _qualname_index

    src = Path(repro.__file__).resolve().parent.parent
    for suffix, names in HOT_FUNCTIONS.items():
        tree = ast.parse((src / suffix).read_text())
        defined = {name for name, _ in _qualname_index(tree)}
        assert names <= defined, f"{suffix}: stale entries {sorted(names - defined)}"
