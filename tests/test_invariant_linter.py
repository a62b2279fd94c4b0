"""Tests for the static invariant checker (``repro.analysis``).

Each rule gets the fixture-snippet triple — a positive finding, clean code,
and a suppressed finding — plus the cross-cutting machinery tests: the
suppression grammar, the rule inventory, CLI exit codes, and the
acceptance-level guarantee that the shipped tree itself checks clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import all_rules, run_check
from repro.analysis.engine import SUPPRESSION_RULE

REPRO_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

EXPECTED_RULES = {
    "rng-discipline",
    "snapshot-drift",
    "lock-discipline",
    "strict-json",
    "float-determinism",
    "hot-path-purity",
}


def check_snippet(tmp_path: Path, name: str, source: str, select=None):
    """Write one fixture module and run the checker over it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return run_check([path], select=select)


def rule_lines(report, rule_id: str) -> list[int]:
    return [f.line for f in report.findings if f.rule == rule_id]


# ----------------------------------------------------------------------
# registry / inventory
# ----------------------------------------------------------------------


def test_all_six_rules_registered():
    import repro.analysis.rules  # noqa: F401 - populates the registry

    assert EXPECTED_RULES <= set(all_rules())


def test_reports_list_every_active_rule(tmp_path):
    report = check_snippet(tmp_path, "empty.py", "x = 1\n")
    assert set(report.rules) == set(all_rules())
    assert report.ok


# ----------------------------------------------------------------------
# rng-discipline
# ----------------------------------------------------------------------


def test_rng_flags_legacy_global_api(tmp_path):
    report = check_snippet(
        tmp_path,
        "sampler.py",
        "import numpy as np\nx = np.random.rand(3)\n",
        select=["rng-discipline"],
    )
    assert rule_lines(report, "rng-discipline") == [2]


def test_rng_flags_stdlib_random_import(tmp_path):
    report = check_snippet(
        tmp_path, "mod.py", "import random\n", select=["rng-discipline"]
    )
    assert rule_lines(report, "rng-discipline") == [1]


def test_rng_flags_argless_default_rng_everywhere(tmp_path):
    # even in a whitelisted seed boundary, argless default_rng is entropy
    report = check_snippet(
        tmp_path,
        "tuner.py",
        "import numpy as np\nrng = np.random.default_rng()\n",
        select=["rng-discipline"],
    )
    assert rule_lines(report, "rng-discipline") == [2]


def test_rng_seeded_default_rng_outside_boundary(tmp_path):
    report = check_snippet(
        tmp_path,
        "helper.py",
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        select=["rng-discipline"],
    )
    assert rule_lines(report, "rng-discipline") == [2]


def test_rng_seeded_default_rng_in_baco_module_is_flagged(tmp_path):
    # the tuner module is no seed boundary: its draws come from Tuner._rng
    report = check_snippet(
        tmp_path,
        "baco.py",
        "import numpy as np\nrng = np.random.default_rng(3)\n",
        select=["rng-discipline"],
    )
    assert rule_lines(report, "rng-discipline") == [2]


def test_rng_seeded_default_rng_inside_boundary_is_clean(tmp_path):
    report = check_snippet(
        tmp_path,
        "tuner.py",  # whitelisted basename: the Tuner.__init__ seed boundary
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        select=["rng-discipline"],
    )
    assert report.ok


def test_rng_generator_draws_are_clean(tmp_path):
    report = check_snippet(
        tmp_path,
        "mod.py",
        "def draw(rng):\n    return rng.normal(size=3)\n",
        select=["rng-discipline"],
    )
    assert report.ok


def test_rng_suppression(tmp_path):
    report = check_snippet(
        tmp_path,
        "mod.py",
        "import numpy as np\n"
        "x = np.random.rand(3)  # repro: allow[rng-discipline] legacy fixture kept verbatim\n",
        select=["rng-discipline"],
    )
    assert report.ok
    assert len(report.suppressed) == 1
    assert report.suppressed[0].justification == "legacy fixture kept verbatim"


# ----------------------------------------------------------------------
# snapshot-drift
# ----------------------------------------------------------------------

_TOY_TUNER_HEADER = """\
class Tuner:
    def _reset_state(self, budget):
        self._doe_queue = []
    def _propose(self, k, pending):
        raise NotImplementedError
    def _observe(self, configuration, result):
        pass
    def _state_dict(self):
        return {"doe_queue": self._doe_queue}
    def _load_state_dict(self, payload):
        self._doe_queue = payload["doe_queue"]
"""

_BROKEN_TUNER = _TOY_TUNER_HEADER + """\

class BrokenTuner(Tuner):
    def _reset_state(self, budget):
        super()._reset_state(budget)
        self._ask_cache = {}
    def _propose(self, k, pending):
        self._ask_cache[k] = list(range(k))
        return []
"""

_FIXED_TUNER = _TOY_TUNER_HEADER + """\

class FixedTuner(Tuner):
    def _reset_state(self, budget):
        super()._reset_state(budget)
        self._ask_cache = {}
    def _propose(self, k, pending):
        self._ask_cache[k] = list(range(k))
        return []
    def _state_dict(self):
        payload = super()._state_dict()
        payload["ask_cache"] = self._ask_cache
        return payload
    def _load_state_dict(self, payload):
        super()._load_state_dict(payload)
        self._ask_cache = payload["ask_cache"]
"""


def test_snapshot_flags_ask_state_missing_from_snapshot(tmp_path):
    report = check_snippet(
        tmp_path, "toy.py", _BROKEN_TUNER, select=["snapshot-drift"]
    )
    findings = [f for f in report.findings if f.rule == "snapshot-drift"]
    assert len(findings) == 1
    assert "_ask_cache" in findings[0].message
    assert "BrokenTuner" in findings[0].message


def test_snapshot_covered_ask_state_is_clean(tmp_path):
    report = check_snippet(
        tmp_path, "toy.py", _FIXED_TUNER, select=["snapshot-drift"]
    )
    assert report.ok


def test_snapshot_post_restore_write_is_not_coverage(tmp_path):
    """A restore is _reset_state, _observe and _load_state_dict; nothing
    calls a ``_post_restore`` method, so a write there restores nothing."""
    source = _TOY_TUNER_HEADER + """\

class DerivedCacheTuner(Tuner):
    def _reset_state(self, budget):
        super()._reset_state(budget)
        self._cache = {}
    def _propose(self, k, pending):
        self._cache[k] = k
        return []
    def _post_restore(self):
        self._cache = {"rebuilt": True}
"""
    report = check_snippet(
        tmp_path, "toy.py", source, select=["snapshot-drift"]
    )
    findings = [f for f in report.findings if f.rule == "snapshot-drift"]
    assert len(findings) == 1
    assert "DerivedCacheTuner._cache" in findings[0].message


def test_snapshot_load_state_dict_rebuild_counts_as_coverage(tmp_path):
    source = _TOY_TUNER_HEADER + """\

class DerivedCacheTuner(Tuner):
    def _reset_state(self, budget):
        super()._reset_state(budget)
        self._cache = {}
    def _propose(self, k, pending):
        self._cache[k] = k
        return []
    def _load_state_dict(self, payload):
        super()._load_state_dict(payload)
        self._cache = {"rebuilt": True}
"""
    report = check_snippet(
        tmp_path, "toy.py", source, select=["snapshot-drift"]
    )
    assert report.ok


def test_snapshot_replay_rebuilt_observe_state_is_clean(tmp_path):
    source = _TOY_TUNER_HEADER + """\

class ReplayTuner(Tuner):
    def _reset_state(self, budget):
        super()._reset_state(budget)
        self._rows = []
    def _propose(self, k, pending):
        return []
    def _observe(self, configuration, result):
        self._rows.append(configuration)
"""
    report = check_snippet(
        tmp_path, "toy.py", source, select=["snapshot-drift"]
    )
    assert report.ok


def test_snapshot_flags_observe_state_without_reset(tmp_path):
    source = _TOY_TUNER_HEADER + """\

class StaleTuner(Tuner):
    def _propose(self, k, pending):
        return []
    def _observe(self, configuration, result):
        self._rows = getattr(self, "_rows", [])
        self._rows.append(configuration)
"""
    report = check_snippet(
        tmp_path, "toy.py", source, select=["snapshot-drift"]
    )
    findings = [f for f in report.findings if f.rule == "snapshot-drift"]
    assert findings and "_rows" in findings[0].message


def test_snapshot_tracks_local_aliases(tmp_path):
    source = _TOY_TUNER_HEADER + """\

class AliasTuner(Tuner):
    def _reset_state(self, budget):
        super()._reset_state(budget)
        self._policy_state = {}
    def _propose(self, k, pending):
        st = self._policy_state
        st["last"] = k
        return []
"""
    report = check_snippet(
        tmp_path, "toy.py", source, select=["snapshot-drift"]
    )
    findings = [f for f in report.findings if f.rule == "snapshot-drift"]
    assert findings and "_policy_state" in findings[0].message


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------

_LOCKED_CLASS = """\
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._sessions = {}
    def put(self, name, session):
        with self._lock:
            self._sessions[name] = session
    def get(self, name):
        {body}
"""


def test_lock_flags_unlocked_read_of_guarded_attr(tmp_path):
    source = _LOCKED_CLASS.replace("{body}", "return self._sessions.get(name)")
    report = check_snippet(
        tmp_path, "service.py", source, select=["lock-discipline"]
    )
    findings = [f for f in report.findings if f.rule == "lock-discipline"]
    assert findings and "_sessions" in findings[0].message


def test_lock_locked_access_is_clean(tmp_path):
    source = _LOCKED_CLASS.replace(
        "{body}",
        "with self._lock:\n            return self._sessions.get(name)",
    )
    report = check_snippet(
        tmp_path, "service.py", source, select=["lock-discipline"]
    )
    assert report.ok


def test_lock_scope_is_limited_to_threaded_modules(tmp_path):
    source = _LOCKED_CLASS.replace("{body}", "return self._sessions.get(name)")
    report = check_snippet(
        tmp_path, "runner.py", source, select=["lock-discipline"]
    )
    assert report.ok


def test_lock_order_inversion_is_flagged(tmp_path):
    source = """\
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._sessions = {}
    def evict(self, entry):
        with entry.lock:
            with self._lock:
                self._sessions.clear()
"""
    report = check_snippet(
        tmp_path, "service.py", source, select=["lock-discipline"]
    )
    findings = [f for f in report.findings if f.rule == "lock-discipline"]
    assert findings and "lock order" in findings[0].message


# ----------------------------------------------------------------------
# strict-json
# ----------------------------------------------------------------------


def test_strict_json_flags_permissive_dumps_and_loads(tmp_path):
    source = (
        "import json\n"
        "def send(x):\n"
        "    return json.dumps(x)\n"
        "def recv(raw):\n"
        "    return json.loads(raw)\n"
    )
    report = check_snippet(
        tmp_path, "client.py", source, select=["strict-json"]
    )
    assert rule_lines(report, "strict-json") == [3, 5]


def test_strict_json_convention_is_clean(tmp_path):
    source = (
        "import json\n"
        "def _reject_constant(token):\n"
        "    raise ValueError(token)\n"
        "def send(x):\n"
        "    return json.dumps(x, allow_nan=False)\n"
        "def recv(raw):\n"
        "    return json.loads(raw, parse_constant=_reject_constant)\n"
    )
    report = check_snippet(
        tmp_path, "service.py", source, select=["strict-json"]
    )
    assert report.ok


def test_strict_json_ignores_non_wire_modules(tmp_path):
    # disk checkpoints (runner.py) deliberately stay on permissive JSON
    source = "import json\ndef save(x):\n    return json.dumps(x)\n"
    report = check_snippet(
        tmp_path, "runner.py", source, select=["strict-json"]
    )
    assert report.ok


# ----------------------------------------------------------------------
# float-determinism
# ----------------------------------------------------------------------


def test_float_flags_mixed_families_in_one_function(tmp_path):
    source = (
        "# repro: hot-path\n"
        "import math\n"
        "import numpy as np\n"
        "def warp(values, x):\n"
        "    batch = np.log(values)\n"
        "    return batch, math.log(x)\n"
    )
    report = check_snippet(
        tmp_path, "warps.py", source, select=["float-determinism"]
    )
    assert rule_lines(report, "float-determinism") == [6]


def test_float_literal_math_constants_are_exempt(tmp_path):
    source = (
        "# repro: hot-path\n"
        "import math\n"
        "import numpy as np\n"
        "def logpdf(values):\n"
        "    return np.log(values) - 0.5 * math.log(2.0 * math.pi)\n"
    )
    report = check_snippet(
        tmp_path, "warps.py", source, select=["float-determinism"]
    )
    assert report.ok


def test_float_separate_functions_are_clean(tmp_path):
    source = (
        "# repro: hot-path\n"
        "import math\n"
        "import numpy as np\n"
        "def scalar(x):\n"
        "    return math.log(x)\n"
        "def batch(values):\n"
        "    return np.log(values)\n"
    )
    report = check_snippet(
        tmp_path, "warps.py", source, select=["float-determinism"]
    )
    assert report.ok


def test_float_encoding_basename_is_in_scope_without_marker(tmp_path):
    source = (
        "import math\n"
        "import numpy as np\n"
        "def warp(values, x):\n"
        "    return np.exp(values), math.exp(x)\n"
    )
    report = check_snippet(
        tmp_path, "encoding.py", source, select=["float-determinism"]
    )
    assert rule_lines(report, "float-determinism") == [4]


# ----------------------------------------------------------------------
# hot-path-purity
# ----------------------------------------------------------------------


def test_hot_path_flags_per_row_loop(tmp_path):
    source = (
        "# repro: hot-path\n"
        "def climb(rows):\n"
        "    out = []\n"
        "    for row in rows:\n"
        "        out.append(row.sum())\n"
        "    return out\n"
    )
    report = check_snippet(
        tmp_path, "mod.py", source, select=["hot-path-purity"]
    )
    assert rule_lines(report, "hot-path-purity") == [4]


def test_hot_path_flags_tolist(tmp_path):
    source = "# repro: hot-path\ndef f(values):\n    return values.tolist()\n"
    report = check_snippet(
        tmp_path, "mod.py", source, select=["hot-path-purity"]
    )
    assert rule_lines(report, "hot-path-purity") == [3]


def test_hot_path_flags_decode_in_loop(tmp_path):
    source = (
        "# repro: hot-path\n"
        "def winners(order, encoder):\n"
        "    out = []\n"
        "    for i in order:\n"
        "        out.append(encoder.decode(i))\n"
        "    return out\n"
    )
    report = check_snippet(
        tmp_path, "mod.py", source, select=["hot-path-purity"]
    )
    assert rule_lines(report, "hot-path-purity") == [5]


def test_hot_path_unmarked_module_is_ignored(tmp_path):
    source = "def f(rows):\n    return [row for row in rows.tolist()]\n"
    report = check_snippet(
        tmp_path, "mod.py", source, select=["hot-path-purity"]
    )
    assert report.ok


def test_hot_path_suppression_on_loop(tmp_path):
    source = (
        "# repro: hot-path\n"
        "def winners(rows):\n"
        "    # repro: allow[hot-path-purity] decodes the final k winners only\n"
        "    for row in rows:\n"
        "        pass\n"
    )
    report = check_snippet(
        tmp_path, "mod.py", source, select=["hot-path-purity"]
    )
    assert report.ok
    assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# suppression grammar
# ----------------------------------------------------------------------


def test_bare_suppression_does_not_suppress_and_is_flagged(tmp_path):
    source = (
        "import numpy as np\n"
        "x = np.random.rand(3)  # repro: allow[rng-discipline]\n"
    )
    report = check_snippet(tmp_path, "mod.py", source)
    rules = {f.rule for f in report.findings}
    assert "rng-discipline" in rules  # the finding survives
    assert SUPPRESSION_RULE in rules  # and the bare comment is reported


def test_suppression_with_unknown_rule_id_is_flagged(tmp_path):
    source = "x = 1  # repro: allow[made-up-rule] because reasons\n"
    report = check_snippet(tmp_path, "mod.py", source)
    assert [f.rule for f in report.findings] == [SUPPRESSION_RULE]


def test_suppressions_in_docstrings_are_ignored(tmp_path):
    source = '"""Docs show `# repro: allow[rule-id]` syntax."""\nx = 1\n'
    report = check_snippet(tmp_path, "mod.py", source)
    assert report.ok


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def cli(*argv: str) -> int:
    from repro.__main__ import main

    return main(list(argv))


def test_cli_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
    assert cli("check", str(bad)) == 1
    out = capsys.readouterr().out
    assert f"{bad}:2" in out or "bad.py:2" in out
    assert "rng-discipline" in out


def test_cli_exits_zero_on_shipped_tree(capsys):
    assert cli("check", str(REPRO_PACKAGE)) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert cli("check", "--format", "json", str(bad)) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "rng-discipline"
    assert payload["findings"][0]["line"] == 1
    assert set(payload["rules"]) == set(all_rules())


def test_cli_list_rules(capsys):
    assert cli("check", "--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in EXPECTED_RULES:
        assert rule_id in out


def test_cli_select_and_ignore(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert cli("check", "--select", "strict-json", str(bad)) == 0
    capsys.readouterr()
    assert cli("check", "--ignore", "rng-discipline", str(bad)) == 0
    capsys.readouterr()
    assert cli("check", "--select", "rng-discipline", str(bad)) == 1
    capsys.readouterr()


def test_cli_unknown_rule_is_usage_error(tmp_path, capsys):
    assert cli("check", "--select", "no-such-rule", str(tmp_path)) == 2
    assert "unknown rule" in capsys.readouterr().out


# ----------------------------------------------------------------------
# acceptance: the shipped tree is clean and every suppression is justified
# ----------------------------------------------------------------------


def test_shipped_tree_is_clean():
    report = run_check([REPRO_PACKAGE])
    assert report.ok, report.render_human()
    assert report.checked_files > 50
    for finding in report.suppressed:
        assert finding.justification, finding.location()
