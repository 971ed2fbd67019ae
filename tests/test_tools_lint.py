"""The repo lint framework (``tools/lint``).

The registry carries the built-in checks sharing the analyzer's
findings pipeline.  The real repo must gate clean; each rule must also
actually fire, proven against planted fixture trees, and honour the
shared ``# repro: allow[rule-id]`` suppression syntax.
"""

import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT))
try:
    from tools.lint import registered_checks, run_checks
finally:
    sys.path.pop(0)

BUILTIN_RULES = (
    "ckpt.undeclared-state",
    "lint.docstring",
    "lint.http-plumbing",
    "lint.layering",
    "lint.letter-declaration",
    "lint.monitor-construction",
    "lint.wall-clock",
    "lint.wire-parity",
)


def _plant(tmp_path, relative, text):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestRegistry:
    def test_builtin_rules_registered(self):
        checks = registered_checks()
        for rule in BUILTIN_RULES:
            assert rule in checks
            assert checks[rule]

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            run_checks(rules=["lint.no-such-rule"])

    def test_repo_gates_clean(self):
        report = run_checks()
        assert report.ok, report.render()
        assert sorted(report.facts["checks"]) == sorted(BUILTIN_RULES)


class TestMonitorConstruction:
    def test_direct_construction_outside_psl_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/abv.py",
               "import repro.psl\n\n\ndef build(prop):\n"
               "    return Monitor(prop)\n")
        report = run_checks(tmp_path, rules=["lint.monitor-construction"])
        assert not report.ok
        [finding] = report.findings
        assert finding.path == "src/repro/abv.py"
        assert "compile_properties" in finding.message

    def test_construction_inside_psl_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/psl/factory.py",
               "def build(prop):\n    return Monitor(prop)\n")
        assert run_checks(tmp_path, rules=["lint.monitor-construction"]).ok

    def test_subclasses_found_transitively(self, tmp_path):
        _plant(tmp_path, "src/repro/psl/monitor.py",
               "class Monitor:\n    pass\n\n\n"
               "class SereMonitor(Monitor):\n    pass\n\n\n"
               "class FancyMonitor(SereMonitor):\n    pass\n")
        _plant(tmp_path, "src/repro/user.py",
               "def build():\n    return FancyMonitor()\n")
        report = run_checks(tmp_path, rules=["lint.monitor-construction"])
        assert [f.path for f in report.unsuppressed()] == ["src/repro/user.py"]


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/stamp.py",
               "import time\n\n\ndef stamp():\n    return time.time()\n")
        report = run_checks(tmp_path, rules=["lint.wall-clock"])
        assert not report.ok
        assert "time.time()" in report.findings[0].message

    def test_datetime_now_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/stamp.py",
               "from datetime import datetime\n\n\ndef stamp():\n"
               "    return datetime.now()\n")
        assert not run_checks(tmp_path, rules=["lint.wall-clock"]).ok

    def test_perf_counter_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/timing.py",
               "import time\n\n\ndef measure():\n"
               "    return time.perf_counter()\n")
        assert run_checks(tmp_path, rules=["lint.wall-clock"]).ok

    def test_suppression_comment_allows_a_hit(self, tmp_path):
        _plant(tmp_path, "src/repro/stamp.py",
               "import time\n\n\ndef stamp():\n"
               "    # repro: allow[lint.wall-clock] report header only,"
               " never digested\n"
               "    return time.time()\n")
        report = run_checks(tmp_path, rules=["lint.wall-clock"])
        assert report.ok
        [finding] = report.findings
        assert finding.suppressed is True
        assert "never digested" in finding.suppression_reason


class TestWireParity:
    def test_reader_of_unwritten_field_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/wire.py",
               "class Spec:\n"
               "    def to_json(self):\n"
               "        return {\"name\": self.name}\n\n"
               "    @classmethod\n"
               "    def from_json(cls, doc):\n"
               "        return cls(doc[\"name\"], doc[\"seed\"])\n")
        report = run_checks(tmp_path, rules=["lint.wire-parity"])
        assert not report.ok
        assert "'seed'" in report.findings[0].message

    def test_matched_wire_forms_pass(self, tmp_path):
        _plant(tmp_path, "src/repro/wire.py",
               "class Spec:\n"
               "    def to_json(self):\n"
               "        return {\"name\": self.name, \"seed\": self.seed}\n\n"
               "    @classmethod\n"
               "    def from_json(cls, doc):\n"
               "        return cls(doc[\"name\"], doc.get(\"seed\", 0))\n")
        assert run_checks(tmp_path, rules=["lint.wire-parity"]).ok


class TestHttpPlumbing:
    def test_handler_subclass_and_body_read_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/daemon.py",
               "from http.server import BaseHTTPRequestHandler\n\n\n"
               "class Handler(BaseHTTPRequestHandler):\n"
               "    def do_POST(self):\n"
               "        return self.rfile.read(10)\n")
        report = run_checks(tmp_path, rules=["lint.http-plumbing"])
        assert sorted(f.line for f in report.unsuppressed()) == [4, 6]
        assert all("repro/service.py" in f.message for f in report.findings)

    def test_service_module_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/service.py",
               "import http.server\n\n\n"
               "class Handler(http.server.BaseHTTPRequestHandler):\n"
               "    def do_POST(self):\n"
               "        return self.rfile.read(10)\n")
        assert run_checks(tmp_path, rules=["lint.http-plumbing"]).ok


class TestLetterDeclaration:
    def test_hand_built_letter_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/models/toy/top.py",
               "class Top:\n"
               "    def letter(self):\n"
               "        doc = {'bus_free': self.owner.read() == -1}\n"
               "        return doc\n\n\n"
               "def letter(system):\n"
               "    return dict(want=system.want.read())\n")
        report = run_checks(tmp_path, rules=["lint.letter-declaration"])
        assert sorted(f.line for f in report.unsuppressed()) == [2, 7]
        assert all("LetterDeclaration" in f.message for f in report.findings)

    def test_declarations_and_other_packages_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/models/toy/top.py",
               "from repro.abv.letters import LetterDeclaration\n\n"
               "TOY = LetterDeclaration(('bus_free', 'owner == -1'))\n\n\n"
               "class Top:\n"
               "    letter = TOY\n")
        _plant(tmp_path, "src/repro/translate/module.py",
               "def letter(self):\n"
               "    return {'x': 1}\n")
        assert run_checks(tmp_path, rules=["lint.letter-declaration"]).ok


class TestUndeclaredState:
    _PARENT = (
        "class Slave(Module):\n"
        "    STATE = (('reads', 'reads', SCALAR),)\n\n"
        "    def __init__(self):\n"
        "        self.reads = 0\n"
        "        self.wait_states = 1\n\n"
        "    def access(self):\n"
        "        self.reads += 1\n"
    )

    def test_undeclared_register_flagged_through_extension(self, tmp_path):
        _plant(tmp_path, "src/repro/models/toy/slave.py", self._PARENT)
        _plant(tmp_path, "src/repro/models/toy/faulty.py",
               "class Faulty(Slave):\n"
               "    STATE = Slave.STATE + (('served', 'served', SCALAR),)\n\n"
               "    def access(self):\n"
               "        self.served += 1\n"
               "        self.reads_left, self.flipped = 0, True\n\n\n"
               "class Quiet(Slave):\n"
               "    def access(self):\n"
               "        self.hits = 1\n")
        report = run_checks(tmp_path, rules=["ckpt.undeclared-state"])
        flagged = sorted(
            (f.path, f.line, f.message.split(" assigns ")[1].split(",")[0])
            for f in report.unsuppressed()
        )
        assert flagged == [
            ("src/repro/models/toy/faulty.py", 6, "self.flipped"),
            ("src/repro/models/toy/faulty.py", 6, "self.reads_left"),
            ("src/repro/models/toy/faulty.py", 11, "self.hits"),
        ]

    def test_declared_init_stateless_and_allowed_writes_pass(self, tmp_path):
        _plant(tmp_path, "src/repro/models/toy/slave.py",
               self._PARENT
               + "\n    def rebind(self, items):\n"
               "        # repro: allow[ckpt.undeclared-state] rebuilt from the spec\n"
               "        self.items = items\n\n\n"
               "class Clock(Module):\n"
               "    def tick(self):\n"
               "        self.cycles = 1\n")
        assert run_checks(tmp_path, rules=["ckpt.undeclared-state"]).ok


class TestLayering:
    def test_module_level_workbench_import_in_scenarios_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/scenarios/runner.py",
               "from ..workbench import Workbench\n"
               "from ..sysc.kernel import Simulator\n"
               "import repro.dispatch.planner\n")
        report = run_checks(tmp_path, rules=["lint.layering"])
        flagged = sorted((f.line, f.message) for f in report.unsuppressed())
        assert [line for line, _ in flagged] == [1, 3]
        assert "repro.workbench" in flagged[0][1]
        assert "repro.dispatch.planner" in flagged[1][1]

    def test_function_level_type_checking_and_same_layer_allowed(self, tmp_path):
        _plant(tmp_path, "src/repro/scenarios/runner.py",
               "from typing import TYPE_CHECKING\n"
               "from .sequences import Sequence\n"
               "if TYPE_CHECKING:\n"
               "    from ..workbench import Workbench\n\n"
               "def session():\n"
               "    from ..workbench import Workbench\n"
               "    return Workbench\n")
        _plant(tmp_path, "src/repro/models/toy/duv.py",
               "from ...workbench.duv import DUV\n")
        _plant(tmp_path, "src/repro/service.py", "from .obs import OBS\n")
        assert run_checks(tmp_path, rules=["lint.layering"]).ok

    def test_load_time_imports_in_blocks_and_classes_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/models/toy/__init__.py",
               "try:\n"
               "    from .duv import build_duv\n"
               "except ImportError:\n"
               "    pass\n\n"
               "class Registered:\n"
               "    from ...workbench.registry import ModelRegistry\n")
        report = run_checks(tmp_path, rules=["lint.layering"])
        assert sorted(f.line for f in report.unsuppressed()) == [2, 7]

    def test_package_outside_the_order_flagged(self, tmp_path):
        _plant(tmp_path, "src/repro/gadgets/thing.py", "X = 1\n")
        report = run_checks(tmp_path, rules=["lint.layering"])
        assert [f.path for f in report.unsuppressed()] == [
            "src/repro/gadgets/thing.py"
        ]


class TestEntryPoints:
    def test_module_invocation_gates_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.lint"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "analyze clean" in result.stdout

    def test_module_list_shows_rules(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--list"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        for rule in BUILTIN_RULES:
            assert rule in result.stdout
