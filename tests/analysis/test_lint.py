"""Discipline-linter rules D1–D7."""

from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_paths, lint_source

REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def rules_of(findings):
    return sorted({f.rule for f in findings})


# --------------------------------------------------------------------------- #
# D1: wall-clock / unseeded randomness
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("snippet", [
    "import time\nt = time.time()\n",
    "import time\nt = time.monotonic_ns()\n",
    "import datetime\nd = datetime.datetime.now()\n",
    "from datetime import datetime\nd = datetime.utcnow()\n",
    "import random\nx = random.random()\n",
    "import random\nx = random.randint(0, 9)\n",
    "import random\nr = random.Random()\n",
    "import numpy as np\nr = np.random.default_rng()\n",
])
def test_d1_flags_nondeterminism(snippet):
    assert rules_of(lint_source(snippet, "repro/x.py")) == ["D1"]


@pytest.mark.parametrize("snippet", [
    "import random\nr = random.Random(42)\n",
    "import numpy as np\nr = np.random.default_rng(7)\n",
    "t = clock.seconds\n",
])
def test_d1_allows_seeded_and_simulated_time(snippet):
    assert lint_source(snippet, "repro/x.py") == []


# --------------------------------------------------------------------------- #
# D2: obs plane read-only on the clock
# --------------------------------------------------------------------------- #

def test_d2_flags_clock_spend_in_obs():
    src = "def f(clock):\n    clock.charge(10, 'x')\n    clock.count('e')\n"
    findings = lint_source(src, "repro/obs/exporter.py")
    assert rules_of(findings) == ["D2"]
    assert len(findings) == 2


def test_d2_flags_a_labelled_count_in_obs():
    """The labelled ledger write is ``count`` itself, so D2 covers it;
    the ledger-counter view in ``repro/obs/metrics.py`` only reads."""
    src = "def f(clock):\n    clock.count(('emc', 'mmu', None), 2)\n"
    assert rules_of(lint_source(src, "repro/obs/metrics.py")) == ["D2"]
    view = REPRO_SRC / "obs" / "metrics.py"
    assert lint_source(view.read_text(), "repro/obs/metrics.py") == []


def test_d2_scoped_to_obs_only():
    src = "def f(clock):\n    clock.charge(10, 'x')\n"
    assert lint_source(src, "repro/core/monitor.py") == []


# --------------------------------------------------------------------------- #
# D3: ordered hash preimages
# --------------------------------------------------------------------------- #

def test_d3_flags_bare_dict_iteration():
    src = ("import hashlib\n"
           "def f(d):\n"
           "    return hashlib.sha256(str(d.items()).encode())\n")
    assert rules_of(lint_source(src, "repro/x.py")) == ["D3"]


def test_d3_allows_sorted_iteration():
    src = ("import hashlib\n"
           "def f(d):\n"
           "    return hashlib.sha256(str(sorted(d.items())).encode())\n")
    assert lint_source(src, "repro/x.py") == []


def test_d3_flags_unsorted_json_dumps():
    src = ("import hashlib, json\n"
           "def f(d):\n"
           "    return hashlib.sha256(json.dumps(d).encode())\n")
    assert rules_of(lint_source(src, "repro/x.py")) == ["D3"]


def test_d3_allows_sort_keys():
    src = ("import hashlib, json\n"
           "def f(d):\n"
           "    return hashlib.sha256("
           "json.dumps(d, sort_keys=True).encode())\n")
    assert lint_source(src, "repro/x.py") == []


# --------------------------------------------------------------------------- #
# D4: blanket except
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("handler", [
    "except:", "except Exception:", "except BaseException:",
    "except (ValueError, Exception):",
])
def test_d4_flags_blanket_excepts(handler):
    src = f"try:\n    x = 1\n{handler}\n    pass\n"
    assert rules_of(lint_source(src, "repro/x.py")) == ["D4"]


def test_d4_allows_specific_excepts():
    src = "try:\n    x = 1\nexcept (ValueError, KeyError):\n    pass\n"
    assert lint_source(src, "repro/x.py") == []


# --------------------------------------------------------------------------- #
# D5: fleet cycle charges must be CPU-attributed
# --------------------------------------------------------------------------- #

def test_d5_flags_unattributed_fleet_charge():
    src = "def f(clock):\n    clock.charge(10, 'x')\n"
    assert rules_of(lint_source(src, "repro/fleet/sched.py")) == ["D5"]


def test_d5_allows_on_cpu_scope():
    src = ("def f(clock):\n"
           "    with clock.on_cpu(0):\n"
           "        clock.charge(10, 'x')\n")
    assert lint_source(src, "repro/fleet/sched.py") == []


def test_d5_allows_serial_section_marker():
    src = "def f(clock):\n    clock.charge(10, 'x')  # serial-section\n"
    assert lint_source(src, "repro/fleet/sched.py") == []


def test_d5_scoped_to_fleet_only():
    src = "def f(clock):\n    clock.charge(10, 'x')\n"
    assert lint_source(src, "repro/core/monitor.py") == []


# --------------------------------------------------------------------------- #
# the tree itself
# --------------------------------------------------------------------------- #

def test_tree_lints_clean():
    findings = lint_paths([REPRO_SRC])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_rule_table_is_complete():
    assert list(RULES) == ["D1", "D2", "D3", "D4", "D5", "D6", "D7"]


# --------------------------------------------------------------------------- #
# D6: the translation cache is a host-speed plane
# --------------------------------------------------------------------------- #

TCACHE_PATH = "src/repro/hw/translate.py"


def test_d6_flags_clock_spender_in_tcache():
    src = "def build(self):\n    self.cpu.clock.charge(3, 'instr')\n"
    findings = lint_source(src, TCACHE_PATH)
    assert any(f.rule == "D6" for f in findings)


def test_d6_flags_cycle_read_in_tcache():
    src = "def fresh(self):\n    return self.cpu.clock.cycles > 0\n"
    findings = lint_source(src, TCACHE_PATH)
    assert any(f.rule == "D6" for f in findings)


def test_d6_ignores_other_modules():
    src = "def step(self):\n    self.clock.charge(1, 'instr')\n"
    findings = lint_source(src, "src/repro/hw/cpu.py")
    assert not any(f.rule == "D6" for f in findings)


def test_d6_shipping_translate_module_is_clean():
    source = Path(TCACHE_PATH).read_text()
    findings = lint_source(source, TCACHE_PATH)
    assert [f for f in findings if f.rule == "D6"] == []


# --------------------------------------------------------------------------- #
# D7: shared scheduler state commits only on the serial path
# --------------------------------------------------------------------------- #

FLEET_PATH = "repro/fleet/scheduler.py"

D7_MUTATION = ("def f(self, core):\n"
               "    with self.clock.on_cpu(core):\n"
               "        self.queue.append(1)\n")


def test_d7_flags_mutation_inside_on_cpu():
    findings = lint_source(D7_MUTATION, FLEET_PATH)
    assert any(f.rule == "D7" for f in findings)


def test_d7_flags_assignment_inside_on_cpu():
    src = ("def f(self, core):\n"
           "    with self.clock.on_cpu(core):\n"
           "        self.counts['admit'] = 1\n")
    assert any(f.rule == "D7" for f in lint_source(src, FLEET_PATH))


def test_d7_commit_path_marker_waives():
    src = ("def f(self, core):\n"
           "    with self.clock.on_cpu(core):\n"
           "        self.queue.append(1)  # commit-path\n")
    assert not any(f.rule == "D7" for f in lint_source(src, FLEET_PATH))


def test_d7_allows_mutation_outside_on_cpu():
    src = "def f(self):\n    self.queue.append(1)\n"
    assert not any(f.rule == "D7" for f in lint_source(src, FLEET_PATH))


def test_d7_allows_non_shared_attributes():
    src = ("def f(self, core):\n"
           "    with self.clock.on_cpu(core):\n"
           "        self.scratch.append(1)\n")
    assert not any(f.rule == "D7" for f in lint_source(src, FLEET_PATH))


def test_d7_scoped_to_fleet_only():
    assert not any(f.rule == "D7" for f in
                   lint_source(D7_MUTATION, "repro/core/monitor.py"))


def test_d7_shipping_fleet_package_is_clean():
    findings = lint_paths([REPRO_SRC / "fleet"])
    assert [f for f in findings if f.rule == "D7"] == []
