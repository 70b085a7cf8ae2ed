"""Layering audit: ``repro.sim`` stays below ``repro.cluster``.

The cache-aside core (:mod:`repro.sim.node`) is driven from both sides: the
single-cache :class:`~repro.sim.simulation.Simulation` next to it and the
fleet's :class:`~repro.cluster.cluster.ClusterSimulation` above it.  That only
stays one core while the dependency points one way.  ``repro.cluster`` imports
``repro.sim.vector``, which imports ``repro.sim.simulation`` — so a
module-level import of ``repro.cluster`` from anywhere in ``repro.sim`` is an
import cycle, and a function-level one is the same back-edge hidden from the
interpreter until the call.  This test scans the source text and pins both
at **zero**.

The core is also object-free: a request reaches :mod:`repro.sim.node` and
:mod:`repro.tier.l1` as scalars taken from a column chunk, so neither module
may import, name or construct :class:`~repro.workload.base.Request`.

And what runs where is stated once: the flags a scenario or a fault plan
declares its needs with are read by :func:`repro.cluster.cluster.check_fleet`
and by nothing else, and the vector envelope is the ``ENVELOPE`` table, not a
function beside it.

And there is one fan-out: :mod:`repro.fanout` is the only module of the
package that imports :mod:`multiprocessing`, and nothing names a ``Pool``.

And there is one replay driver: :mod:`repro.sim.driver` is the only module
that runs the request loop over ``iter_chunks``, schedules flushes beside
snapshots, and puts the store's counters on a result; neither columnar
engine defines its own ``run``.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SIM_ROOT = REPO_ROOT / "src" / "repro" / "sim"

#: Every spelling of "import repro.cluster", at any indentation (so lazy
#: imports inside functions and ``TYPE_CHECKING`` blocks are caught too).
BACK_EDGE_PATTERNS = (
    r"^\s*from\s+repro\.cluster\b",
    r"^\s*import\s+repro\.cluster\b",
    r"^\s*from\s+repro\s+import\s+(.*\W)?cluster\b",
    r"import_module\(\s*[\"']repro\.cluster",
)


def scan() -> "list[str]":
    violations = []
    for path in sorted(SIM_ROOT.rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if any(re.search(pattern, line) for pattern in BACK_EDGE_PATTERNS):
                violations.append(f"{relative}:{number}: {line.strip()}")
    return violations


def test_sim_never_imports_cluster() -> None:
    violations = scan()
    assert violations == [], (
        "repro.sim must not import repro.cluster (the core sits below the "
        "fleet driver):\n" + "\n".join(violations)
    )


def test_audit_scans_the_core_and_would_catch_a_back_edge() -> None:
    # Guard the audit itself: if the tree moves, an empty scan would pass
    # vacuously, and a regex that matches nothing would too.
    scanned = {path.name for path in SIM_ROOT.rglob("*.py")}
    assert {"node.py", "simulation.py", "vector.py"} <= scanned
    for line in (
        "from repro.cluster.results import NodeResult",
        "    from repro.cluster import ClusterSimulation",
        "import repro.cluster.hotkey",
        "        from repro import obs, cluster",
        'module = importlib.import_module("repro.cluster.node")',
    ):
        assert any(re.search(pattern, line) for pattern in BACK_EDGE_PATTERNS), line
    for line in (
        "from repro.sim.node import CacheNode",
        ":class:`~repro.cluster.results.NodeResult` in a fleet.",
        "from repro.clustering import something",
    ):
        assert not any(re.search(pattern, line) for pattern in BACK_EDGE_PATTERNS), line


#: Modules on the per-request path that must never see a request object.
OBJECT_FREE = ("src/repro/sim/node.py", "src/repro/tier/l1.py")


def request_references(source: str) -> "list[int]":
    """Lines of ``source`` whose code (not prose) refers to ``Request``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("Request") is code too; docstrings are prose.
            names = [node.value] if node.value.isidentifier() else []
        else:
            continue
        if "Request" in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_hot_path_neither_imports_nor_constructs_request() -> None:
    for relative in OBJECT_FREE:
        found = request_references((REPO_ROOT / relative).read_text())
        assert found == [], f"{relative} refers to Request on lines {found}"


def test_request_audit_would_catch_every_spelling() -> None:
    for snippet in (
        "from repro.workload.base import OpType, Request",
        "import repro.workload.base\nfill = repro.workload.base.Request(0.0, 'k', None)",
        "def serve(self, request: 'Request') -> bool: ...",
        "if TYPE_CHECKING:\n    from repro.workload.base import Request",
    ):
        assert request_references(snippet), snippet
    assert not request_references('"""Docs may mention a Request."""\nrequests = 0')


#: What a scenario (``requires_*``, ``min_zones``) or a fault plan
#: (``needs_concurrency``) needs of the fleet it runs on.
REQUIREMENT_FLAGS = frozenset(
    {
        "requires_tier",
        "requires_persistence",
        "requires_concurrency",
        "requires_full_fleet",
        "min_zones",
        "needs_concurrency",
    }
)
#: The one reader: (file, function).
RULEBOOK = ("src/repro/cluster/cluster.py", "check_fleet")


def rulebook_violations(source: str, relative: str = "") -> "list[str]":
    """Requirement-flag reads outside the rulebook, and envelope copies.

    A flag may be named by the class that declares it (anywhere in a class
    body that defines one of the flags) and read inside the rulebook
    function; any other attribute access or ``getattr`` / ``hasattr`` by
    that name is a second statement of the rule.  So is a definition of, or
    a reference to, ``_node_vector_eligible``.
    """
    found: "list[str]" = []

    def visit(node: ast.AST, allowed: bool) -> None:
        if isinstance(node, ast.ClassDef):
            allowed = allowed or any(
                isinstance(item, ast.FunctionDef) and item.name in REQUIREMENT_FLAGS
                for item in node.body
            )
        elif isinstance(node, ast.FunctionDef):
            allowed = allowed or (relative, node.name) == RULEBOOK
            if node.name == "_node_vector_eligible":
                found.append(f"{relative}:{node.lineno}: defines _node_vector_eligible")
        elif isinstance(node, ast.Name) and node.id == "_node_vector_eligible":
            found.append(f"{relative}:{node.lineno}: refers to _node_vector_eligible")
        if not allowed:
            name = None
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                name = node.args[1].value
            if name in REQUIREMENT_FLAGS:
                found.append(f"{relative}:{node.lineno}: reads {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), False)
    return found


def test_requirement_flags_are_read_by_the_rulebook_alone() -> None:
    violations = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        violations += rulebook_violations(path.read_text(), relative)
    assert violations == [], (
        "what runs where is stated once, in check_fleet() and the ENVELOPE "
        "table:\n" + "\n".join(violations)
    )


def test_rulebook_audit_scans_the_rulebook_and_would_catch_a_copy() -> None:
    # Guard the audit itself: the function it exempts must exist and read the
    # flags (a renamed rulebook would leave the exemption matching nothing
    # and the flags unread), and each spelling of a copy must be caught.
    relative, function = RULEBOOK
    tree = ast.parse((REPO_ROOT / relative).read_text())
    (rulebook,) = (
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    read = {node.attr for node in ast.walk(rulebook) if isinstance(node, ast.Attribute)}
    assert REQUIREMENT_FLAGS <= read
    for snippet in (
        "def run(self):\n    if self.scenario.requires_tier and self.tier is None: raise E",
        "if materialized.min_zones > self.zones: raise E",
        "ok = getattr(scenario, 'requires_full_fleet', False)",
        "class Planner:\n    def plan(self, chaos):\n        return chaos.needs_concurrency",
        "def _node_vector_eligible(node): return True",
        "eligible = all(_node_vector_eligible(node) for node in nodes)",
    ):
        assert rulebook_violations(snippet), snippet
    for snippet in (
        # The declaring class may name its own flags, and the rulebook reads them.
        "class Warm(Scenario):\n    @property\n    def requires_persistence(self):\n"
        "        return self.rejoin == 'warm' or super().requires_persistence",
        '"""Prose may say requires_tier."""\nrequires = 0',
    ):
        assert not rulebook_violations(snippet), snippet
    assert not rulebook_violations(
        "def check_fleet(scenario):\n    return scenario.requires_tier", RULEBOOK[0]
    )
    assert rulebook_violations("def check_fleet(scenario):\n    return scenario.requires_tier")


#: The one module that may fork.
FANOUT = "src/repro/fanout.py"


def fanout_violations(source: str, relative: str = "") -> "list[str]":
    """Imports of ``multiprocessing`` (any spelling, any depth, submodules
    included) and any import, name or attribute called ``Pool``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        modules, names = [], []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called in ("import_module", "__import__"):
                modules = [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant)]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names = [getattr(node, "id", None) or node.attr]
        if any(str(module).split(".")[0] == "multiprocessing" for module in modules):
            found.append(f"{relative}:{node.lineno}: imports multiprocessing")
        if "Pool" in names:
            found.append(f"{relative}:{node.lineno}: names Pool")
    return found


def test_one_module_imports_multiprocessing_and_none_names_pool() -> None:
    violations = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        violations += fanout_violations(path.read_text(), relative)
    assert [line.split(":")[0] for line in violations] == [FANOUT, FANOUT], (
        "repro.fanout alone forks (its import and its annotation-only one):\n"
        + "\n".join(violations)
    )
    assert not any("Pool" in line for line in violations)


def test_fanout_audit_would_catch_every_spelling() -> None:
    for snippet in (
        "import multiprocessing",
        "import multiprocessing.pool as mp",
        "from multiprocessing import get_context",
        "from multiprocessing.connection import Connection",
        "def run():\n    import multiprocessing as mp\n    return mp",
        "if TYPE_CHECKING:\n    from multiprocessing.connection import Connection",
        "mp = importlib.import_module('multiprocessing')",
        "from concurrent.futures import ProcessPoolExecutor as Pool\nPool()",
        "with context.Pool(processes=2) as pool: pass",
        "from multiprocessing.pool import Pool",
    ):
        assert fanout_violations(snippet), snippet
    for snippet in (
        '"""Prose may say multiprocessing.Pool."""\nworkers = 2',
        "from repro.fanout import fork_each",
        "import multiprocessing_like",
    ):
        assert not fanout_violations(snippet), snippet


#: The one replay driver, and the two columnar engines that must not grow a
#: ``run`` of their own.
DRIVER = "src/repro/sim/driver.py"
VECTOR_CLASSES = (
    ("src/repro/sim/vector.py", "VectorSimulation"),
    ("src/repro/cluster/vector.py", "VectorClusterSimulation"),
)


def driver_sites(source: str) -> "set[str]":
    """Which of the driver's one-of-each ``source`` holds: a call of
    ``iter_chunks`` (a request loop), calls of both a ``flush`` and a
    ``checkpoint`` (a flush/snapshot schedule), and an assignment to
    ``wal_appends`` (the store's counters put on a result)."""
    called, assigned = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            called.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            assigned.add(node.attr)
    sites = set()
    if "iter_chunks" in called:
        sites.add("request-loop")
    if {"flush", "checkpoint"} <= called:
        sites.add("schedule")
    if "wal_appends" in assigned:
        sites.add("store-counters")
    return sites


def methods_of(source: str, class_name: str) -> "set[str]":
    """The methods ``class_name`` defines in ``source`` (KeyError: no such class)."""
    (found,) = (
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == class_name
    )
    return {item.name for item in found.body if isinstance(item, ast.FunctionDef)}


def test_one_request_loop_one_schedule_one_finalize() -> None:
    found: "dict[str, list[str]]" = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        for site in driver_sites(path.read_text()):
            found.setdefault(site, []).append(relative)
    assert found == {site: [DRIVER] for site in ("request-loop", "schedule", "store-counters")}
    for relative, name in VECTOR_CLASSES:
        assert "run" not in methods_of((REPO_ROOT / relative).read_text(), name), name


def test_driver_audit_would_catch_a_second_copy() -> None:
    # The copies each scalar driver held before there was one driver.
    for snippet, site in (
        ("for chunk in iter_chunks(self._stream):\n    pass", "request-loop"),
        (
            "def _advance(self, until):\n    node.flush(until)\n"
            "    self._store.checkpoint(until, self.datastore)",
            "schedule",
        ),
        ("result.totals.wal_appends = stats['wal_appends']", "store-counters"),
    ):
        assert driver_sites(snippet) == {site}, snippet
    for snippet in (
        "from repro.workload.base import iter_chunks",
        "node.flush(time)",
        "appends = stats.wal_appends",
        '"""Prose may say iter_chunks(stream) and checkpoint."""',
    ):
        assert driver_sites(snippet) == set(), snippet
    twin = "class VectorSimulation(SpanReplay, Simulation):\n    def run(self):\n        pass"
    assert methods_of(twin, "VectorSimulation") == {"run"}
