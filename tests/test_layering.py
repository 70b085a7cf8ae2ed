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
