"""The documentation site and the public-API docstring contract."""

import argparse
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"


def test_readme_docs_links_and_mkdocs_nav_resolve() -> None:
    """The same checker CI runs: every relative link and nav entry exists."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_links.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_every_public_export_has_a_docstring() -> None:
    missing = [
        name for name in repro.__all__
        if not (inspect.getdoc(getattr(repro, name)) or "").strip()
    ]
    assert not missing, f"exports without docstrings: {missing}"


def test_api_reference_covers_every_public_export() -> None:
    """Each repro.__all__ symbol appears on exactly one api/ page."""
    directives: list[str] = []
    for page in sorted((DOCS / "api").glob("*.md")):
        directives += re.findall(r"^::: repro\.(\w+)$", page.read_text(), re.MULTILINE)
    exported = set(repro.__all__)
    documented = set(directives)
    assert documented == exported, (
        f"missing from api/: {sorted(exported - documented)}; "
        f"documented but not exported: {sorted(documented - exported)}"
    )
    duplicates = {name for name in directives if directives.count(name) > 1}
    assert not duplicates, f"documented on more than one page: {sorted(duplicates)}"


def test_mkdocstrings_identifiers_resolve_to_real_objects() -> None:
    """Every ``::: dotted.path`` directive in docs/ imports cleanly.

    ``mkdocs build --strict`` would fail on an unresolvable identifier in
    CI; this catches the same class of breakage without mkdocs installed.
    """
    pattern = re.compile(r"^::: ([\w.]+)$", re.MULTILINE)
    for page in sorted(DOCS.rglob("*.md")):
        for dotted in pattern.findall(page.read_text()):
            module_path, _, attribute = dotted.rpartition(".")
            if not module_path:
                importlib.import_module(dotted)
                continue
            module = importlib.import_module(module_path)
            assert hasattr(module, attribute), f"{page.name}: {dotted} does not resolve"


def test_scenario_catalog_documents_every_registered_scenario() -> None:
    from repro.cluster.scenarios import SCENARIO_FACTORIES

    catalog = (DOCS / "scenarios.md").read_text()
    for name in SCENARIO_FACTORIES:
        assert f"`{name}`" in catalog, f"scenario {name!r} missing from docs/scenarios.md"
    # Every scenario section comes with a runnable CLI invocation.
    assert catalog.count("python -m repro") >= len(SCENARIO_FACTORIES)


def test_what_runs_where_is_the_envelope_and_the_refusal_inventory_verbatim() -> None:
    """The guide's two tables are the code's two tables, row for row in order."""
    from repro.cluster.cluster import FLEET_REFUSALS
    from repro.cluster.vector import FLEET_ENVELOPE

    guide = (DOCS / "guides" / "performance.md").read_text()
    section = guide[guide.index("### What runs where"):guide.index("### What a replay costs")]
    envelope = re.findall(r"^\| `([\w-]+)` \| (\w+) \| scalar \| (.+) \|$", section, re.MULTILINE)
    assert envelope == [(row.name, row.scope, row.reason) for row in FLEET_ENVELOPE]
    refusals = re.findall(r"^\| `([\w-]+)` \| ([^|]+) \|$", section, re.MULTILINE)
    assert refusals == list(FLEET_REFUSALS.items())
    assert "`fallback_reason`" in section


def _cli_subcommands() -> set[str]:
    from repro.__main__ import build_parser

    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return set(subparsers.choices)


def test_cli_subcommands_are_documented_in_readme() -> None:
    readme = (ROOT / "README.md").read_text()
    for subcommand in _cli_subcommands():
        assert re.search(rf"python -m repro {subcommand}\b", readme), (
            f"README does not show `python -m repro {subcommand}`"
        )


def test_documented_cli_invocations_name_real_subcommands() -> None:
    """The other direction: no page shows a subcommand the parser refuses."""
    pages = [ROOT / "README.md", ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    pages += DOCS.rglob("*.md")
    subcommands = _cli_subcommands()
    for page in pages:
        shown = set(re.findall(r"python -m repro\s+([a-z][\w-]*)", page.read_text()))
        assert shown <= subcommands, (
            f"{page.relative_to(ROOT)} shows unknown subcommand(s) "
            f"{sorted(shown - subcommands)}"
        )
