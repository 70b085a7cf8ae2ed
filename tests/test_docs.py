"""The documentation site and the public-API docstring contract."""

import argparse
import importlib
import inspect
import re
import shlex
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
    """Each repro.__all__ symbol appears on exactly one api/ page (under the
    path of the module that defines it)."""
    directives: list[str] = []
    for page in sorted((DOCS / "api").glob("*.md")):
        directives += re.findall(r"^::: repro\.[\w.]*?(\w+)$", page.read_text(), re.MULTILINE)
    exported = set(repro.__all__)
    documented = set(directives)
    assert documented == exported, (
        f"missing from api/: {sorted(exported - documented)}; "
        f"documented but not exported: {sorted(documented - exported)}"
    )
    duplicates = {name for name in directives if directives.count(name) > 1}
    assert not duplicates, f"documented on more than one page: {sorted(duplicates)}"


def test_mkdocstrings_identifiers_resolve_to_real_objects() -> None:
    """Every ``::: dotted.path`` directive in docs/ imports cleanly, and is
    the object's own path.

    ``mkdocs build --strict`` would fail on an unresolvable identifier in
    CI; this catches the same class of breakage without mkdocs installed.
    mkdocstrings resolves a directive statically, and a package imports its
    exports on first use (a module ``__getattr__``), which it cannot follow:
    so a directive names the module that defines the object, as
    ``obj.__module__ + "." + obj.__qualname__`` — or a module by its name.
    """
    pattern = re.compile(r"^::: ([\w.]+)$", re.MULTILINE)
    targets = []
    for page in sorted(DOCS.rglob("*.md")):
        for dotted in pattern.findall(page.read_text()):
            module_path, _, attribute = dotted.rpartition(".")
            try:
                obj = importlib.import_module(dotted)
                path = obj.__name__
            except ModuleNotFoundError:
                obj = getattr(importlib.import_module(module_path), attribute)
                path = f"{obj.__module__}.{obj.__qualname__}"
            assert dotted == path, f"{page.name}: {dotted} is defined as {path}"
            targets.append(dotted)
    assert len(targets) == len(repro.__all__) + 1  # and the package itself


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


def test_the_experiments_page_lists_the_axis_table_row_for_row() -> None:
    from repro.experiments.spec import AXES

    page = (DOCS / "api" / "experiments.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| .+ \| ((?:`\w+`(?:, )?)+) \|$", page, re.MULTILINE)
    assert [(field, tuple(re.findall(r"\w+", cells))) for field, cells in rows] == [
        (axis.field, axis.coordinates) for axis in AXES
    ]


def _subparsers(parser: argparse.ArgumentParser) -> "dict[str, argparse.ArgumentParser]":
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _cli_subcommands() -> set[str]:
    from repro.__main__ import build_parser

    return set(_subparsers(build_parser()))


def test_cli_subcommands_are_documented_in_readme() -> None:
    readme = (ROOT / "README.md").read_text()
    for subcommand in _cli_subcommands():
        assert re.search(rf"python -m repro {subcommand}\b", readme), (
            f"README does not show `python -m repro {subcommand}`"
        )


def _documented_command_lines(text: str) -> "list[str]":
    """Every ``python -m repro ...`` invocation of a page, as one line each.

    Backslash continuations are joined; an inline code span runs to its
    closing backtick (it may wrap), a code-block line to the first shell
    operator or comment.
    """
    joined = re.sub(r"\\\n\s*", " ", text)
    spans = re.findall(r"`python -m repro\s+([a-z][^`]*)`", joined)
    lines = re.findall(r"(?<!`)python -m repro\s+([a-z].*)", joined)
    return [" ".join(span.split()) for span in spans] + [
        re.split(r"\s[|>#;&]", line, maxsplit=1)[0].strip() for line in lines
    ]


def _names_a_command(parser: argparse.ArgumentParser, argv: "list[str]") -> bool:
    """``obs diff`` in running prose names a subcommand; it is not an invocation."""
    for word in argv:
        parser = _subparsers(parser).get(word)
        if parser is None:
            return False
    return len(argv) > 1


def test_documented_cli_invocations_name_real_subcommands() -> None:
    """The other direction: no page shows a command line the parser refuses —
    an unknown subcommand, a renamed flag, a value outside its choices.
    Nothing is executed, so placeholder paths are fine."""
    from repro.__main__ import build_parser

    pages = [ROOT / "README.md", ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    pages += DOCS.rglob("*.md")
    subcommands = _cli_subcommands()
    parser = build_parser()
    parsed = 0
    for page in pages:
        text = page.read_text()
        shown = set(re.findall(r"python -m repro\s+([a-z][\w-]*)", text))
        assert shown <= subcommands, (
            f"{page.relative_to(ROOT)} shows unknown subcommand(s) "
            f"{sorted(shown - subcommands)}"
        )
        for line in _documented_command_lines(text):
            argv = shlex.split(line)
            # ``...`` / ``{a,b}`` / ``1|2`` abbreviate a family of command lines.
            if any(re.search(r"\.\.\.|…|[{}|]", word) for word in argv):
                continue
            if _names_a_command(parser, argv):
                continue
            try:
                parser.parse_args(argv)
            except SystemExit as exc:
                raise AssertionError(
                    f"{page.relative_to(ROOT)}: `python -m repro {line}` does not parse"
                ) from exc
            parsed += 1
    assert parsed >= 50, parsed
