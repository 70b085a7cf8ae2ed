"""Deflake audit: no wall clocks or unseeded randomness in simulated time.

Every replay result must be a pure function of (workload, config, seed).
The classic ways that breaks are a wall-clock read (``time.time()``,
``datetime.now()``) leaking into simulated-time logic, or a random stream
created without a seed (``np.random.default_rng()`` with no argument, the
module-level ``random.*`` functions, a bare ``random.Random()``).

This test scans every source and test file and pins the current count of
violations at **zero**, with no allowlist: wall time is a measurement only
in ``benchmarks/``, outside the scanned trees, and ``repro.perf`` reports
counts, not clocks.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCAN_ROOTS = ("src/repro", "tests")

#: Pattern -> human explanation.  Each regex is written so it does not match
#: its own (escaped) source text in this file.
VIOLATION_PATTERNS = {
    r"\btime\.time\(": "wall-clock time.time() in replay logic",
    r"\bdatetime\.now\(": "wall-clock datetime.now()",
    r"\bdatetime\.utcnow\(": "wall-clock datetime.utcnow()",
    r"default_rng\(\s*\)": "unseeded numpy Generator",
    r"\bnp\.random\.(random|randint|choice|normal|exponential|shuffle)\(":
        "legacy numpy global RNG (unseeded, process-wide state)",
    r"(?<![.\w])random\.(random|randint|choice|choices|shuffle|sample|"
    r"expovariate|gauss|uniform|lognormvariate)\(":
        "module-level random.* (global, unseeded RNG)",
    r"\brandom\.Random\(\s*\)": "random.Random() without a seed",
}


def scan() -> "list[str]":
    violations = []
    self_path = Path(__file__).resolve()
    for root in SCAN_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.resolve() == self_path:
                continue
            relative = path.relative_to(REPO_ROOT).as_posix()
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                for pattern, reason in VIOLATION_PATTERNS.items():
                    if re.search(pattern, line):
                        violations.append(
                            f"{relative}:{number}: {reason}: {line.strip()}"
                        )
    return violations


def test_no_wall_clocks_or_unseeded_rng_in_simulated_time_paths() -> None:
    violations = scan()
    assert violations == [], (
        "determinism audit found wall-clock/unseeded-RNG use:\n"
        + "\n".join(violations)
    )


def test_audit_scans_a_meaningful_file_set() -> None:
    # Guard the audit itself: if the tree moves, an empty scan would pass
    # vacuously.  The repo has dozens of source files; require a floor.
    scanned = [
        path
        for root in SCAN_ROOTS
        for path in (REPO_ROOT / root).rglob("*.py")
    ]
    assert len(scanned) > 40
    # The chaos/autoscale machinery is exactly where unseeded randomness
    # would be tempting; make sure the package is inside the audit's net.
    assert any(path.parent.name == "resilience" for path in scanned)
