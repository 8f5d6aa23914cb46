"""Every public class, function or method under ``src/`` has a caller
outside the tests.

A definition that only a test calls is surface nobody uses: it must still be
documented, kept correct and carried through every refactor.  This guard
parses ``src/``, ``bench/`` and ``examples/`` with :mod:`ast` and fails on a
public ``class`` or ``def`` whose name is referenced nowhere in those trees
except inside its own body and in ``__all__``.

A reference is a name load (``foo``), an attribute (``x.foo``) or a string
equal to the name (``getattr(x, "foo")``).  An import is not one: a name
that a package ``__init__`` only re-exports has no caller.  Matching is by
name, so a definition counts as used when any same-named one is; the guard
can miss a dead method, never flag a live one.

The allowlist holds oracles: definitions only tests call, kept because they
check code that runs.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "bench", "examples")

#: ``module:qualified name`` -> why it stays without a non-test caller.
ORACLES: Dict[str, str] = {
    "repro.core.ilp:IRSInstance.is_feasible_assignment": (
        "checks that the exact MILP's output is a feasible assignment"
    ),
    "repro.core.ilp:solve_irs_bruteforce": (
        "the exhaustive search the exact MILP's optimum is checked against"
    ),
    "repro.core.irs:SchedulingPlan.ordered_jobs_for": (
        "the linear preference walk the plan's AtomIndex candidates equal"
    ),
    "repro.invariants:check_run": (
        "checks a finished fleet run's invariants without a twin"
    ),
    "repro.resilience.record:describe_metrics_divergence": (
        "the engine-identity gate's report of the first differing metric"
    ),
    "repro.sim.latency:ResponseLatencyModel.expected_duration": (
        "closed-form mean the latency sampler's draws are checked against"
    ),
    "repro.sim.latency:ResponseLatencyModel.sample_duration": (
        "the one-draw-at-a-time sequence sample_outcome must reproduce"
    ),
    "repro.sim.latency:ResponseLatencyModel.sample_failure": (
        "the one-draw-at-a-time sequence sample_outcome must reproduce"
    ),
    "repro.sim.latency:ResponseLatencyModel.tail_duration": (
        "closed-form percentile the latency sampler's draws are checked against"
    ),
}


def _python_files(top: Path) -> Iterator[Path]:
    for path in sorted(top.rglob("*.py")):
        if not path.name.startswith("test_") and path.name != "conftest.py":
            yield path


def _module_name(src: Path, path: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str, int, int]]:
    """``(name, qualified name, first line, last line)`` of every public
    class, and every public function and method reachable through public
    classes."""

    def walk(body, prefix: str) -> Iterator[Tuple[str, str, int, int]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(node.name):
                    yield (
                        node.name,
                        prefix + node.name,
                        node.lineno,
                        node.end_lineno,
                    )
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                yield (
                    node.name,
                    prefix + node.name,
                    node.lineno,
                    node.end_lineno,
                )
                yield from walk(node.body, prefix + node.name + ".")

    yield from walk(tree.body, "")


def _all_lines(tree: ast.Module) -> Set[int]:
    """Line numbers of the module's ``__all__`` assignment."""
    lines: Set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _references(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    excluded = _all_lines(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
            if not name.isidentifier():
                continue
        else:
            continue
        if node.lineno not in excluded:
            yield name, node.lineno


def uncalled_definitions(root: Path = ROOT) -> List[str]:
    """``module:qualified name`` of every public definition under
    ``root/src`` with no reference outside its own body and ``__all__``."""
    refs: Dict[str, List[Tuple[Path, int]]] = {}
    defs: List[Tuple[Path, str, str, int, int]] = []
    for top in SCANNED:
        for path in _python_files(root / top):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, line in _references(tree):
                refs.setdefault(name, []).append((path, line))
            if top == "src":
                for name, qual, first, last in _definitions(tree):
                    defs.append((path, name, qual, first, last))
    uncalled = []
    for path, name, qual, first, last in defs:
        used = any(
            ref_path != path or not first <= line <= last
            for ref_path, line in refs.get(name, ())
        )
        if not used:
            uncalled.append(f"{_module_name(root / 'src', path)}:{qual}")
    return sorted(uncalled)


def test_every_public_definition_has_a_caller_outside_the_tests():
    uncalled = [name for name in uncalled_definitions() if name not in ORACLES]
    assert not uncalled, (
        "public definitions only tests call (delete them, or add an oracle "
        "to ORACLES with its reason): " + ", ".join(uncalled)
    )


def test_every_oracle_exists_and_has_no_other_caller():
    """An allowlisted name that gains a caller, or disappears, leaves the
    allowlist."""
    assert sorted(ORACLES) == [
        name for name in uncalled_definitions() if name in ORACLES
    ]


def test_the_guard_counts_only_references_that_call(tmp_path):
    """The scan on a small tree: a definition used only by itself, by
    ``__all__``, by a docstring, by a test or by a re-export is flagged; a
    call, an attribute read or a ``getattr`` string is a reference.  A
    class is a definition too: one built only by its own methods is
    flagged, one that a caller builds is not."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from .mod import imported\n"
        "__all__ = ['imported', 'listed']\n"
    )
    (pkg / "mod.py").write_text(
        "def imported(): pass\n"
        "def listed(): pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def mentioned():\n"
        "    \"\"\"Unlike :func:`tested`, this one is only mentioned.\"\"\"\n"
        "def tested(): pass\n"
        "def by_name(): pass\n"
        "class Box:\n"
        "    def read(self): pass\n"
        "    def _private(self): pass\n"
        "class _Hidden:\n"
        "    def shown(self): pass\n"
        "class Lonely:\n"
        "    def clone(self):\n"
        "        return Lonely()\n"
        "def user(box):\n"
        "    box.read()\n"
        "    box.clone()\n"
        "    return getattr(box, 'by_name')\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.mod import Box, user\nuser(Box())\n"
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "test_bench.py").write_text(
        "from pkg.mod import tested\ntested()\n"
    )
    assert uncalled_definitions(tmp_path) == [
        "pkg.mod:Lonely",
        "pkg.mod:imported",
        "pkg.mod:listed",
        "pkg.mod:mentioned",
        "pkg.mod:recursive",
        "pkg.mod:tested",
    ]
