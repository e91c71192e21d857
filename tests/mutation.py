"""Mutation runs: plant one small bug at a time in a copy of the tree, run a
tier-1 subset against it, and print the mutants that no test kills.

pytest does not collect this script.  Run it from anywhere; it copies the
checkout's ``src``, ``tests``, ``models``, ``perfbench`` and
``pyproject.toml`` to a temporary directory and leaves the checkout as it is::

    python tests/mutation.py src/maa/engine.py --functions build_plan _step \\
        --tests tests/test_engine_ts.py tests/test_properties.py

Three operators, each applied at one site of the named module:

* flip a comparison: ``==``/``!=``, ``<``/``>=``, ``>``/``<=``, ``is``/``is
  not`` and ``in``/``not in``, one operator of a chain at a time
* swap ``and`` and ``or``, one operator of a chain at a time
* change an integer constant by one: ``n`` becomes ``n + 1`` (so ``-1``
  becomes ``-2``); ``True`` and ``False`` are not integers here

``--functions`` keeps the sites inside the named functions (and the
functions nested in them); ``--sample`` draws that many sites with
``--seed``.  Each mutant runs ``pytest -x -q`` on ``--tests`` in the copy,
with Hypothesis seed 0, for at most ``--timeout`` seconds.  A
mutant is killed when pytest fails or the time runs out, and survives when
pytest passes.  The unmutated copy runs first and must pass.  A survivor
listed in ``ALLOWED``, with the reason no test should kill it, is reported
as allowed and does not fail the run.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "models", "perfbench", "pyproject.toml")
# The unit tests come first, so that -x stops most mutants before the
# slower properties run.
DEFAULT_TESTS = ("tests/test_engine_ts.py", "tests/test_engine_ed.py",
                 "tests/test_checks.py", "tests/test_resolution.py",
                 "tests/test_golden_cli.py", "tests/test_properties.py")

FLIPS = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">",
         "is": "is not", "is not": "is", "in": "not in", "not in": "in",
         "and": "or", "or": "and"}
# Survivors that no test should kill: (module, function, the mutated line
# stripped, the text replaced, its replacement) -> why.
ALLOWED = {
    ("src/maa/parser.py", "_peek", "return window[min(offset, len(window) - 1)]", "1", "2"):
        "equivalent: only _stereo_precedes_automaton peeks two or more past EOF, after a"
        " NAME, which fails its test for '>>' as EOF does",
}

OPERATOR = re.compile(rb"==|!=|<=|>=|<|>|\bis\s+not\b|\bnot\s+in\b|\bis\b|\bin\b|\band\b|\bor\b")


def sites(source: bytes, functions: set[str]) -> list[tuple[int, int, str, str, str]]:
    """Every (start, end, text, replacement, function) of a comparison or
    boolean operator or an integer constant in ``source``, by byte offset,
    inside one of ``functions`` (any function if it is empty)."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []

    def walk(node: ast.AST, within: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            within = within or (node.name if not functions or node.name in functions else None)
        if within and isinstance(node, ast.Constant) and type(node.value) is int:
            start = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            found.append((start, end, source[start:end].decode(), str(node.value + 1), within))
        operands = (node.values if isinstance(node, ast.BoolOp) else
                    [node.left, *node.comparators] if isinstance(node, ast.Compare) else [])
        for left, right in zip(operands, operands[1:]) if within else ():
            # the operator is the first one between its operands' text
            start = starts[left.end_lineno - 1] + left.end_col_offset
            match = OPERATOR.search(source, start, starts[right.lineno - 1] + right.col_offset)
            if match is None:  # a position Python does not report exactly
                continue
            text = re.sub(rb"\s+", b" ", match.group()).decode()
            found.append((match.start(), match.end(), text, FLIPS[text], within))
        for child in ast.iter_child_nodes(node):
            walk(child, within)

    walk(ast.parse(source), None)
    return found


def pytest(copy: Path, tests: list[str], timeout: float) -> str:
    """``passed``, ``failed`` or ``timeout`` for one run of the subset."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the checkout")
    parser.add_argument("--functions", nargs="*", default=[])
    parser.add_argument("--tests", nargs="*", default=list(DEFAULT_TESTS))
    parser.add_argument("--sample", type=int, default=0, help="sites drawn; 0 for all")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    args = parser.parse_args()

    source = (ROOT / args.module).read_bytes()
    chosen = sorted(sites(source, set(args.functions)))
    if args.sample:
        chosen = sorted(random.Random(args.seed).sample(chosen, min(args.sample, len(chosen))))
    with tempfile.TemporaryDirectory() as workdir:
        copy = Path(workdir)
        for name in COPIED:
            copier = shutil.copytree if (ROOT / name).is_dir() else shutil.copy
            copier(ROOT / name, copy / name)
        target = copy / args.module
        began = time.monotonic()
        if pytest(copy, args.tests, args.timeout) != "passed":
            print("the unmutated copy does not pass the subset", file=sys.stderr)
            return 2
        print(f"unmutated: {time.monotonic() - began:.1f} s; {len(chosen)} mutants", flush=True)
        survivors = allowed = 0
        for start, end, text, replacement, function in chosen:
            target.write_bytes(source[:start] + replacement.encode() + source[end:])
            began = time.monotonic()
            outcome = pytest(copy, args.tests, args.timeout)
            first = source.rfind(b"\n", 0, start) + 1
            stripped = source[first:source.find(b"\n", start)].decode().strip()
            why = ALLOWED.get((args.module, function, stripped, text, replacement))
            status = f"killed ({outcome})"
            if outcome == "passed":
                status = "allowed" if why else "SURVIVED"
                allowed, survivors = allowed + bool(why), survivors + (not why)
            line = source.count(b"\n", 0, start) + 1
            print(f"{status:18} {args.module}:{line} {function}: '{text}' -> '{replacement}'"
                  f"  {time.monotonic() - began:.1f} s" + (f"  ({why})" if why else ""),
                  flush=True)
    print(f"{len(chosen) - survivors - allowed} killed, {survivors} survived, {allowed} allowed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
