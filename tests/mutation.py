"""Mutation runs: plant one small bug at a time in a copy of the tree, run a
tier-1 subset against it, and print the mutants that no test kills.

pytest does not collect this script.  Run it from anywhere; it copies the
checkout's ``src``, ``tests``, ``models``, ``perfbench`` and
``pyproject.toml`` to a temporary directory and leaves the checkout as it is::

    python tests/mutation.py src/maa/engine.py --functions build_plan _step \\
        --tests tests/test_engine_ts.py tests/test_properties.py

Two operators, each applied at one site of the named module:

* flip a comparison: ``==``/``!=``, ``<``/``>=``, ``>``/``<=``, ``is``/``is
  not`` and ``in``/``not in``, one operator of a chain at a time
* swap ``and`` and ``or``, one operator of a chain at a time

``--functions`` keeps the sites inside the named functions (and the
functions nested in them); ``--sample`` draws that many sites with
``--seed``.  Each mutant runs ``pytest -x -q`` on ``--tests`` in the copy,
with Hypothesis seed 0, for at most ``--timeout`` seconds.  A
mutant is killed when pytest fails or the time runs out, and survives when
pytest passes.  The unmutated copy runs first and must pass.
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
OPERATOR = re.compile(rb"==|!=|<=|>=|<|>|\bis\s+not\b|\bnot\s+in\b|\bis\b|\bin\b|\band\b|\bor\b")


def sites(source: bytes, functions: set[str]) -> list[tuple[int, int, str, str]]:
    """Every (start, end, operator, function) of a comparison or boolean
    operator in ``source``, by byte offset, inside one of ``functions`` (any
    function if it is empty)."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []

    def walk(node: ast.AST, within: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            within = within or (node.name if not functions or node.name in functions else None)
        operands = (node.values if isinstance(node, ast.BoolOp) else
                    [node.left, *node.comparators] if isinstance(node, ast.Compare) else [])
        for left, right in zip(operands, operands[1:]) if within else ():
            # the operator is the first one between its operands' text
            start = starts[left.end_lineno - 1] + left.end_col_offset
            match = OPERATOR.search(source, start, starts[right.lineno - 1] + right.col_offset)
            if match is None:  # a position Python does not report exactly
                continue
            text = re.sub(rb"\s+", b" ", match.group()).decode()
            found.append((match.start(), match.end(), text, within))
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
        survivors = 0
        for start, end, text, function in chosen:
            target.write_bytes(source[:start] + FLIPS[text].encode() + source[end:])
            began = time.monotonic()
            outcome = pytest(copy, args.tests, args.timeout)
            survivors += outcome == "passed"
            status = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            line = source.count(b"\n", 0, start) + 1
            print(f"{status:18} {args.module}:{line} {function}: '{text}' -> '{FLIPS[text]}'"
                  f"  {time.monotonic() - began:.1f} s", flush=True)
    print(f"{len(chosen) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
