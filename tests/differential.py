"""Digests of ``maa.cli.main`` runs, for telling whether two versions of maa
print the same bytes.

pytest does not collect this script.  It imports ``maa`` from ``PYTHONPATH``
and the model generators from its own directory, so one copy of it runs
against any checkout's ``src``::

    PYTHONPATH=/path/to/parent/src python tests/differential.py > parent.txt
    PYTHONPATH=src python tests/differential.py > change.txt
    diff parent.txt change.txt

Each output line is the sha256 of one run's exit code, stdout and stderr,
then the run's arguments.  The models are every directory under ``models/``
(each resolved as one model, every component a main in turn) and ``--models``
generated ones (default 500, drawn from ``--seed``): time-synchronous,
event-driven, unchecked and rule-breaking texts and compositions of
``tests/genmodels.py`` in turn, with its types unit.  A composition is
written one unit per file, with main ``Top``, and some close a cycle of
connectors through relays.  Each model is run through:

* ``check --profile {generic,ts,ed} --format {text,json}``
* ``export-ir``
* ``sim-ts`` under ``--policy first`` (with and without ``--force``),
  ``--policy seeded`` and ``--enumerate``, on a seeded stimulus typed by the
  main's in-ports
* ``sim-ed`` under ``--policy first`` and ``--policy seeded``, on a seeded
  script

One fixed ``sim-ed`` run, between the corpus and the generated models, ends
in a runtime error at its third event, so the digests also cover what
``sim-ed`` prints for a failing event: no generated model reaches one.

Paths in the arguments and in the output are relative, so digests do not
depend on where the script or its temporary directory is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import genmodels  # noqa: E402
from maa.cli import main  # noqa: E402
from maa.engine import ABSENT  # noqa: E402
from maa.parser import parse_component_file, parse_types_file  # noqa: E402
from maa.resolution import BuiltinType, EnumType, resolve  # noqa: E402

CYCLES = 5
EVENTS = 8

# Forwards q, absent in every event on p, once p exceeds 1.
FORWARD_Q = ("component F { port in Integer p, in Integer q, out Integer o; automaton {"
             " state S; initial S; S [p > 1] / o = q; S p = 1 / o = p; } }")


def digest(argv: list[str]) -> str:
    """One line: the digest of ``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8")
    return f"{hashlib.sha256(blob).hexdigest()}  {' '.join(argv)}"


def cell(rng: random.Random, declared, model) -> str:
    """A stimulus cell or event value of the port's type, or ``--``."""
    if rng.random() < 0.3:
        return "--"
    if isinstance(declared, EnumType):
        return rng.choice(model.enums[declared.qname].literals or ["--"])
    if declared == BuiltinType("Integer"):
        return str(rng.randrange(-2, 5))
    if declared == BuiltinType("Boolean"):
        return rng.choice(("true", "false"))
    if declared == BuiltinType("String"):
        return rng.choice(('"s"', '"t"'))
    return "--"  # a type parameter


def inputs(rng: random.Random, model, qname: str, prefix: str) -> tuple[str, str]:
    """A stimulus file and an event script for main ``qname``, written to the
    working directory; returns their names."""
    rc = model.components[qname]
    ports = [(port, rc.binding(port)[1]) for port in rc.in_ports]
    stimulus, script = f"{prefix}.tsv", f"{prefix}.txt"
    rows = ["\t".join(port for port, _ in ports)] if ports else []
    rows += ["\t".join(cell(rng, t, model) for _, t in ports) for _ in range(CYCLES)]
    Path(stimulus).write_text("\n".join(rows) + "\n", encoding="utf-8")
    events = [rng.choice(ports) for _ in range(EVENTS)] if ports else []
    lines = [f"{port} {value}" for port, t in events
             if (value := cell(rng, t, model)) != "--"]
    Path(script).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return stimulus, script


def runs(files: list[str], mains: list[tuple[str, str, str]], seed: int) -> list[list[str]]:
    """Every run of one model: ``files`` are its model and ``--types``
    arguments, ``mains`` (main, stimulus, script) triples."""
    argvs = [["check", *files, "--profile", profile, "--format", form]
             for profile in ("generic", "ts", "ed") for form in ("text", "json")]
    argvs.append(["export-ir", *files])
    for qname, stimulus, script in mains:
        ts = ["sim-ts", *files, "--main", qname, "--stimulus", stimulus,
              "--cycles", str(CYCLES)]
        ed = ["sim-ed", *files, "--main", qname, "--script", script]
        seeded = ["--force", "--policy", "seeded", "--seed", str(seed)]
        argvs += [ts, ts + ["--force"], ts + seeded, ts + ["--force", "--enumerate"],
                  ed + ["--force"], ed + seeded]
    return argvs


def corpus(root: Path, rng: random.Random) -> list[list[str]]:
    """The runs of every model directory, from the working directory ``root``."""
    argvs = []
    for directory in sorted(p for p in (root / "models").iterdir() if p.is_dir()):
        paths = sorted(p.relative_to(root).as_posix() for p in directory.rglob("*.maa"))
        types = sorted(p.relative_to(root).as_posix() for p in directory.rglob("*.types"))
        units = [parse_component_file(Path(p).read_text(encoding="utf-8"), p) for p in paths]
        tunits = [parse_types_file(Path(p).read_text(encoding="utf-8"), p) for p in types]
        model, _ = resolve([u for u in units if not isinstance(u, list)],
                           [t for t in tunits if not isinstance(t, list)])
        mains = [(qname, *inputs(rng, model, qname, f"{directory.name}-{k}"))
                 for k, qname in enumerate(sorted(model.components))]
        files = paths + [a for t in types for a in ("--types", t)]
        argvs += runs(files, mains, rng.randrange(100))
    return argvs


def failing() -> list[list[str]]:
    """A ``sim-ed`` run that fails at its third event, after two blocks."""
    Path("forward_q.maa").write_text(FORWARD_Q, encoding="utf-8")
    Path("forward_q.txt").write_text("p 1\np 0\np 2\np 1\n", encoding="utf-8")
    return [["sim-ed", "forward_q.maa", "--main", "F", "--script", "forward_q.txt"]]


def cell_text(value) -> str:
    """A generated stimulus or event value as a cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "--" if value is ABSENT else str(value)


def generated(count: int, seed: int) -> list[list[str]]:
    """The runs of ``count`` generated models, written to the working directory."""
    bases = (genmodels.random_component_text, genmodels.random_ed_component_text,
             lambda rng: genmodels.random_unchecked_component_text(
                 rng, rng.choice((None, genmodels.random_ed_component_text))),
             genmodels.random_rule_breaking_text,
             lambda rng: genmodels.random_composition_text(rng, loops=True))
    argvs = []
    Path("gen.types").write_text(genmodels.TYPES, encoding="utf-8")
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")
        text = bases[k % len(bases)](rng)
        if isinstance(text, str):
            names, main = [f"gen{k}.maa"], "Gen"
            Path(names[0]).write_text(text, encoding="utf-8")
        else:
            names, main = [f"gen{k}-{j}.maa" for j in range(len(text))], "Top"
            for name, unit in zip(names, text):
                Path(name).write_text(unit, encoding="utf-8")
        stimulus, script = f"gen{k}.tsv", f"gen{k}.txt"
        rows = genmodels.random_stimulus(rng, CYCLES)
        Path(stimulus).write_text("a\tb\tm\n" + "".join(
            "\t".join([cell_text(row[port]) for port in "abm"]) + "\n" for row in rows),
            encoding="utf-8")
        Path(script).write_text("".join(f"{port} {cell_text(value)}\n" for port, value
                                        in genmodels.random_script(rng, EVENTS)), encoding="utf-8")
        argvs += runs([*names, "--types", "gen.types"], [(main, stimulus, script)],
                      rng.randrange(100))
    return argvs


def run_all(argvs: list[list[str]]) -> None:
    for argv in argvs:
        print(digest(argv))


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--models", type=int, default=500, help="generated models")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        # every input is written to, and named from, the temporary directory
        os.chdir(workdir)
        os.symlink(HERE.parent / "models", "models")
        run_all(corpus(Path("."), random.Random(args.seed)))
        run_all(failing())
        run_all(generated(args.models, args.seed))
        os.chdir(HERE.parent)


if __name__ == "__main__":
    cli()
