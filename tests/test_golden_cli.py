"""CLI output on the example corpus, byte for byte.

The cases are ``sim-ts`` of every component of every model of the corpus (6
cycles, and ``--enumerate`` at 3, with its directory's stimulus where the
columns are in-ports of the main), ``sim-ed`` of the toast script, and
``check --format json`` and ``export-ir`` of each directory.  Each case's
argv, exit code and stderr are in ``tests/fixtures/golden/cli/cases.json``,
its stdout in ``<case>.out`` beside it; paths are relative to the repository
root.  Regenerate them, from the repository root, with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from maa.cli import main

from conftest import CORPUS, FIXTURES, MODELS, REPO_ROOT, load_model

GOLDEN = FIXTURES / "golden" / "cli"


def _cases() -> dict[str, list[str]]:
    """Every case's argv, computed from the corpus of ``conftest``."""
    def rel(paths) -> list[str]:
        return [str(p.relative_to(REPO_ROOT)) for p in sorted(paths)]

    def first_column(path: str) -> set[str]:
        lines = (REPO_ROOT / path).read_text(encoding="utf-8").splitlines()
        return {line.split()[0] for line in lines if line.strip()}

    def with_types(models: list[str], type_files: list[str]) -> list[str]:
        return models + [arg for path in type_files for arg in ("--types", path)]

    cases: dict[str, list[str]] = {}
    for paths, _, type_paths in CORPUS.values():
        files = with_types(rel(paths), rel(type_paths))
        directory = paths[0].parent
        for qname, rc in sorted(load_model(paths, type_paths).components.items()):
            argv = ["sim-ts", *files, "--main", qname, "--force"]
            for stimulus in rel(directory.glob("*.tsv")):
                header = (REPO_ROOT / stimulus).read_text(encoding="utf-8").splitlines()[0]
                if set(header.split("\t")) <= set(rc.in_ports):
                    argv += ["--stimulus", stimulus]
            cases[f"sim-ts_{qname}"] = argv + ["--cycles", "6"]
            cases[f"sim-ts_enumerate_{qname}"] = argv + ["--cycles", "3", "--enumerate"]
            for script in rel(directory.glob("*.txt")):
                if first_column(script) <= set(rc.in_ports):
                    cases[f"sim-ed_{qname}"] = ["sim-ed", *files, "--main", qname,
                                                "--script", script]
    for directory in sorted(p for p in MODELS.iterdir() if p.is_dir()):
        files = with_types(rel(directory.rglob("*.maa")), rel(directory.rglob("*.types")))
        cases[f"check_{directory.name}"] = ["check", *files, "--format", "json"]
        cases[f"export-ir_{directory.name}"] = ["export-ir", *files]
    return cases


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_output_equals_the_golden_files(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    manifest = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    assert len(manifest) > 40
    differ = []
    for name, case in sorted(manifest.items()):
        code, out, err = _run(case["argv"])
        if out.encode("utf-8") != (GOLDEN / f"{name}.out").read_bytes():
            differ.append(f"{name}: stdout")
        if (code, err) != (case["exit"], case["stderr"]):
            differ.append(f"{name}: exit {code}, stderr {err!r}")
    assert differ == []


def _write() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, argv in _cases().items():
        code, out, err = _run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        manifest[name] = {"argv": argv, "exit": code, "stderr": err}
    (GOLDEN / "cases.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    _write()
