"""Shared helpers: corpus locations and a parse/resolve/check pipeline."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from maa import engine
from maa.checks import check
from maa.engine import ABSENT, EnumValue
from maa.lowering import lower
from maa.parser import parse_component_file, parse_types_file
from maa.resolution import resolve
from maa.syntax import CompilationUnit, TypeDeclUnit

REPO_ROOT = Path(__file__).resolve().parent.parent
MODELS = REPO_ROOT / "models"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The example-model corpus: (model files, profile, type files).
CORPUS = {
    "bump_control": ([MODELS / "bumperbot" / "BumpControl.maa"], "ts",
                     [MODELS / "bumperbot" / "types" / "commands.types"]),
    "follow_the_leader": ([MODELS / "robot" / "FollowTheLeaderOnline.maa"], "ts",
                          [MODELS / "robot" / "enums.types"]),
    "toast_arm": ([MODELS / "robot" / "ToastArmController.maa"], "ed",
                  [MODELS / "robot" / "enums.types"]),
    "pipeline": (sorted((MODELS / "pipeline").glob("*.maa")), "ts", []),
}
for _path in sorted((MODELS / "reference").glob("*.maa")):
    CORPUS[f"reference_{_path.stem}"] = ([_path], "generic", [])

# The benchmark's workload generators, which import nothing from maa.
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def parse_model(path: Path) -> CompilationUnit:
    result = parse_component_file(path.read_text(encoding="utf-8"), str(path))
    assert isinstance(result, CompilationUnit), f"{path} did not parse: {result}"
    return result


def parse_types(path: Path) -> TypeDeclUnit:
    result = parse_types_file(path.read_text(encoding="utf-8"), str(path))
    assert isinstance(result, TypeDeclUnit), f"{path} did not parse: {result}"
    return result


def load_model(paths, type_paths=()):
    """Parse and resolve; asserts zero resolution diagnostics."""
    units = [parse_model(Path(p)) for p in paths]
    tunits = [parse_types(Path(p)) for p in type_paths]
    model, diags = resolve(units, tunits)
    assert diags == [], [d.render() for d in diags]
    return model


def check_files(paths, profile, type_paths=()):
    """Full pipeline: parse, resolve, check; returns merged diagnostics."""
    units = [parse_model(Path(p)) for p in paths]
    tunits = [parse_types(Path(p)) for p in type_paths]
    model, rdiags = resolve(units, tunits)
    return rdiags + check(model, profile)


def trace_key(trace) -> tuple:
    """A trace's records in their frozen, hashable form: equal for equal runs."""
    return tuple(r.freeze() for r in trace.records)


def positional(rc, inputs: dict) -> list:
    """The inputs that ``rc``'s lowered automaton reads, one per in-port in
    declaration order, from ``{port: value}``; a port missing is absent."""
    return [inputs.get(port, ABSENT) for port in rc.in_ports]


def workload_model(w):
    """The resolved model of a generated benchmark workload."""
    units = [parse_component_file(text, name) for name, text in w.models.items()]
    tunits = [parse_types_file(text, name) for name, text in w.types.items()]
    model, diags = resolve(units, tunits)
    assert diags == [], [d.render() for d in diags]
    return model


def workload_value(w, port: str, v):
    """The engine's value of a workload's generated cell: absent for None, and
    an enum value on a port of an enum type."""
    if v is None:
        return ABSENT
    return EnumValue(f"{workloads.PACKAGE}.{w.enums[port]}", v) if port in w.enums else v


def python_calls(call) -> int:
    """The Python-level calls that ``call()`` makes, counted with
    ``sys.setprofile``."""
    count, previous = 0, sys.getprofile()

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


def counted_guards(monkeypatch, state: str) -> list:
    """The inputs of each evaluation of a guard out of ``state``, in order,
    in the runs made after this call, which lower their automata through
    ``maa.engine.lower`` patched to record them."""
    evaluated = []

    def counting(guard):
        def counted(inputs, variables):
            evaluated.append(inputs)
            return guard(inputs, variables)
        return counted

    def lower_counting(rc):
        behaviour = lower(rc)
        behaviour.by_state[state] = [t._replace(guard=counting(t.guard))
                                     for t in behaviour.by_state[state]]
        return behaviour
    monkeypatch.setattr(engine, "lower", lower_counting)
    return evaluated


def out_column(trace, port: str) -> list:
    """The message (or ABSENT) observed on one out-port in each cycle of a trace."""
    return [r.outputs[port] for r in trace.records]


@pytest.fixture
def bump_model():
    return load_model([MODELS / "bumperbot" / "BumpControl.maa"],
                      [MODELS / "bumperbot" / "types" / "commands.types"])


@pytest.fixture
def follow_model():
    return load_model([MODELS / "robot" / "FollowTheLeaderOnline.maa"],
                      [MODELS / "robot" / "enums.types"])


@pytest.fixture
def toast_model():
    return load_model([MODELS / "robot" / "ToastArmController.maa"],
                      [MODELS / "robot" / "enums.types"])


@pytest.fixture
def pipeline_model():
    return load_model(sorted((MODELS / "pipeline").glob("*.maa")))


@pytest.fixture
def arbiter_model():
    return load_model([MODELS / "reference" / "Arbiter.maa"])
