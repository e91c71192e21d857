"""MAA: frontend, well-formedness checker, and simulator for a
component-and-connector modeling language with embedded I/O automata.

Typical pipeline::

    unit  = parse_component_file(text, "Robot.maa")
    types = parse_types_file(type_text, "robot.types")
    model, diags = resolve([unit], [types])
    diags += check(model, profile="ts")
    trace = run_ts(model, "robot.Controller", stimulus, n_cycles)

The engine refuses (``SetupError``) a model with an error from ``resolve`` or
``check(model)``, and a stimulus or event value of the wrong type; see
:mod:`maa.engine` for the runtime errors left.
"""

from .checks import check, rule_catalog
from .diagnostics import Diagnostic, SourceLoc
from .engine import (
    ABSENT,
    ComponentState,
    CycleRecord,
    EnumerationOverflow,
    EnumValue,
    Event,
    EventStep,
    EventTrace,
    FirstDeclared,
    Seeded,
    SetupError,
    SimulationError,
    Trace,
    build_plan,
    enumerate_ts,
    iter_ed,
    iter_enumerate_ts,
    iter_ts,
    run_ed,
    run_ts,
)
from .ir import export_ir
from .parser import parse_component_file, parse_types_file
from .printer import pretty_print
from .resolution import (
    BOOLEAN,
    BuiltinType,
    EnumType,
    INTEGER,
    ParamType,
    ResolvedModel,
    STRING,
    resolve,
    type_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
