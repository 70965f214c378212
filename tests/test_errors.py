"""The failure contract of `mtlmon monitor`: each error class carries the
exit code and stderr label that README.md and mtlmon/errors.py document."""

import ast
import inspect

import mtlmon.cli  # noqa: F401  (imports every module that defines an error)
from mtlmon import errors
from mtlmon.computation import ComputationError
from mtlmon.parser import SpecSyntaxError
from mtlmon.pipeline import ConfigError, IngestError
from mtlmon.smt import (
    ModelDecodeError,
    SegmentTooLargeError,
    SolverCrashError,
    SolverTimeoutError,
)

DOCUMENTED = {  # class: (exit code, label)
    errors.UsageError: (64, "usage error"),
    ConfigError: (64, "usage error"),
    errors.InputError: (65, ""),
    ComputationError: (65, ""),
    IngestError: (65, "trace error"),
    SpecSyntaxError: (65, "spec error"),
    errors.SolverError: (69, "solver error"),
    SolverCrashError: (69, "solver error"),
    SolverTimeoutError: (69, "solver error"),
    ModelDecodeError: (69, "solver error"),
    errors.BudgetExceeded: (70, "budget exceeded"),
    SegmentTooLargeError: (70, "budget exceeded"),
    errors.EmitError: (73, "cannot write --emit-smt files"),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_each_error_class_maps_to_its_documented_code():
    assert set(_subclasses(errors.MonitorError)) == set(DOCUMENTED)
    for cls, (code, label) in DOCUMENTED.items():
        assert (cls.exit_code, cls.label) == (code, label), cls.__name__


def test_errors_module_imports_nothing():
    tree = ast.parse(inspect.getsource(errors))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]

