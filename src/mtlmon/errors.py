"""Failure contract of `mtlmon`: every failure `monitor` or `gen` reports is
a MonitorError, and its class decides the exit code and the label of the
one `mtlmon: <label>: <message>` line on stderr (`mtlmon: <message>` when
the label is empty). Codes follow sysexits.h. Any other exception is a bug:
`cli.main` prints its traceback and exits with MonitorError.exit_code, 70
(EX_SOFTWARE), so that a crash never exits 1, the code of a violation.

    UsageError      64  a flag value the monitor cannot run with
    InputError      65  an unreadable, undecodable or malformed trace or spec
    SolverError     69  the solver timed out, could not be run, stopped
                        answering, answered unknown or returned an
                        unusable model
    BudgetExceeded  70  the run would exceed an engine budget
    EmitError       73  a --emit-smt file or directory could not be written

This module imports nothing, so every layer can raise its own class.
"""


class MonitorError(Exception):
    """Raised only as one of the subclasses below."""

    exit_code = 70  # EX_SOFTWARE
    label = ""


class UsageError(MonitorError):
    exit_code = 64
    label = "usage error"


class InputError(MonitorError):
    exit_code = 65


class SolverError(MonitorError):
    exit_code = 69
    label = "solver error"


class BudgetExceeded(MonitorError):
    exit_code = 70
    label = "budget exceeded"


class EmitError(MonitorError):
    exit_code = 73
    label = "cannot write --emit-smt files"
