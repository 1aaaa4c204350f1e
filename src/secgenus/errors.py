"""Exception hierarchy shared by all secgenus modules.

Three failure modes are kept apart because the command-line driver maps
them to distinct exit codes:

* bad user input (exit 2),
* a genuine assertion failure in a verified identity (exit 1, raised by
  the verification suites as ordinary failed checks, not exceptions),
* an abstention: a quantity that cannot be certified from the declared
  data and must not be fabricated (exit 3 under the ``fail`` policy).

``ModelError`` signals that the numerical model itself is inconsistent
(a non-integer Euler characteristic, a parity violation, ...).  The
verification suites record it as a failed check, named like the check
it replaces; every other caller lets it propagate, since an
inconsistent model invalidates every downstream result.
"""


class SecgenusError(Exception):
    """Base class for all toolkit errors."""


class InputError(SecgenusError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class OracleDegreeError(InputError):
    """An oracle did not behave like a polynomial of the declared degree."""


class ModelError(SecgenusError):
    """The variety data is internally inconsistent."""


class AbstainError(SecgenusError):
    """A value cannot be certified from the declared data.

    Raised instead of guessing; callers either fall back to an exact
    family oracle or report the check as abstained (CLI exit code 3
    under the ``fail`` abstention policy).
    """
