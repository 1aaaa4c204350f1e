"""Check results and report containers.

Every verification (model validation, identity suites, bound suites)
produces a ``VerificationReport``: a flat list of named checks, each
carrying the compared values as strings plus a pass flag.  A check may
instead be *abstained* when its inputs could not be certified; abstained
checks never count as failures, but the CLI can be told to treat them as
fatal (exit code 3).

Reports serialize deterministically: same checks in, same bytes out.
``to_json`` writes the bytes of ``json.dumps(to_dict(), indent=2,
sort_keys=True)`` straight from the report's fixed layout, with the C
string encoder for every string.
"""

from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring_ascii as _quote

from ._value import Record


def fmt(value) -> str:
    """Render a value for a report cell (Fractions stay exact)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class Check(Record):
    __slots__ = __match_args__ = ("name", "passed", "expected", "actual", "inputs", "note")

    def __init__(
        self,
        name: str,
        passed: bool | None,  # None means abstained
        expected: str = "",
        actual: str = "",
        inputs: dict[str, str] | None = None,
        note: str = "",
    ) -> None:
        self.name = name
        self.passed = passed
        self.expected = expected
        self.actual = actual
        self.inputs = {} if inputs is None else inputs
        self.note = note

    @property
    def abstained(self) -> bool:
        return self.passed is None

    @property
    def status(self) -> str:
        return "abstain" if self.abstained else ("pass" if self.passed else "FAIL")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


_LITERALS = {True: "true", False: "false", None: "null"}


def _json_list(items: list[str], indent: str) -> str:
    """Encoded JSON values as a list opened at ``indent``, laid out as by ``json.dumps``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _check_json(c: Check) -> str:
    if c.inputs:
        pairs = ",\n".join(f"        {_quote(k)}: {_quote(v)}" for k, v in sorted(c.inputs.items()))
        inputs = "{\n" + pairs + "\n      }"
    else:
        inputs = "{}"
    return (
        "{\n"
        f'      "actual": {_quote(c.actual)},\n'
        f'      "expected": {_quote(c.expected)},\n'
        f'      "inputs": {inputs},\n'
        f'      "name": {_quote(c.name)},\n'
        f'      "pass": {_LITERALS[c.passed]}\n'
        "    }"
    )


class VerificationReport(Record):
    __slots__ = __match_args__ = ("title", "checks", "annotations")

    def __init__(
        self, title: str, checks: list[Check] | None = None, annotations: list[str] | None = None
    ) -> None:
        self.title = title
        self.checks = [] if checks is None else checks
        self.annotations = [] if annotations is None else annotations

    def add(
        self,
        name: str,
        passed: bool | None,
        expected="",
        actual="",
        inputs: dict | None = None,
        note: str = "",
    ) -> Check:
        check = Check(
            name,
            passed,
            expected if type(expected) is str else fmt(expected),
            actual if type(actual) is str else fmt(actual),
            {k: v if type(v) is str else fmt(v) for k, v in inputs.items()} if inputs else {},
            note,
        )
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)
        self.annotations.extend(other.annotations)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.passed is False]

    @property
    def abstentions(self) -> list[Check]:
        return [c for c in self.checks if c.abstained]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "total": len(self.checks),
            "passed": sum(1 for c in self.checks if c.passed),
            "failed": len(self.failures),
            "abstained": len(self.abstentions),
        }

    def to_dict(self) -> dict:
        return {
            "suite": self.title,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary(),
            "annotations": self.annotations,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, written from the known layout.

        Keys appear in sorted order; every string goes through the C
        string encoder that ``json.dumps`` itself uses for ASCII output.
        """
        s = self.summary()
        return (
            "{\n"
            f'  "annotations": {_json_list([_quote(a) for a in self.annotations], "  ")},\n'
            f'  "checks": {_json_list([_check_json(c) for c in self.checks], "  ")},\n'
            f'  "suite": {_quote(self.title)},\n'
            '  "summary": {\n'
            f'    "abstained": {s["abstained"]},\n'
            f'    "failed": {s["failed"]},\n'
            f'    "passed": {s["passed"]},\n'
            f'    "total": {s["total"]}\n'
            "  }\n"
            "}"
        )

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["name", "inputs", "expected", "actual", "pass"])
        for c in self.checks:
            inputs = ";".join(f"{k}={v}" for k, v in sorted(c.inputs.items()))
            writer.writerow([c.name, inputs, c.expected, c.actual, c.status])
        return buffer.getvalue()

    def to_table(self) -> str:
        rows = [("check", "expected", "actual", "status")]
        rows += [(c.name, c.expected, c.actual, c.status) for c in self.checks]
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        lines = [f"# {self.title}"]
        for idx, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        s = self.summary()
        lines.append(
            f"total={s['total']} passed={s['passed']} failed={s['failed']} "
            f"abstained={s['abstained']}"
        )
        for note in self.annotations:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"
