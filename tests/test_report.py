import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from secgenus.report import Check, VerificationReport

# any character, with the ones JSON escapes drawn often: quotes, backslashes,
# control characters, DEL, non-ASCII and characters beyond the BMP
_SPECIAL = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80é  ﻿😀'
text = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_SPECIAL)), max_size=10)

checks = st.builds(
    Check,
    name=text,
    passed=st.sampled_from([True, False, None]),
    expected=text,
    actual=text,
    inputs=st.dictionaries(text, text, max_size=4),
    note=text,
)
reports = st.builds(
    VerificationReport,
    title=text,
    checks=st.lists(checks, max_size=4),
    annotations=st.lists(text, max_size=3),
)


def _reference(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def _added() -> VerificationReport:
    """A report filled through ``add``, which formats non-string values."""
    report = VerificationReport(title='suite "q"', annotations=["note \x00 end"])
    report.add("plain", True, 1, 1)
    report.add("with inputs", False, "a\\b", "ünï", inputs={"z": 2, "a": "x\ny", "m": True})
    report.add("abstained", None, note="why", inputs={})
    return report


@settings(deadline=None)
@given(reports)
@example(VerificationReport(title=""))
@example(VerificationReport(title="t", checks=[Check(name="abstained", passed=None)]))
@example(_added())
def test_to_json_equals_json_dumps(report):
    assert report.to_json() == _reference(report)
