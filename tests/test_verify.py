import pytest

from asmlat import verify
from asmlat.core import AsmError
from asmlat.verify import SUITES


@pytest.mark.parametrize("n_max", [0, -2])
def test_verify_rejects_max_below_one(n_max):
    # a run of zero checks must not report "all checks passed"
    with pytest.raises(AsmError):
        verify(n_max)


def test_verify_passes_small():
    report = verify(3)
    assert report.ok
    assert "all checks passed" in str(report)


def test_report_has_one_line_per_suite():
    report = verify(2)
    names = [line.split(":")[0] for line in report.lines]
    assert names == [name for name, _, _ in SUITES]
    assert len(names) == len(set(names))


def test_report_counts_format():
    report = verify(2)
    for line in report.lines:
        passed, checked = line.split(": ")[1].split("/")
        assert int(passed) == int(checked)
