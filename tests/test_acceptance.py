"""Acceptance suite: every verification criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion, or via the command line: `stokeszeros verify`.
"""

import json

import pytest

from stokeszeros.verify import CRITERIA

# criterion registry order is the canonical numbering
_ORDER = sorted(CRITERIA)


def _run(number):
    criterion = CRITERIA[number]
    passed, measured = criterion.check()
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {number}: {criterion.name}")
    print(f"        {json.dumps(measured, default=str)[:240]}")
    assert passed, f"criterion {number} ({criterion.name}): {measured}"


@pytest.mark.parametrize("number", _ORDER, ids=[CRITERIA[n].check.__name__ for n in _ORDER])
def test_acceptance_criterion(number):
    _run(number)
