"""Every pinned call makes the decisions committed in ``decision_pins.txt``.

A change that moves a line on purpose rebuilds the file with
``tools/pin_decisions.py src`` and names each moved line.
"""
import pytest

import decision_pins


def test_golden_file_lists_every_call():
    assert list(decision_pins.golden()) == list(decision_pins.CALLS)


@pytest.mark.parametrize("label", list(decision_pins.CALLS))
def test_decisions_match_golden(label):
    assert decision_pins.line(label) == decision_pins.golden()[label]
