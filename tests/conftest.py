import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def eigh_widths(monkeypatch):
    """The width of every ``np.linalg.eigh`` call made while the test runs,
    in call order."""
    widths = []
    eigh = np.linalg.eigh

    def spy(m, *args, **kwargs):
        widths.append(np.shape(m)[-1])
        return eigh(m, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    return widths
