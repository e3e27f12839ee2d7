from __future__ import annotations

import numpy as np
import pytest

from assocnet import assoc, community, simgen


@pytest.fixture
def mapped_bytes(monkeypatch):
    """The sizes of the arrays the package maps through assoc.mapped_zeros
    while the test runs, one entry per map.

    tracemalloc sees only the heap, so a memory test adds these to its
    traced peak.
    """
    sizes = []
    mapped_zeros = assoc.mapped_zeros

    def counting(shape, dtype=np.float64):
        out = mapped_zeros(shape, dtype)
        sizes.append(out.nbytes)
        return out

    for module in (assoc, community, simgen):
        monkeypatch.setattr(module, "mapped_zeros", counting)
    return sizes
