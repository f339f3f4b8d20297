"""Sorted-array membership: the probe half of every id-set semi-join.

The reference filters with broadcast id sets (filter/filter.go:282-408):
collect the ids, sort them once, then test each candidate by binary
search.  ``sorted_lookup`` is that test, vectorized over a whole batch.
"""

from __future__ import annotations

import numpy as np


def sorted_lookup(sorted_keys: np.ndarray, probe) -> tuple[np.ndarray, np.ndarray]:
    """``(found, idx)`` for each probe key: ``found[i]`` says
    ``probe[i]`` is in ``sorted_keys`` (ascending), and where it is,
    ``sorted_keys[idx[i]] == probe[i]``.  At a miss ``idx[i]`` is a
    valid neighbouring position (0 for an empty key array), so
    ``values[idx]`` never indexes out of bounds on a non-empty table.
    Works for any dtype ``np.searchsorted`` orders, object strings
    included."""
    probe = np.asarray(probe)
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(len(probe), bool), np.zeros(len(probe), np.int64)
    idx = np.searchsorted(sorted_keys, probe)
    np.minimum(idx, n - 1, out=idx)
    return sorted_keys[idx] == probe, idx
