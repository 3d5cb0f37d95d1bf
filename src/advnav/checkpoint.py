"""Parameter digests: a stable content hash of a parameter dict.

The hash covers each parameter's name and its little-endian float32 values
in sorted-name order, so equal digests mean bit-identical float32
parameters.  The training loops use it to prove a frozen player stayed
frozen.
"""

from __future__ import annotations

import hashlib

import numpy as np


def params_digest(params: dict) -> str:
    """Stable content hash, used to verify frozen players stay frozen."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].values, dtype="<f4").tobytes())
    return h.hexdigest()
