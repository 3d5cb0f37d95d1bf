"""Parameter digests: a stable content hash of a parameter dict.

The hash covers each parameter's name and its little-endian values in
sorted-name order; arrays other than float32 also hash their dtype tag.  So
equal digests mean bit-identical parameters of any dtype.  The training
loops use it to prove a frozen player stayed frozen.
"""

from __future__ import annotations

import hashlib

import numpy as np


def params_digest(params: dict) -> str:
    """Stable content hash, used to verify frozen players stay frozen."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        values = params[name].values
        le = values.dtype.newbyteorder("<")
        if le != np.dtype("<f4"):
            h.update(le.str.encode())
        h.update(np.ascontiguousarray(values, dtype=le).tobytes())
    return h.hexdigest()
