"""Finite-difference gradients and the error measure the gradient checks
compare them with."""

import numpy as np


def numeric_gradient(f, tensors, h=1e-3):
    """Central-difference gradients of the scalar ``f()`` w.r.t. each tensor.

    ``f`` must recompute from the tensors' current values on every call.
    Use float64 tensors: float32 forward noise overwhelms the quotient.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.values)
        flat, gflat = t.values.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(a, b, floor=1e-8):
    """max |a-b| / max(|a|, |b|, floor), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
