"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ``ETSKIT_PURE=1`` to force the pure kernel; the ``tier1-pure`` CI job
does, to run the tests on it.  Nothing else sets it: ``perfbench/run.py``
measures whichever kernel the checkout has built, and the parity tests
import both kernels directly.  Both kernels are byte-for-byte
interchangeable.
"""

from __future__ import annotations

import os

if os.environ.get("ETSKIT_PURE"):
    from etskit import _kernel as _impl
else:
    try:
        from etskit import _ckernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        from etskit import _kernel as _impl

canonical_bits = _impl.canonical_bits
NODE_CAP = _impl.NODE_CAP


def backend() -> str:
    """Name of the active kernel: ``"c"`` or ``"pure"``."""
    return _impl.BACKEND
