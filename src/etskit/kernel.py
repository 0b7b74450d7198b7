"""Kernel selection: compiled extension when built, pure Python otherwise.

``perfbench/run.py`` measures whichever kernel the checkout has built, and
the parity tests import both kernels directly.  Both kernels are
byte-for-byte interchangeable.
"""

from __future__ import annotations

try:
    # a compiled module that lacks these names (the stub of a zipped egg
    # install) raises ImportError here too, and the pure kernel runs
    from etskit._ckernel import BACKEND, NODE_CAP, canonical_bits  # type: ignore
except ImportError:
    from etskit._kernel import BACKEND, NODE_CAP, canonical_bits


def backend() -> str:
    """Name of the active kernel: ``"c"`` or ``"pure"``."""
    return BACKEND
