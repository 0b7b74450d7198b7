"""Build script.

The compiled canonical-labeling kernel is optional and is built from
``src/etskit/_ckernel.c``, C written by hand against the CPython API, so a
C compiler alone suffices.  When none is available, setuptools warns and
skips the extension (``optional=True``), and the package falls back to the
pure-Python kernel at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("etskit._ckernel", ["src/etskit/_ckernel.c"], optional=True)])
