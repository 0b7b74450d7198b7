"""Build script.

The compiled canonical-labeling kernel is optional.  With Cython it is
built from ``_ckernel.pyx``; without it, from the tracked generated
``_ckernel.c``.  When no C compiler is available either, setuptools warns
and skips the extension (``optional=True``), and the package falls back to
the pure-Python kernel at import time.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("etskit._ckernel", ["src/etskit/_ckernel.pyx"])],
        language_level="3",
    )
except ImportError:  # pragma: no cover - toolchain dependent
    # the generated C source is tracked, so a C compiler alone suffices
    ext_modules = [Extension("etskit._ckernel", ["src/etskit/_ckernel.c"])]
for ext in ext_modules:
    ext.optional = True  # cythonize does not carry the flag over

setup(ext_modules=ext_modules)
