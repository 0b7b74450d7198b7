"""Build script.

The compiled canonical-labeling kernel is optional.  With Cython it is
built from ``_ckernel.pyx``; without it, from the tracked generated
``_ckernel.c``.  When no C compiler is available either, installation
proceeds and the package falls back to the pure-Python kernel at import
time.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class _OptionalBuildExt(build_ext):
    """Never fail the install because the extension did not compile."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain dependent
            print(f"warning: skipping compiled kernel ({exc}); "
                  f"pure-Python kernel will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain dependent
            print(f"warning: could not build {ext.name} ({exc}); "
                  f"pure-Python kernel will be used")


try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("etskit._ckernel", ["src/etskit/_ckernel.pyx"])],
        language_level="3",
    )
except ImportError:  # pragma: no cover - toolchain dependent
    # the generated C source is tracked, so a C compiler alone suffices
    ext_modules = [Extension("etskit._ckernel", ["src/etskit/_ckernel.c"])]

setup(ext_modules=ext_modules, cmdclass={"build_ext": _OptionalBuildExt})
