import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("ORDALG_NO_EXT") != "1":
    # Hand-written CPython extension; without it every kernel runs on the
    # pure Python twin.
    ext_modules = [
        Extension(
            "ordalg._kernels._core_c",
            ["src/ordalg/_kernels/_core_c.c"],
            extra_compile_args=["-O3"],
        )
    ]

setup(ext_modules=ext_modules)
