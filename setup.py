"""Build script. The C kernel is optional: without a C compiler the package
installs pure-Python only and horoflow._kernels falls back at import time."""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "horoflow._kernels._native",
            ["src/horoflow/_kernels/_native.c"],
            optional=True,
        )
    ]
)
