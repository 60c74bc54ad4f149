"""`python -m horoflow._kernels`: the kernel backend and where it came from,
the extension's file or why the pure backend was taken, in one line."""

from horoflow import _kernels

print("%s: %s" % (_kernels.BACKEND, _kernels.ORIGIN))
