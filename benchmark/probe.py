"""Print, as one JSON line, what a regsent child process runs on: where
regsent was imported from, numpy's version, its BLAS library and the thread
count that library uses. Importing regsent.cli also compiles its bytecode,
so the first timed process does not pay for that."""

from __future__ import annotations

import ctypes
import json
from pathlib import Path

import numpy

import regsent
import regsent.cli  # noqa: F401  (imported for its side effect of loading every module)


def blas_info() -> tuple[str, int | None]:
    name = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return name, int(getter())
    return name, None


if __name__ == "__main__":
    blas, threads = blas_info()
    print(json.dumps({
        "regsent_file": regsent.__file__,
        "regsent_version": regsent.__version__,
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }))
