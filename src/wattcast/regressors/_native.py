"""Build the regressors' C kernels on first use.

A kernel is one C source file beside this module. ``build`` compiles it with
the system C compiler (``gcc``, else ``cc``) into a private temporary
directory, loads the shared library through ``ctypes`` and removes the
directory; the loaded library stays mapped. Nothing is cached on disk and
nothing is compiled at import. The caller keeps its numpy path for a
``None``: no compiler found, a failed build or a failed load.

Every kernel is built with the same flags. ``-march=native`` lets the
compiler use every vector instruction of the machine that loads the library,
which is the machine that built it; a compiler whose error names the flag
gets one more try without it. ``-ffp-contract=off`` keeps the compiler from
fusing a multiply and an add into one rounding, so each kernel does the
floating-point operations its numpy path does, in the order it states.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
from pathlib import Path

_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")


def build(source: Path) -> ctypes.CDLL | None:
    """The shared library compiled from ``source``, or None when no C
    compiler is found or the build or load fails."""
    import subprocess

    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        return None
    try:
        with tempfile.TemporaryDirectory(prefix=f"wattcast-{source.stem.lstrip('_')}-",
                                         ignore_cleanup_errors=True) as build_dir:
            library = os.path.join(build_dir, source.stem + ".so")
            for flags in (_FLAGS, tuple(f for f in _FLAGS if f != "-march=native")):
                built = subprocess.run([compiler, *flags, "-o", library, str(source), "-lm"],
                                       stdin=subprocess.DEVNULL, capture_output=True)
                if built.returncode == 0:
                    return ctypes.CDLL(library)
                if b"march" not in built.stderr:
                    return None
            return None
    except OSError:
        return None
