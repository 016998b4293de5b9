"""Build the package's C kernels on first use, once per machine.

A kernel is one C source file beside the module that loads it. Beside this
module: ``_sqdist.c`` (squared distances, ``_distance.py``), ``_svr_smo.c``
(the SVR's SMO loop) and ``_mlp_epoch.c`` (an MLP epoch and its sigmoid).
Beside ``ingest.py``: ``_csv_columns.c``, the energy reader's column pass
and the CSV table writer. ``build`` compiles it with
the system C compiler (``gcc``, else ``cc``) and loads the shared library
through ``ctypes``. Nothing is compiled at import. The caller keeps its numpy
path for a ``None``: no compiler found, a failed build or a failed load.

Compiled libraries are cached on disk, so only the first process on a
machine pays for the compiler. The cache is ``$XDG_CACHE_HOME/wattcast``,
else ``~/.cache/wattcast``, else ``<tempdir>/wattcast-<uid>``. It is created
with mode 0700 and used only while it is a directory owned by the current
user that no group or other user can write. A library's file name holds a
hash of the source bytes, the flags, the compiler (resolved path, size and
modification time) and the CPU's feature flags from ``/proc/cpuinfo``; a
changed source, compiler or processor therefore builds a new file instead of
loading a stale one. A build writes into a temporary directory inside the
cache and renames the library into place, so concurrent processes never
load a half-written file. A cached file that fails to load is rebuilt.
Where the cache is unusable, or the CPU's flags cannot be read, the library
is built in a private temporary directory that is removed once it is
loaded, on every call. Deleting the cache directory clears it.

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
import stat
import tempfile
from pathlib import Path

_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")


def build(source: Path) -> ctypes.CDLL | None:
    """The shared library compiled from ``source``, or None when no C
    compiler is found or the build or load fails."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        return None
    cache = cache_dir()
    try:
        key = None if cache is None else cache_key(source, compiler)
    except OSError:
        key = None
    if key is None:
        return _compile(compiler, source, None)
    library = cache / f"{source.stem}-{key}.so"
    try:
        return ctypes.CDLL(str(library))
    except OSError:  # not built yet, or not a loadable library
        return _compile(compiler, source, library)


def _compile(compiler: str, source: Path, target: Path | None) -> ctypes.CDLL | None:
    """Compile ``source`` in a temporary directory, beside ``target`` when
    one is given, and load the library from ``target`` or, with None, from
    the temporary directory before it is removed."""
    import subprocess

    try:
        with tempfile.TemporaryDirectory(prefix=f"wattcast-{source.stem.lstrip('_')}-",
                                         dir=None if target is None else target.parent,
                                         ignore_cleanup_errors=True) as build_dir:
            library = os.path.join(build_dir, source.stem + ".so")
            for flags in (_FLAGS, tuple(f for f in _FLAGS if f != "-march=native")):
                built = subprocess.run([compiler, *flags, "-o", library, str(source), "-lm"],
                                       stdin=subprocess.DEVNULL, capture_output=True)
                if built.returncode == 0:
                    if target is not None:
                        os.replace(library, target)
                        library = str(target)
                    return ctypes.CDLL(library)
                if b"march" not in built.stderr:
                    return None
            return None
    except OSError:
        return None


def cache_dir() -> Path | None:
    """The directory that holds compiled libraries, created if absent, or
    None when it cannot be created or another user could write to it."""
    getuid = getattr(os, "getuid", None)
    if getuid is None:
        return None
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    home = os.path.expanduser("~")
    if os.path.isabs(xdg):
        path = Path(xdg, "wattcast")
    elif home != "~":
        path = Path(home, ".cache", "wattcast")
    else:
        path = Path(tempfile.gettempdir(), f"wattcast-{getuid()}")
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return None
    private = info.st_uid == getuid() and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    return path if stat.S_ISDIR(info.st_mode) and private else None


def cache_key(source: Path, compiler: str) -> str | None:
    """Hash of everything the library built from ``source`` depends on, or
    None when the CPU's feature flags cannot be read."""
    cpu = _cpu_flags()
    if cpu is None:
        return None
    import hashlib

    resolved = os.path.realpath(compiler)
    info = os.stat(resolved)
    digest = hashlib.sha256()
    for part in (source.read_bytes(), repr(_FLAGS).encode(), os.fsencode(resolved),
                 f"{info.st_size} {info.st_mtime_ns}".encode(), cpu):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()[:32]


def _cpu_flags() -> bytes | None:
    """The first line of ``/proc/cpuinfo`` that lists the CPU's features,
    or None where there is none."""
    try:
        with open("/proc/cpuinfo", "rb") as info:
            for line in info:
                if line.startswith((b"flags", b"Features")):
                    return line
    except OSError:
        pass
    return None
