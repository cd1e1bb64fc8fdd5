"""The environment that wrote the byte-compared files.

The goldens under ``tests/data/golden/`` and the acceptance sweeps under
``runs/`` are compared byte for byte, and their float digits depend on the
Python, numpy and scipy versions and on the OpenBLAS kernels numpy runs.
``tests/data/golden/environment.json`` records those: the OpenBLAS is the
one numpy bundles, its version and the core name its runtime dispatch
picked (``scipy_openblas_get_corename64_``).  Both ``--write`` scripts write
the record, and a byte mismatch names each field where the current
environment differs from it, so drift in the environment reads as drift
rather than as a regression.
"""

import ctypes
import json
import platform
from pathlib import Path

import numpy as np
import scipy

RECORD = Path(__file__).parent / "data" / "golden" / "environment.json"


def _openblas() -> tuple[str | None, str | None]:
    """(version, runtime core name) of the OpenBLAS bundled with numpy, or
    None for each that cannot be read (another BLAS, or another build)."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(str(libs[0]))  # the copy numpy loaded: same handle

    def text(name):
        fn = getattr(lib, name, None)
        if fn is None:
            return None
        fn.restype = ctypes.c_char_p
        return fn().decode()

    config = text("scipy_openblas_get_config64_")  # "OpenBLAS <version> <options>"
    return config and config.split()[1], text("scipy_openblas_get_corename64_")


def current() -> dict:
    version, core = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "openblas_core": core,
    }


def write() -> None:
    RECORD.write_text(json.dumps(current(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")


def mismatch_note() -> str:
    """Each field where this environment differs from the recorded one."""
    recorded = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    here = current()
    fields = [
        f"{key} {recorded.get(key)} recorded, {here.get(key)} here"
        for key in sorted(recorded.keys() | here.keys())
        if recorded.get(key) != here.get(key)
    ]
    if not fields:
        return f"the environment is the one that wrote the committed files ({RECORD.name})"
    return f"the environment differs from the one that wrote the committed files: {'; '.join(fields)}"


def assert_same_bytes(data: bytes, committed: Path) -> None:
    """data equals the committed file's bytes; a mismatch names the file and
    the environment fields that differ from the recorded ones."""
    assert data == committed.read_bytes(), f"{committed}: bytes differ; {mismatch_note()}"
