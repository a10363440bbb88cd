"""Environment fingerprint attached to every result.

Two results are comparable only when their fingerprints' ``digest`` agree:
same interpreter and numeric stack, same scalar backend, same CPU set and
pinned environment, same ``src/`` tree.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
from pathlib import Path

#: Environment the benchmark sets before numpy loads: one thread in every
#: BLAS/OpenMP runtime numpy and scipy may load, and no transparent huge
#: pages for numpy's large arrays, so that peak RSS does not depend on
#: whether the kernel had a huge page free at fault time.
PINNED_ENVIRONMENT = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def tree_digest(root: Path) -> str:
    """BLAKE2b over the relative paths and bytes of the ``*.py`` files under ``root``."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(src: Path) -> dict:
    import numpy
    import scipy

    from repro.simulation.kernels import scalar_backend

    info = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scalar_backend": scalar_backend(),
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "environment": {name: os.environ.get(name) for name in PINNED_ENVIRONMENT},
        "src_digest": tree_digest(src),
    }
    blob = json.dumps(info, sort_keys=True).encode()
    info["digest"] = hashlib.blake2b(blob, digest_size=8).hexdigest()
    return info
