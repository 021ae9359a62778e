"""Environment stamp attached to every benchmark result.

A number means something only next to the machine and code it came from:
the stamp records the usable core count, the Python and numpy versions,
the platform, the git commit (when the checkout is a git work tree) and a
digest of the ``src/`` tree (always, since benchmark checkouts need not be
git repositories), together with the workload seed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

#: seed held out of tuning: a claimed gain must also hold on this seed
HELD_OUT_SEED = 7919


def _git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    # a checkout nested inside some other repository is not that commit
    if Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """SHA-256 over the relative paths and bytes of every ``.py`` under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_stamp(root: Path, *, workload: str, seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root / "src"),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }
