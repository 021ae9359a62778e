"""Archive byte-identity: the 8-rank OpenFOAM-8k traced world must
publish location files whose bytes never change.

The world is the benchmark's ``traces-openfoam`` run (``mpi`` selection,
``trace-straggler`` imbalance, serial backend).  Its ``.evt`` digests in
``data/openfoam8k-8rank.sha256.json`` were recorded once, from the
commit before the trace writer formatted event lines itself, with::

    PYTHONPATH=src python -m tests.trace.test_archive_digest --record

Run without ``--record`` the module checks the digests and exits
non-zero on a mismatch.  Any writer change that alters archive bytes
fails here.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "data" / "openfoam8k-8rank.sha256.json"

NODES = 8000
RANKS = 8
SCENARIO = "trace-straggler"


def archive_digests(trace_dir: Path) -> dict[str, str]:
    """Write the world's archive under ``trace_dir``; sha256 per ``.evt``."""
    from repro.apps import scenario
    from repro.experiments.runner import DEFAULT_WORKLOAD, prepare_app
    from repro.workflow import run_app

    prepared = prepare_app("openfoam", NODES)
    run_app(
        prepared.app,
        mode="ic",
        tool="scorep",
        ic=prepared.select("mpi").ic,
        ranks=RANKS,
        imbalance=scenario(SCENARIO),
        backend="serial",
        tracing=True,
        workload=DEFAULT_WORKLOAD,
        config_name=f"trace-{SCENARIO}",
        trace_dir=str(trace_dir),
    )
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(trace_dir.glob("*.evt"))
    }


def test_openfoam_archive_bytes_unchanged(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == RANKS
    assert archive_digests(tmp_path) == expected


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = archive_digests(Path(tmp))
    if "--record" in argv:
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} digest(s) to {DIGESTS}")
        return 0
    expected = json.loads(DIGESTS.read_text())
    bad = sorted(
        name for name in expected.keys() | digests.keys()
        if expected.get(name) != digests.get(name)
    )
    for name in bad:
        print(f"{name}: expected {expected.get(name)}, got {digests.get(name)}")
    print(f"{len(expected) - len(bad)}/{len(expected)} location file(s) match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
