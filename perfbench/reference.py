"""Reference digests of every operation the workloads can draw.

A digest is the SHA-256 of an output's canonical JSON (``diagram_to_json``,
``series_to_json``, ``rational_to_json``/``seed_to_json``, or the ``verify``
stdout with its exit code).  Entries are keyed by the operation's input, not
by the workload seed, so the file covers every seed.  Regenerate it from the
library as it stands with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference.json"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load(path: Path = PATH) -> dict[str, str]:
    return json.loads(path.read_text())


def record() -> dict[str, str]:
    from workloads import WORKLOADS

    out = {}
    for workload in WORKLOADS.values():
        for op in workload.all_ops():
            out[op.key] = digest(op.canon(op.call()))
            print(op.key, file=sys.stderr, flush=True)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
