"""The library's outputs on a wide corpus against stored digests.

Each entry of ``output_digests.json`` is the SHA-256 of one output's
canonical JSON (``diagram_to_json`` or ``series_to_json``, keys sorted, no
spaces), keyed by its input:

- ``complete/<data>/w<word>``: every datum of ``test_scattering.RANK2`` and
  ``SHEARED_B2``, walked along (), (1,), (2,) and (2,1) and completed at
  order 4, and ``tk/<data>/w<word>/k<k>``, its ``tk_transform`` for k = 1, 2;
- ``chamber/<name>/depth<n>``: the ``cluster_chamber_walls`` of B2 at depth 6
  and G2 at depth 8, as a diagram of order ``depth``;
- ``theta/<name>/o5/g<a>,<b>``: ``theta`` of every exponent with |a|, |b| <= 2
  at order 5 on the B2, Kronecker and sheared-B2 completions.

The walked seeds and the sheared basis put most of these diagrams in a frame
other than the identity.  After a deliberate change of output, regenerate the
file with

    PYTHONPATH=src python3 tests/test_output_identity.py
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from clusterscatter.cluster_core import FixedData, initial_seed, pattern_walk
from clusterscatter.monoid_ring import series_to_json
from clusterscatter.scattering import (
    ScatteringDiagram,
    build_initial,
    cluster_chamber_walls,
    complete_rank2,
    diagram_to_json,
    tk_transform,
)
from clusterscatter.theta import theta

from test_scattering import B2, G2, KRON, RANK2, SHEARED_B2

DIGESTS = Path(__file__).with_name("output_digests.json")
WORDS = ((), (1,), (2,), (2, 1))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def group_seed(data):
    return initial_seed(data, with_cluster=False, semifield=False)


def _name(data: FixedData) -> str:
    (_, b12), (b21, _) = data.B
    return f"b{-b12},{b21}/d{data.d[0]},{data.d[1]}/r{data.r[0]},{data.r[1]}"


def _diagrams():
    seeds = [(_name(data), group_seed(data)) for data in RANK2] + [("b2-sheared", SHEARED_B2)]
    for name, s in seeds:
        for word in WORDS:
            key = f"{name}/w{''.join(map(str, word))}"
            D = complete_rank2(build_initial(pattern_walk(s, word), 4))
            yield f"complete/{key}", D
            for k in (1, 2):
                yield f"tk/{key}/k{k}", tk_transform(D, k)
    for name, data, depth in (("b2", B2, 6), ("g2", G2, 8)):
        s = group_seed(data)
        yield f"chamber/{name}/depth{depth}", ScatteringDiagram(cluster_chamber_walls(s, depth), depth, s)


def _thetas():
    for name, s in (("b2", group_seed(B2)), ("kron", group_seed(KRON)), ("b2-sheared", SHEARED_B2)):
        D = complete_rank2(build_initial(s, 5))
        for g in ((a, b) for a in range(-2, 3) for b in range(-2, 3)):
            yield f"theta/{name}/o5/g{g[0]},{g[1]}", series_to_json(theta(D, g, 5))


@lru_cache(maxsize=None)
def outputs() -> dict[str, str]:
    out = {key: digest(diagram_to_json(D)) for key, D in _diagrams()}
    out.update((key, digest(blob)) for key, blob in _thetas())
    return out


def _check(prefixes: tuple[str, ...]) -> None:
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items() if k.startswith(prefixes)}
    got = {k: v for k, v in outputs().items() if k.startswith(prefixes)}
    assert got.keys() == want.keys()
    assert [k for k in got if got[k] != want[k]] == []


def test_completions_and_transforms_match_digests():
    assert sum(k.startswith(("complete/", "tk/")) for k in outputs()) == 456
    _check(("complete/", "tk/"))


def test_chamber_walls_match_digests():
    _check(("chamber/",))


def test_theta_matches_digests():
    assert sum(k.startswith("theta/") for k in outputs()) == 75
    _check(("theta/",))


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
