"""The seeded request stream of the ``service-mixed`` workload.

Pure Python with no ``repro`` import, so the benchmark's tests can check
the stream without solving anything.

The writer walks over a fixed pool of fig23 points: three arrival rates
times 48 quantum lengths.  The pool is split into walks of six quanta.
Each walk's quanta are spaced across the whole quantum range (stride 8),
so every walk costs about the same and no seed draws a cheap or a dear
part of the pool.  A walk sends five requests with 3-point quantum grids:

* ``cold``: quanta 0-2 of the walk, three points the store has never seen;
* ``partial`` x3: the window shifted by one, so two points are store
  hits and one is solved;
* ``hit``: the first window again, a full-result store hit.

Walks are issued in rounds that visit every rate once.  The seed orders
the rates within each round and the walks within each rate, and drives
the reader's choices; it never changes the mix of request kinds.
"""

from __future__ import annotations

import random

#: Arrival rates of the writer's scenarios (the fig23 preset argument).
RATES = (0.25, 0.3, 0.35)
#: Quantum lengths of the point pool: 1.0, 1.1, ..., 5.7.
QUANTA = tuple(round(1.0 + 0.1 * k, 1) for k in range(48))
WALK_POINTS = 6
#: Walks per rate; walk ``s`` holds quanta ``s, s + 8, s + 16, ...``.
WALKS_PER_RATE = len(QUANTA) // WALK_POINTS
KINDS = ("cold", "partial", "partial", "partial", "hit")


def walk_quanta(s: int) -> tuple[float, ...]:
    """The six quanta of walk ``s`` (strided over the whole range)."""
    return tuple(QUANTA[s + WALKS_PER_RATE * i] for i in range(WALK_POINTS))


def walk_requests(rate: float, quanta) -> list[tuple[str, float, tuple]]:
    """``(kind, rate, grid)`` for the five requests of one walk."""
    windows = [quanta[0:3], quanta[1:4], quanta[2:5], quanta[3:6],
               quanta[0:3]]
    return [(kind, rate, tuple(w)) for kind, w in zip(KINDS, windows)]


def writer_stream(seed: int) -> list[tuple[str, float, tuple]]:
    """The whole writer stream for ``seed``: 24 walks, 120 requests."""
    rng = random.Random(seed)
    order = {r: rng.sample(range(WALKS_PER_RATE), WALKS_PER_RATE)
             for r in RATES}
    stream = []
    for rnd in range(WALKS_PER_RATE):
        for rate in rng.sample(RATES, len(RATES)):
            stream += walk_requests(rate, walk_quanta(order[rate][rnd]))
    return stream


def pool_points() -> list[tuple[float, float]]:
    """Every ``(rate, quantum)`` point the writer can request."""
    return [(r, q) for r in RATES for q in QUANTA]


def mix(stream) -> dict[str, int]:
    """Count of each request kind in ``stream``."""
    out = {k: 0 for k in ("cold", "partial", "hit")}
    for kind, _, _ in stream:
        out[kind] += 1
    return out
