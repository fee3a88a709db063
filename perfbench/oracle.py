"""Correctness checks of every timed operation against stored references.

``reference.json`` holds outputs generated once by ``make_reference.py``
from the program as it stood when the benchmark was added.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import pathlib

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

#: Sweep means must match the reference within this relative distance.
MEANS_RTOL = 1e-8
#: Little's law ``N_p = lambda_p T_p`` must hold within this distance.
LITTLE_RTOL = 1e-9
#: Ladder metrics (means, quantiles, tails) within this relative distance.
LADDER_RTOL = 1e-9
#: ``tail(quantile(q))`` must lie within this distance of ``1 - q``.
TAIL_ATOL = 1e-6
#: Daemon replies are compared with the in-process result per float.
REPLY_RTOL = 1e-12


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def key(x: float) -> str:
    """Reference-table key of a grid value."""
    return repr(float(x))


def close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_means(where: str, got_n, got_t, ref: dict, arrival_rates,
                ) -> list[str]:
    """Means against the reference, and Little's law per class."""
    problems = []
    for p, (n, t) in enumerate(zip(got_n, got_t)):
        if not close(n, ref["N"][p], MEANS_RTOL):
            problems.append(f"{where}: N[{p}]={n!r} != {ref['N'][p]!r}")
        if not close(t, ref["T"][p], MEANS_RTOL):
            problems.append(f"{where}: T[{p}]={t!r} != {ref['T'][p]!r}")
        if not close(n, arrival_rates[p] * t, LITTLE_RTOL):
            problems.append(f"{where}: Little's law N={n!r} "
                            f"lambda*T={arrival_rates[p] * t!r}")
    return problems


def check_ladder_point(where: str, rows, ref_rows) -> list[str]:
    """One ladder point's metric rows (class x selector)."""
    problems = []
    for p, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for s, (v, r) in enumerate(zip(row, ref_row)):
            if not close(v, r, LADDER_RTOL):
                problems.append(f"{where}: class {p} selector {s} "
                                f"{v!r} != {r!r}")
    if len(rows) != len(ref_rows):
        problems.append(f"{where}: {len(rows)} classes, "
                        f"reference has {len(ref_rows)}")
    return problems


def check_tail_at_quantile(where: str, level: float, tail: float,
                           ) -> list[str]:
    """``tail(quantile(q))`` must be ``1 - q``."""
    if abs(tail - (1.0 - level)) > TAIL_ATOL:
        return [f"{where}: tail(quantile({level})) = {tail!r}, "
                f"expected {1.0 - level!r}"]
    return []


def check_slo(quantum: float, feasible: bool, ref: dict) -> list[str]:
    """The SLO quantum within the search tolerance, same verdict."""
    problems = []
    if bool(feasible) != bool(ref["feasible"]):
        problems.append(f"slo: feasible={feasible} but the reference "
                        f"says {ref['feasible']}")
    tol = ref["tol"] * max(1.0, ref["quantum"])
    if abs(quantum - ref["quantum"]) > tol:
        problems.append(f"slo: quantum {quantum!r} is more than {tol:.3g} "
                        f"from {ref['quantum']!r}")
    return problems


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and close(float(a), float(b), REPLY_RTOL))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def check_reply(where: str, reply: dict, rate: float, grid, ref: dict,
                ) -> list[str]:
    """A daemon reply against the in-process result for its scenario."""
    if reply.get("status") != "ok":
        return [f"{where}: status {reply.get('status')!r}: "
                f"{reply.get('message') or reply.get('error')}"]
    result = reply.get("result") or {}
    problems = []
    for field, want in ref["meta"].items():
        if result.get(field) != want:
            problems.append(f"{where}: {field} {result.get(field)!r} "
                            f"!= {want!r}")
    points = result.get("points") or []
    if len(points) != len(grid):
        return problems + [f"{where}: {len(points)} points for a "
                           f"{len(grid)}-point grid"]
    for q, point in zip(grid, points):
        want = ref["points"].get(f"{key(rate)}|{key(q)}")
        if want is None or not _same(point, want):
            problems.append(f"{where}: point rate={rate} q={q} differs "
                            f"from the in-process result")
    return problems
