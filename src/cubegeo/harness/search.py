"""Counterexample searches over edge colourings.

  NORINE  every antipodal colouring has a monochromatic path between
          some antipodal pair
  A       every antipodal colouring has a monochromatic geodesic between
          some antipodal pair
  B       every colouring has an antipodal geodesic changing colour at
          most once

One table, ``_SPACES``, gives each conjecture its space (antipodal
colourings for NORINE/A, all colourings for B), its exhaustive cap
(n = 4 resp. n = 3), its checker and its key in ``analyze`` reports.
Work is blocked by colouring index (``generators.pool_map`` owns the
split); blocks merge in order, so the report is identical for any --jobs
value. The sweep halts at the first counterexample and embeds the
colouring.

Exhaustive mode builds every colouring of the space from its index,
sample mode ``budget`` seeded colourings. Both run one sweep per block:
a witness path is a witness for every colouring that gives the path's
edges the same colours, so each colouring first tries the witness that
fitted the colouring before it, then the block's witnesses in the order
found, one AND each, and only a colouring that fits none goes to the
conjecture's checker, whose witness is validated in full against it.
Both modes collect the minimum-colour-change statistic per colouring
where asked.
"""

from __future__ import annotations

from collections import Counter
from contextlib import closing
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from ..colourings import (
    _check_dimension,
    antipodal_colouring_from_index,
    antipodal_pair_count,
    colouring_from_index,
    edge_count,
    find_monochromatic_antipodal_geodesic,
    find_monochromatic_antipodal_path,
    find_one_change_antipodal_geodesic,
    min_colour_changes_antipodal,
    random_antipodal_colouring,
    random_colouring,
    validate_witness,
)
from ..rng import derive
from .generators import pool_map
from .serialize import colouring_to_obj, report

__all__ = ["CONJECTURES", "run_search"]


class _Space(NamedTuple):
    antipodal: bool  # searches antipodal colourings only?
    cap: int  # largest n of exhaustive mode
    check: Callable  # colouring -> witness, or None for a counterexample
    key: str  # analyze's report key for the checker's verdict


#: The one conjecture table. Exhaustive spaces stay enumerable up to the
#: cap: 2^16 antipodal colourings at n = 4, 2^12 colourings at n = 3.
#: Each check lambda looks its checker up when called, so a wrapped or
#: patched module name is the one that runs.
_SPACES = {
    "NORINE": _Space(True, 4, lambda c: find_monochromatic_antipodal_path(c), "mono_antipodal_path"),
    "A": _Space(True, 4, lambda c: find_monochromatic_antipodal_geodesic(c), "mono_antipodal_geodesic"),
    "B": _Space(False, 3, lambda c: find_one_change_antipodal_geodesic(c), "one_change_antipodal_geodesic"),
}

CONJECTURES = tuple(_SPACES)


def _search_block(conjecture: str, mode: str, n: int, seed: int, collect_changes: bool, start: int, stop: int) -> dict:
    """Check colourings [start, stop); stop early inside the block at the
    first counterexample. Returns mergeable per-block results: ``kinds``
    counts witness kinds, ``changes`` the minimum-colour-change values."""
    space = _SPACES[conjecture]
    if mode == "exhaustive":
        build = antipodal_colouring_from_index if space.antipodal else colouring_from_index
        keys = range(start, stop)
    else:
        build = random_antipodal_colouring if space.antipodal else random_colouring
        keys = (derive(seed, i) for i in range(start, stop))
    sweep = _sweep(space.check, build, n, keys)
    checked = 0
    fail = None
    kinds: dict[str, int] = {}
    changes: dict[int, int] = {}
    for index, (c, kind) in enumerate(sweep, start):
        checked += 1
        if kind is None:
            fail = {"index": index, "colouring": colouring_to_obj(c)}
            break
        kinds[kind] = kinds.get(kind, 0) + 1
        if collect_changes:
            value = min_colour_changes_antipodal(c)[0]
            changes[value] = changes.get(value, 0) + 1
    return {"checked": checked, "fail": fail, "kinds": kinds, "changes": changes}


def _sweep(check, build, n: int, keys):
    """Yield (colouring, witness kind or None) for ``build(n, key)`` per
    key. A witness validated against one colouring is a witness for
    every colouring that gives its path's edges the same colours, so
    each colouring first tries the witness that fitted the colouring
    before it, then the sweep's witnesses in the order found, one AND
    each. Any other colouring goes to ``check``, and its witness is
    validated in full before it is kept, as the path edge mask that
    validation returns and the colours on it.

    Neighbouring indices of an exhaustive sweep differ in few edges, so
    the last fit mostly fits again. The fit test is exact, so the order
    decides only which fitting witness is named: the colourings that
    reach ``check`` are those that fit no witness, in any order, and each
    conjecture's checker finds one witness kind."""
    found = []  # (path edge mask, blue edges on the path, kind) per witness
    last = (0, 1, None)  # fits nothing: blue & 0 is never 1
    for key in keys:
        c = build(n, key)
        blue = c.blue_mask
        if blue & last[0] != last[1]:
            for last in found:  # the loop leaves ``last`` at the witness that fits
                if blue & last[0] == last[1]:
                    break
            else:
                witness = check(c)
                if witness is None:
                    yield c, None
                    continue
                path = validate_witness(witness, c)[0]
                last = (path, blue & path, witness.kind)
                found.append(last)
        yield c, last[2]


def run_search(
    conjecture: str,
    mode: str,
    n: int,
    budget: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> dict:
    """Sweep colourings of Q_n for a counterexample to one conjecture.

    Exhaustive mode ignores ``budget`` and covers the whole space; sample
    mode checks ``budget`` seeded random colourings. Sample mode (and
    exhaustive mode up to n = 3) also collects the distribution of the
    minimum-colour-change statistic.
    """
    if conjecture not in _SPACES:
        raise ValueError(f"unknown conjecture {conjecture!r}; expected one of {CONJECTURES}")
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'sample'")
    _check_dimension(n)
    space = _SPACES[conjecture]
    if mode == "exhaustive":
        if n > space.cap:
            space_kind = "antipodal colourings" if space.antipodal else "colourings"
            raise ValueError(
                f"exhaustive search over {space_kind} is capped at n <= {space.cap}; "
                f"n={n} needs sample mode"
            )
        total = 1 << (antipodal_pair_count(n) if space.antipodal else edge_count(n))
        collect_changes = n <= 3
    else:
        if budget is None or budget < 1:
            raise ValueError("sample mode needs a positive --budget")
        total = budget
        collect_changes = True

    checked = 0
    fail = None
    kinds: Counter[str] = Counter()
    changes: Counter[int] = Counter()
    with closing(pool_map(partial(_search_block, conjecture, mode, n, seed, collect_changes), total, jobs)) as results:
        for res in results:
            checked += res["checked"]
            kinds.update(res["kinds"])
            changes.update(res["changes"])
            if res["fail"] is not None:
                fail = res["fail"]
                break

    aggregate = {
        "space": total,
        "checked": checked,
        "counterexamples": 0 if fail is None else 1,
        "witness_kinds": {k: kinds[k] for k in sorted(kinds)},
    }
    if collect_changes and checked:
        # a counterexample stops its block before its statistic is taken
        aggregate["min_changes"] = (
            {
                "min": min(changes),
                "max": max(changes),
                "mean": str(Fraction(sum(v * k for v, k in changes.items()), changes.total())),
            }
            if changes
            else None
        )
    records = [] if fail is None else [fail]
    return report(
        task="search",
        parameters={
            "conjecture": conjecture,
            "mode": mode,
            "n": n,
            "budget": budget if mode == "sample" else None,
        },
        seed=seed,
        records=records,
        aggregate=aggregate,
        passed=fail is None,
    )
