"""Counterexample searches over edge colourings.

  NORINE  every antipodal colouring has a monochromatic path between
          some antipodal pair
  A       every antipodal colouring has a monochromatic geodesic between
          some antipodal pair
  B       every colouring has an antipodal geodesic changing colour at
          most once

One table, ``_SPACES``, gives each conjecture its space (antipodal
colourings for NORINE/A, all colourings for B), its exhaustive cap
(n = 4 resp. n = 3) and its witness kind. Work is blocked by colouring
index (``generators.block_size``, aligned powers of two for exhaustive
spaces); blocks merge in order, so the report is identical for any
--jobs value. The sweep halts at the first counterexample and embeds
the colouring.

Exhaustive mode enumerates the whole space, one lane search
(``colourings.antipodal_lane_search``) per block. Every colouring up
to the first without a witness is still built from its index, and each
witness group is checked against those colourings: a full
``validate_witness`` on its first colouring, and on every colouring one
AND showing that it colours the path alike. Sample mode draws
``budget`` seeded colourings and checks them one at a time with the
conjecture's checker. Both collect the minimum-colour-change statistic
per colouring where asked.
"""

from __future__ import annotations

from contextlib import closing
from fractions import Fraction

from ..colourings import (
    _check_dimension,
    antipodal_colouring_from_index,
    antipodal_lane_search,
    antipodal_pair_count,
    block_lanes,
    colouring_from_index,
    edge_count,
    find_monochromatic_antipodal_geodesic,
    find_monochromatic_antipodal_path,
    find_one_change_antipodal_geodesic,
    min_colour_changes_antipodal,
    random_antipodal_colouring,
    random_colouring,
    validate_witness,
    validate_witness_group,
)
from ..core import _bits
from .generators import block_size, pool_map, subseed
from .serialize import Report, colouring_to_obj

__all__ = ["CONJECTURES", "run_search"]

#: The one conjecture table: conjecture -> (searches antipodal colourings
#: only?, exhaustive cap, witness kind). Exhaustive spaces stay enumerable
#: up to the cap: 2^16 antipodal colourings at n = 4, 2^12 colourings at
#: n = 3.
_SPACES = {
    "NORINE": (True, 4, "mono-path"),
    "A": (True, 4, "mono-geodesic"),
    "B": (False, 3, "one-change-geodesic"),
}

CONJECTURES = tuple(_SPACES)


def _search_block(params: tuple) -> dict:
    """Check colourings [start, stop); stop early inside the block at the
    first counterexample. Returns mergeable per-block results."""
    conjecture, mode, n, seed, start, stop, collect_changes = params
    # Names are looked up on every call, never stored at import, so a wrapped name runs.
    if mode == "exhaustive":
        sweep = _lane_sweep(conjecture, n, start, stop)
    else:
        check = {"NORINE": find_monochromatic_antipodal_path,
                 "A": find_monochromatic_antipodal_geodesic,
                 "B": find_one_change_antipodal_geodesic}[conjecture]
        build = random_antipodal_colouring if _SPACES[conjecture][0] else random_colouring
        sweep = _colouring_sweep(check, build, n, (subseed(seed, i) for i in range(start, stop)))
    checked = 0
    fail = None
    kinds: dict[str, int] = {}
    ch_min = ch_max = None
    ch_sum = 0
    for index, (c, kind) in enumerate(sweep, start):
        checked += 1
        if kind is None:
            fail = {"index": index, "colouring": colouring_to_obj(c)}
            break
        kinds[kind] = kinds.get(kind, 0) + 1
        if collect_changes:
            value = min_colour_changes_antipodal(c)[0]
            ch_sum += value
            ch_min = value if ch_min is None else min(ch_min, value)
            ch_max = value if ch_max is None else max(ch_max, value)
    return {
        "checked": checked,
        "fail": fail,
        "kinds": kinds,
        "ch_min": ch_min,
        "ch_max": ch_max,
        "ch_sum": ch_sum,
    }


def _lane_sweep(conjecture: str, n: int, start: int, stop: int):
    """Yield (colouring, witness kind) for the index colourings start..,
    up to and including the first without a witness (kind None). One
    lane search decides the whole block; each of its witness groups is
    checked against the colourings the index builder makes, up to that
    first one."""
    antipodal, _, kind = _SPACES[conjecture]
    build = antipodal_colouring_from_index if antipodal else colouring_from_index
    count = stop - start
    groups = antipodal_lane_search(n, block_lanes(n, start, count, antipodal), count, kind)
    found = 0
    for lanes, _ in groups:
        if found & lanes:
            raise RuntimeError(f"witness groups overlap in lanes {found & lanes:#x}")
        found |= lanes
    missing = ~found & ((1 << count) - 1)
    checked = (missing & -missing).bit_length() or count
    colourings = [build(n, index) for index in range(start, start + checked)]
    kinds = [None] * checked
    for lanes, witness in groups:
        group = _bits(lanes & ((1 << checked) - 1))
        if group:
            validate_witness_group(witness, [colourings[j] for j in group])
            for j in group:
                kinds[j] = witness.kind
    yield from zip(colourings, kinds)


def _colouring_sweep(check, build, n: int, keys):
    """Yield (colouring, witness kind or None) for ``build(n, key)`` per
    key, each checked on its own and its witness validated."""
    for key in keys:
        c = build(n, key)
        witness = check(c)
        if witness is not None:
            validate_witness(witness, c)
        yield c, None if witness is None else witness.kind


def run_search(
    conjecture: str,
    mode: str,
    n: int,
    budget: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> Report:
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
    antipodal, cap, _ = _SPACES[conjecture]
    if mode == "exhaustive":
        if n > cap:
            space_kind = "antipodal colourings" if antipodal else "colourings"
            raise ValueError(
                f"exhaustive search over {space_kind} is capped at n <= {cap}; "
                f"n={n} needs sample mode"
            )
        total = 1 << (antipodal_pair_count(n) if antipodal else edge_count(n))
        collect_changes = n <= 3
    else:
        if budget is None or budget < 1:
            raise ValueError("sample mode needs a positive --budget")
        total = budget
        collect_changes = True

    size = block_size(total)
    blocks = [
        (conjecture, mode, n, seed, start, min(start + size, total), collect_changes)
        for start in range(0, total, size)
    ]
    checked = 0
    fail = None
    kinds: dict[str, int] = {}
    ch_min = ch_max = None
    ch_sum = 0
    with closing(pool_map(_search_block, blocks, jobs)) as results:
        for res in results:
            checked += res["checked"]
            for kind, cnt in res["kinds"].items():
                kinds[kind] = kinds.get(kind, 0) + cnt
            if res["ch_min"] is not None:
                ch_min = res["ch_min"] if ch_min is None else min(ch_min, res["ch_min"])
                ch_max = res["ch_max"] if ch_max is None else max(ch_max, res["ch_max"])
                ch_sum += res["ch_sum"]
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
        stat_count = checked if fail is None else checked - 1
        aggregate["min_changes"] = (
            {
                "min": ch_min,
                "max": ch_max,
                "mean": str(Fraction(ch_sum, stat_count)),
            }
            if stat_count
            else None
        )
    records = [] if fail is None else [fail]
    return Report(
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
