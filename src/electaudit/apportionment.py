"""Highest-averages seat apportionment with exact arithmetic.

Build the quotient table value(u)/d(r) for r = 1..seats, color the ``seats``
largest cells, and hand each unit its colored-cell count.  Values and
divisors are scaled to integers over their common denominators, so every
cell is an exact integer in proportion to its quotient: two cells compare
equal only when their quotients are genuinely equal, never because floats
collided.  A genuine tie at the boundary that spans more than one unit makes
the allocation ambiguous and raises; deciding such ties is a matter for
election law, not for this code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from .core import common_denominator

Divisor = Callable[[int], int]


class AllocationTieError(ValueError):
    """The boundary cells tie across units; no unique allocation exists."""


def dhondt(r: int) -> int:
    return r


def sainte_lague(r: int) -> int:
    return 2 * r - 1


DIVISORS: dict[str, Divisor] = {"dhondt": dhondt, "sainte_lague": sainte_lague}


def highest_averages(
    values: Mapping[str, Fraction], seats: int, divisor: Divisor = dhondt, what: str = "allocation"
) -> dict[str, int]:
    """Allocate ``seats`` among units with row values ``values[u] / divisor(r)``.

    ``values`` must be positive.  Raises :class:`AllocationTieError` (message
    prefixed with ``what``) when the boundary of the colored region ties
    across different units.
    """
    if seats <= 0:
        raise ValueError("seats must be positive")
    if not values:
        raise ValueError("no units to allocate seats to")
    units = list(values)
    for u in units:
        if values[u] <= 0:
            raise ValueError(f"unit {u!r} has non-positive row value {values[u]}")
    divisors = []
    for r in range(1, seats + 1):
        d = divisor(r)
        if divisors and d <= divisors[-1]:
            raise ValueError("divisor function must be strictly increasing")
        divisors.append(d)

    # Over common denominators a value is n / V and a divisor m / D, so the
    # quotient n D / (m V) is q D / (S V), with S the lcm of the m and the
    # cell q = n (S // m) an exact integer.
    row, V = common_denominator(values[u] for u in units)
    div, D = common_denominator(divisors)
    scale = math.lcm(*div)
    cells = [(n * (scale // m), u) for n, u in zip(row, units) for m in div]
    cells.sort(key=lambda c: c[0], reverse=True)
    threshold = cells[seats - 1][0]

    above = [u for q, u in cells if q > threshold]
    at = [u for q, u in cells if q == threshold]
    slots = seats - len(above)
    if len(at) > slots and len(set(at)) > 1:
        raise AllocationTieError(
            f"{what} tie: {len(at)} cells share the boundary quotient "
            f"{Fraction(threshold * D, scale * V)} but only {slots} seats remain"
        )
    alloc = {u: 0 for u in units}
    for u in above:
        alloc[u] += 1
    if len(at) > slots:
        alloc[at[0]] += slots  # all boundary cells belong to one unit
    else:
        for u in at:
            alloc[u] += 1
    return alloc

