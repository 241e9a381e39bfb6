"""Implied hierarchy over numeric claimed values (paper §3.2 extension).

The paper generalizes TDH to numeric data by declaring ``v_a`` an
ancestor of ``v_d`` when rounding ``v_d`` to ``v_a``'s precision yields
``v_a`` (e.g. 605.196 km² → 605.2 → 605). Claimed values are kept as
decimal *strings* because the trailing precision carries the information
("605" and "605.0" claim different precision).

TDH only needs the per-object ancestor sets ``G_o(v)``/``D_o(v)``, so we
expose the pairwise ancestor relation over a candidate list rather than
a global tree (rounding is not perfectly transitive, which is fine:
the model consumes ancestor *sets*).
"""
from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, InvalidOperation


def decimal_places(value: str) -> int:
    """Number of digits after the decimal point in the claimed string."""
    d = Decimal(value)
    exp = d.as_tuple().exponent
    return max(0, -int(exp))


def _decimal_places_safe(value: str) -> int | None:
    try:
        return decimal_places(value)
    except InvalidOperation:
        return None


def rounds_to(vd: str, va: str) -> bool:
    """True iff rounding ``vd`` at ``va``'s precision (half-up) gives ``va``."""
    try:
        d, a = Decimal(vd), Decimal(va)
    except InvalidOperation:
        return False
    pa = decimal_places(va)
    q = Decimal(1).scaleb(-pa)  # 10**-pa
    return d.quantize(q, rounding=ROUND_HALF_UP) == a


def is_numeric_ancestor(va: str, vd: str) -> bool:
    """``va`` is a proper ancestor of ``vd`` in the implied hierarchy.

    Requires strictly coarser precision *and* the rounding relation; two
    equal-precision values are never related (they conflict instead).
    """
    if va == vd:
        return False
    pa, pd_ = _decimal_places_safe(va), _decimal_places_safe(vd)
    if pa is None or pd_ is None or pa >= pd_:
        return False
    return rounds_to(vd, va)


def numeric_ancestor_pairs(values: list[str]) -> set[tuple[str, str]]:
    """All (descendant, ancestor) pairs among ``values``.

    Quadratic in the candidate count, which the paper notes is small
    (|V_o| is tiny compared to |O|, |S|, |W|).
    """
    pairs: set[tuple[str, str]] = set()
    for vd in values:
        for va in values:
            if is_numeric_ancestor(va, vd):
                pairs.add((vd, va))
    return pairs
