"""Warp-level register values: UNIFORM, AFFINE or PER-LANE.

A warp's register file (:class:`repro.gpu.interpreter._Frame`) holds one
value per register name for the whole warp, and the value carries its
shape — the same "one entry until the warp stops behaving as one"
lattice the paper uses for clocks (§4.3):

* **UNIFORM** — the bare Python scalar every lane holds;
* **AFFINE** — :class:`Affine`, ``base + stride * lane`` over exact
  integers (what thread-index arithmetic is until it wraps), or, with a
  ``ring``, that sum wrapped to an integer type (what it is after);
* **PER-LANE** — a ``list`` with one entry per lane of the warp.  A
  stored list is never mutated in place, so a copy may alias it.

Everything that needs lanes reads them through :func:`column`, whose
entries equal — value for value and type for type — what a per-thread
register file would hold.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: The active lanes of one warp step: ``None`` when every lane of the
#: warp executes, else the ascending lane indices that do.
Lanes = Optional[Tuple[int, ...]]


class Affine:
    """``base + stride * lane`` with integer ``base`` and ``stride != 0``.

    ``ring`` is ``None`` for that sum over exact integers, or the
    ``(mask, sign)`` of an integer type (``sign`` is 0 when it is
    unsigned): lane ``l`` then holds ``base + stride * l`` wrapped to the
    type's range, ``((base + stride * l + sign) & mask) - sign``.
    """

    __slots__ = ("base", "stride", "ring")

    def __init__(self, base: int, stride: int,
                 ring: Optional[Tuple[int, int]] = None) -> None:
        self.base = base
        self.stride = stride
        self.ring = ring

    def __repr__(self) -> str:
        if self.ring is None:
            return f"Affine({self.base}, {self.stride})"
        return f"Affine({self.base}, {self.stride}, {self.ring})"


def shape_of(values: list):
    """The most compact shape that holds ``values`` (one per lane)."""
    first, count = values[0], len(values)
    if all(type(value) is int for value in values):
        stride = values[1] - first if count > 1 else 0
        if not stride:
            if values.count(first) == count:
                return first
        elif values == list(range(first, first + stride * count, stride)):
            return Affine(first, stride)
    return values


def column(value, count: int, lanes: Lanes = None) -> Sequence:
    """``value`` lane by lane: one entry per lane of a ``count``-lane
    warp, or one per active lane, in order, when ``lanes`` is given.

    The result may be the stored list itself: read it, never write it.
    """
    kind = type(value)
    if kind is list:
        return value if lanes is None else [value[lane] for lane in lanes]
    if kind is Affine:
        base, stride, ring = value.base, value.stride, value.ring
        if ring is None:
            if lanes is None:
                return range(base, base + stride * count, stride)
            return [base + stride * lane for lane in lanes]
        mask, sign = ring
        start = base + sign
        return [((start + stride * lane) & mask) - sign
                for lane in (range(count) if lanes is None else lanes)]
    return [value] * (count if lanes is None else len(lanes))


def merge(old, new, count: int, lanes: Tuple[int, ...]) -> list:
    """A write under a partial mask: ``old`` with the active ``lanes``
    replaced by ``new`` — a UNIFORM or AFFINE value of the whole warp,
    or a list with one entry per *active* lane."""
    merged = list(column(old, count))
    values = new if type(new) is list else column(new, count, lanes)
    for lane, value in zip(lanes, values):
        merged[lane] = value
    return merged
