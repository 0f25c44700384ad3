"""Bounded real parameter sequences driving non-autonomous equations.

A sequence is one of three finite representations: a constant, a periodic
list, or a finite table with a fallback value for indices past the end.
Each emits only finitely many distinct values, so its inf and sup are the
min and max of what it stores: envelope bounds need no scan of an
infinite index set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

CONSTANT = "constant"
PERIODIC = "periodic"
TABULATED = "tabulated"

_PAST_TABLE = 4     # steps past a table's end that sample its fallback


@dataclass(frozen=True)
class ParameterSequence:
    """A bounded real sequence a_0, a_1, a_2, ...

    Use the ``constant``, ``periodic`` and ``tabulated`` constructors
    rather than instantiating directly.
    """

    kind: str
    values: Tuple[float, ...]
    fallback: Optional[float] = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(value: float) -> "ParameterSequence":
        return ParameterSequence(CONSTANT, (float(value),))

    @staticmethod
    def periodic(values: Sequence[float]) -> "ParameterSequence":
        if not values:
            raise ValueError("periodic list must be non-empty")
        return ParameterSequence(PERIODIC, tuple(float(v) for v in values))

    @staticmethod
    def tabulated(values: Sequence[float],
                  fallback: float) -> "ParameterSequence":
        return ParameterSequence(TABULATED, tuple(float(v) for v in values),
                                 float(fallback))

    # -- access ---------------------------------------------------------

    def __call__(self, n: int) -> float:
        if self.kind == CONSTANT:
            return self.values[0]
        if self.kind == PERIODIC:
            return self.values[n % len(self.values)]
        if 0 <= n < len(self.values):
            return self.values[n]
        return self.fallback  # type: ignore[return-value]

    def resolve(self) -> Union[float, Callable[[int], float]]:
        """Build-time accessor for model builders.

        A constant resolves to its float, which a rendered map reads by
        name; a periodic or tabulated sequence resolves to a closure over
        its tuple, which the map calls at n, that indexes without any
        per-call kind dispatch.  Either way the values are exactly those
        of ``self(n)``.
        """
        values = self.values
        if self.kind == CONSTANT:
            return values[0]
        size = len(values)
        if self.kind == PERIODIC:
            def periodic(n: int) -> float:
                return values[n % size]
            return periodic
        fallback = self.fallback

        def tabulated(n: int) -> float:
            return values[n] if 0 <= n < size else fallback
        return tabulated

    def stored_values(self) -> Tuple[float, ...]:
        """All distinct values the sequence can ever emit."""
        if self.kind == TABULATED:
            return self.values + (self.fallback,)  # type: ignore[operator]
        return self.values

    def bounds(self) -> Tuple[float, float]:
        """Exact (inf, sup) of the sequence: the min and max of its
        stored values."""
        stored = self.stored_values()
        return min(stored), max(stored)

    def sample_indices(self) -> Tuple[int, ...]:
        """Step indices that exercise every stored value at least once.

        Used by grid checks that must cover the whole (finite)
        representation of a non-autonomous coefficient.
        """
        if self.kind == CONSTANT:
            return (0,)
        if self.kind == PERIODIC:
            return tuple(range(len(self.values)))
        return tuple(range(len(self.values) + _PAST_TABLE))


def as_sequence(value) -> ParameterSequence:
    """Coerce into a ParameterSequence: a number (or numeric text) is a
    constant, a list periodic, and the JSON form {"kind": ...} that
    representation."""
    if isinstance(value, ParameterSequence):
        return value
    if isinstance(value, str):
        value = float(value)
    if isinstance(value, (int, float)):
        return ParameterSequence.constant(value)
    if not isinstance(value, dict):
        return ParameterSequence.periodic(value)
    kind = value.get("kind")
    if kind == CONSTANT:
        return ParameterSequence.constant(value["value"])
    if kind == PERIODIC:
        return ParameterSequence.periodic(value["values"])
    if kind == TABULATED:
        return ParameterSequence.tabulated(value["values"], value["fallback"])
    raise ValueError("unknown sequence kind %r" % (kind,))
