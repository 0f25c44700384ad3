"""Result records shared by the criteria and analysis layers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

# Prediction / classification verdicts.
CONVERGING_TO_ZERO = "converging-to-zero"
CONVERGING_TO_FIXED_POINT = "converging-to-fixed-point"
INCONCLUSIVE = "inconclusive"
VIOLATED = "violated"


class _Interval(NamedTuple):
    lo: float
    hi: float


class ThresholdWindow(_Interval):
    """Open interval of state values from which convergence is predicted.

    For positive-domain models this is (0, alpha); after translation it
    may be an off-origin interval around a fixed point.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "ThresholdWindow":
        if not lo < hi:
            raise ValueError("window requires lo < hi")
        return super().__new__(cls, lo, hi)

    def as_list(self) -> List[float]:
        return [self.lo, self.hi]


class ChainResult(NamedTuple):
    """Outcome of ``criteria.check_inequality_chain``: the decrease
    inequalities verified link by link along a subsequence, under a
    scalar bound or a planar envelope cycle."""

    holds: bool
    first_violation: Optional[int] = None   # j of the first failing link
    links_checked: int = 0
    terminated_at_zero: Optional[int] = None  # j where an exact 0 was hit


@dataclass(frozen=True)
class Prediction:
    """A per-residue-class convergence prediction."""

    residue_class: int
    start_index: int
    stride: int
    verdict: str
    chain: Optional[ChainResult] = None
    limit: Optional[float] = None   # target value (0, or a fixed point)
    note: str = ""

    @property
    def chain_verified(self) -> bool:
        return self.chain is not None and self.chain.holds


class LimitClassification(NamedTuple):
    residue_class: int
    kind: str                      # zero | fixed-point | inconclusive
    value: Optional[float]
    tail_mean: float
    tail_width: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Aggregated outcome of applying the convergence criterion to one
    trajectory."""

    stride: int
    window: ThresholdWindow
    crossing_index: Optional[int]
    predictions: Tuple[Prediction, ...] = ()
    limits: Tuple[LimitClassification, ...] = ()
    full_convergence_from: Optional[int] = None
    subsequence_tails: dict = field(default_factory=dict, compare=False)

    @property
    def chain_verified(self) -> bool:
        return all(p.chain_verified for p in self.predictions
                   if p.chain is not None)

    @property
    def any_violated(self) -> bool:
        return any(p.verdict == VIOLATED for p in self.predictions)

    def to_dict(self) -> dict:
        def _num(v):
            if v is None:
                return None
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return v
        return {
            "n0": self.crossing_index,
            "stride": self.stride,
            "window": [_num(self.window.lo), _num(self.window.hi)],
            "chain_verified": self.chain_verified,
            "full_convergence_from": self.full_convergence_from,
            "predictions": [
                {
                    "residue_class": p.residue_class,
                    "n0": p.start_index,
                    "stride": p.stride,
                    "verdict": p.verdict,
                    "chain_verified": p.chain_verified,
                    "limit": p.limit,
                    "note": p.note,
                    "subsequence_tail": self.subsequence_tails.get(
                        p.residue_class, []),
                }
                for p in self.predictions
            ],
            "limits": [
                {
                    "residue_class": c.residue_class,
                    "classification": c.kind,
                    "value": c.value,
                    "tail_mean": c.tail_mean,
                    "tail_width": c.tail_width,
                }
                for c in self.limits
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
