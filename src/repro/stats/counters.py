"""Primitive statistics containers.

The simulator increments named counters everywhere; experiments then derive
rates (per committed instruction, per cycle, per million instructions) from
them.  Keeping raw counts rather than rates makes aggregation across
workloads exact.
"""

from collections import defaultdict
from typing import Dict, Iterable, Tuple


class CounterSet:
    """A bag of named integer counters with dictionary-like access."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counts[name] += amount

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __setitem__(self, name: str, value: int) -> None:
        self._counts[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def names(self) -> Iterable[str]:
        return sorted(self._counts)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of every counter."""
        return dict(self._counts)

    def merge(self, other: "CounterSet") -> None:
        """Add every counter of ``other`` into this set."""
        for name, value in other._counts.items():
            self._counts[name] += value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterSet):
            return NotImplemented
        # Zero-valued entries are indistinguishable from absent ones.
        mine = {k: v for k, v in self._counts.items() if v}
        theirs = {k: v for k, v in other._counts.items() if v}
        return mine == theirs

    @classmethod
    def from_dict(cls, counts: Dict[str, int]) -> "CounterSet":
        """Rebuild a set from an :meth:`as_dict` snapshot."""
        out = cls()
        for name, value in counts.items():
            out._counts[name] = int(value)
        return out

    def rate(self, numerator: str, denominator: str, scale: float = 1.0) -> float:
        """``scale * numerator / denominator``, 0.0 when the denominator is 0."""
        denom = self._counts.get(denominator, 0)
        if denom == 0:
            return 0.0
        return scale * self._counts.get(numerator, 0) / denom


class Histogram:
    """Sparse integer-valued histogram with summary statistics."""

    def __init__(self) -> None:
        self._bins: Dict[int, int] = defaultdict(int)
        self.count = 0
        self.total = 0

    def add(self, value: int, weight: int = 1) -> None:
        self._bins[value] += weight
        self.count += weight
        self.total += value * weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Inclusive percentile; ``p`` in [0, 100]."""
        if not self.count:
            return 0
        target = p / 100.0 * self.count
        seen = 0
        for value in sorted(self._bins):
            seen += self._bins[value]
            if seen >= target:
                return value
        return max(self._bins)

    def items(self) -> Iterable[Tuple[int, int]]:
        return sorted(self._bins.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (dict(self._bins), self.count, self.total) == (
            dict(other._bins), other.count, other.total)

    def to_dict(self) -> Dict[str, list]:
        """JSON-friendly snapshot (bins as value/weight pairs)."""
        return {"bins": [[value, weight] for value, weight in self.items()]}

    @classmethod
    def from_dict(cls, payload: Dict[str, list]) -> "Histogram":
        out = cls()
        for value, weight in payload.get("bins", []):
            out.add(int(value), int(weight))
        return out
