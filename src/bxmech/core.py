"""Core value types for bounded-cycle barter exchange.

Agents are numbered 1..n.  A wish-list vector is the agent digraph: agent i
is willing to receive from anyone in her wish list, and an exchange is a set
of pairwise disjoint trading cycles drawn from that digraph.  Utilities and
welfare are exact rationals (``fractions.Fraction``), so that
strict-improvement comparisons made by the local-search machinery are exact.
The one float is the utility of a non-wished item, ``NEG_INF = -math.inf``:
only :func:`utility` returns it and nothing sums it, and it compares exactly
with every int and ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence, Union


def parse_int(text: str, name: str) -> int:
    """Parse an integer; ``name`` says what the text is in the error."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def parse_rational(text: str, name: str = "rational value") -> Fraction:
    """Parse "p/q" or "p" into an exact rational; ``name`` says what the text
    is in the error."""
    text = text.strip()
    num, sep, den = text.partition("/")
    try:
        q = int(den) if sep else 1
        if q != 0:
            return Fraction(int(num), q)
    except ValueError:
        raise ValueError(f"{name} must be p/q or an integer, got {text!r}") from None
    raise ValueError(f"zero denominator in {text!r}")


def rational_str(value: Fraction) -> str:
    """Render a rational as "p/q", always spelling out the denominator."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


NEG_INF = -math.inf

Utility = Union[Fraction, float]


@dataclass(frozen=True)
class LengthFunction:
    """Non-increasing map from cycle length to per-agent utility.

    ``values[0]`` is the utility of a 2-cycle, ``values[-1]`` of a k-cycle.
    All values are rationals in (0, 1].  The uniform function is constant 1;
    more generally any constant function behaves as uniform (scaling the
    values has no effect on approximation ratios).
    """

    k: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"length bound must be >= 2, got {self.k}")
        if len(self.values) != self.k - 1:
            raise ValueError(
                f"need {self.k - 1} values for lengths 2..{self.k}, "
                f"got {len(self.values)}"
            )
        coerced = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", coerced)
        for v in coerced:
            if not (0 < v <= 1):
                raise ValueError(f"length-function value {v} outside (0, 1]")
        for a, b in zip(coerced, coerced[1:]):
            if a < b:
                raise ValueError("length function must be non-increasing")

    @classmethod
    def uniform(cls, k: int) -> "LengthFunction":
        return cls(k=k, values=tuple(Fraction(1) for _ in range(k - 1)))

    @classmethod
    def of(cls, k: int, *values: object) -> "LengthFunction":
        parsed = tuple(
            parse_rational(v) if isinstance(v, str) else Fraction(v)  # type: ignore[arg-type]
            for v in values
        )
        return cls(k=k, values=parsed)

    def __call__(self, length: int) -> Fraction:
        if not 2 <= length <= self.k:
            raise ValueError(f"length {length} outside [2, {self.k}]")
        return self.values[length - 2]

    @property
    def is_uniform(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    def scaled(self, factor: Fraction) -> "LengthFunction":
        return LengthFunction(
            k=self.k, values=tuple(v * factor for v in self.values)
        )


@dataclass(frozen=True)
class WishListVector:
    """Reported (or true) wish lists of all n agents; the agent digraph.

    ``wish[i - 1]`` is agent i's wish list.  No self-wishes; every listed id
    is an ``int`` in [1, n].
    """

    n: int
    wish: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one agent")
        if len(self.wish) != self.n:
            raise ValueError(f"expected {self.n} wish lists, got {len(self.wish)}")
        normal = tuple(map(frozenset, self.wish))
        object.__setattr__(self, "wish", normal)
        agents = frozenset(range(1, self.n + 1))
        for i, w in enumerate(normal, start=1):
            if w <= agents and i not in w:
                continue
            if i in w:
                raise ValueError(f"agent {i} wishes for her own item")
            for j in w:
                if j not in agents:
                    raise ValueError(f"agent {i} wishes for unknown agent {j}")
        # an id equal to an agent but of another type (2.0, True) passes the
        # subset test; one pass over the ids' types catches it
        if not set(map(type, chain.from_iterable(normal))) <= {int}:
            for i, w in enumerate(normal, start=1):
                for j in w:
                    if type(j) is not int:
                        raise ValueError(
                            f"agent {i} wishes for {j!r}, which is not an int agent id"
                        )

    @classmethod
    def from_dict(cls, n: int, wishes: Mapping[int, Iterable[int]]) -> "WishListVector":
        lists = tuple(frozenset(wishes.get(i, ())) for i in range(1, n + 1))
        return cls(n=n, wish=lists)

    def of(self, agent: int) -> frozenset[int]:
        if not 1 <= agent <= self.n:
            raise ValueError(f"agent {agent} outside [1, {self.n}]")
        return self.wish[agent - 1]

    def with_wish(self, agent: int, new_wish: Iterable[int]) -> "WishListVector":
        """Replace agent's wish list (used when exploring reported subsets)."""
        lists = list(self.wish)
        lists[agent - 1] = frozenset(new_wish)
        return WishListVector(n=self.n, wish=tuple(lists))


@dataclass(frozen=True)
class TradingCycle:
    """A directed simple cycle of agents, stored in canonical rotation.

    The sequence is rotated so the smallest agent id comes first; two cycles
    are equal iff their canonical sequences are equal.  Orientation matters:
    (1, 2, 3) and (1, 3, 2) are different cycles.  The hash is computed once,
    as the value the dataclass would give, ``hash((agents,))``, so sets of
    cycles keep their iteration order.  ``length`` is set once too, outside
    the fields, so equality, hash and repr stay on ``agents``.
    """

    agents: tuple[int, ...]

    def __post_init__(self) -> None:
        agents = tuple(self.agents)
        if len(agents) < 2:
            raise ValueError("a trading cycle involves at least two agents")
        if len(set(agents)) != len(agents):
            raise ValueError(f"repeated agent in cycle {agents}")
        low = min(agents)
        if low < 1:
            raise ValueError("agent ids are positive")
        if agents[0] != low:
            pivot = agents.index(low)
            agents = agents[pivot:] + agents[:pivot]
        _fill(self, agents)

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def successor(self, agent: int) -> int:
        idx = self.agents.index(agent)
        return self.agents[(idx + 1) % len(self.agents)]

    def arcs(self) -> Iterator[tuple[int, int]]:
        for idx, a in enumerate(self.agents):
            yield (a, self.agents[(idx + 1) % len(self.agents)])

    def __repr__(self) -> str:
        return f"Cycle{self.agents}"


def _canonical_cycle(agents: tuple[int, ...]) -> TradingCycle:
    """``TradingCycle(agents)`` without re-running its checks.

    Precondition, which the caller guarantees and nothing here tests:
    ``agents`` is a tuple of at least two distinct positive ints whose first
    entry is the smallest, i.e. already in canonical rotation.  The cycle
    enumeration's walk makes only such tuples.
    """
    cycle = object.__new__(TradingCycle)
    _fill(cycle, agents)
    return cycle


def _fill(cycle: TradingCycle, agents: tuple[int, ...]) -> None:
    """Set ``cycle``'s canonical ``agents``, its hash and its length."""
    object.__setattr__(cycle, "agents", agents)
    object.__setattr__(cycle, "_hash", hash((agents,)))
    object.__setattr__(cycle, "length", len(agents))


def cycle_sort_key(cycle: TradingCycle) -> tuple[int, tuple[int, ...]]:
    """Default node order: by length, then canonical agent sequence."""
    return (cycle.length, cycle.agents)


@dataclass(frozen=True)
class Exchange:
    """A set of pairwise agent-disjoint trading cycles.

    Equivalently a bijection pi on [n] with pi(i) != i exactly for the
    partaking agents.
    """

    cycles: frozenset[TradingCycle] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", frozenset(self.cycles))
        seen: set[int] = set()
        for cycle in self.cycles:
            overlap = seen.intersection(cycle.agents)
            if overlap:
                raise ValueError(f"agents {sorted(overlap)} appear in two cycles")
            seen.update(cycle.agents)

    @classmethod
    def of(cls, *cycles: Sequence[int]) -> "Exchange":
        return cls(cycles=frozenset(TradingCycle(tuple(c)) for c in cycles))

    @property
    def partakers(self) -> frozenset[int]:
        out: set[int] = set()
        for cycle in self.cycles:
            out.update(cycle.agents)
        return frozenset(out)

    @property
    def length(self) -> int:
        """Maximum cycle length; 0 for the empty exchange."""
        return max((c.length for c in self.cycles), default=0)

    def pi(self, agent: int) -> int:
        for cycle in self.cycles:
            if agent in cycle.agents:
                return cycle.successor(agent)
        return agent

    def cycle_of(self, agent: int) -> TradingCycle | None:
        for cycle in self.cycles:
            if agent in cycle.agents:
                return cycle
        return None


def respects(exchange: Exchange, wishes: WishListVector) -> bool:
    """True iff every arc (i, pi(i)) of the exchange is a wished arc."""
    for agent in exchange.partakers:
        if not 1 <= agent <= wishes.n:
            raise ValueError(f"agent {agent} outside [1, {wishes.n}]")
    for cycle in exchange.cycles:
        for i, j in cycle.arcs():
            if j not in wishes.of(i):
                return False
    return True


def utility(
    agent: int,
    exchange: Exchange,
    true_wishes: WishListVector,
    lam: LengthFunction,
) -> Utility:
    """Utility of one agent: 0 if she keeps her item, lambda(len) if she
    receives a wished item, minus infinity if she receives a non-wished one.

    Exchanges containing a cycle longer than the length bound are rejected
    outright; no utility is defined for them.
    """
    if exchange.length > lam.k:
        raise ValueError(
            f"exchange has a cycle of length {exchange.length} > bound {lam.k}"
        )
    cycle = exchange.cycle_of(agent)
    if cycle is None:
        return Fraction(0)
    if cycle.successor(agent) in true_wishes.of(agent):
        return lam(cycle.length)
    return NEG_INF


def social_welfare(
    exchange: Exchange, wishes: WishListVector, lam: LengthFunction
) -> Fraction:
    """Sum of len(c) * lambda(len(c)) over the trading cycles.

    Defined only for respecting exchanges (otherwise some utility is minus
    infinity and the sum is meaningless).
    """
    if exchange.length > lam.k:
        raise ValueError(
            f"exchange has a cycle of length {exchange.length} > bound {lam.k}"
        )
    if not respects(exchange, wishes):
        raise ValueError("welfare undefined: exchange does not respect the wishes")
    return sum(
        (Fraction(c.length) * lam(c.length) for c in exchange.cycles),
        start=Fraction(0),
    )
