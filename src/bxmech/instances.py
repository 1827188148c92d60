"""Instance generators and the bx-v1 on-disk format.

Generators cover the adversarial families used throughout the test
harness:

* ``comb`` / ``double comb``: one (resp. two fused) short horizontal cycles
  of black agents, each black agent also riding a long vertical cycle; any
  truthful mechanism is forced onto the horizontal cycle, which costs it
  welfare when the length function drops.
* ``gbad``: a chain of q+1 pairwise disjoint "blue" triangles interleaved
  with 2q+3 disjoint "red" triangles arranged so that the q-swap local
  search stalls on the blue set at ratio 2 + 1/(q+1).
* ``fan`` / ``ladder``: all-length-k graphs with an injected node order; the
  fan pins k-1 disjoint cycles behind one crossing cycle, and the ladder
  extends it with a long two-anchor corridor on which a non-loyal swap rule
  is steerable (the known-bad specimen the fuzzers must catch).
* ``nonrealizable``: a direct cycle graph that provably corresponds to no
  wish-list vector.
* ``rand``: seeded Bernoulli agent digraphs.

The wish lists of the comb, double comb, fan and ladder are the arcs of
their trading cycles, through :func:`implied_wishes`.

Instances serialize to canonical JSON (sorted keys, rationals as "p/q"
strings, never floats), so generated fixtures are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path
from random import Random
from typing import Mapping, Sequence

from .canonical import canonical_json
from .core import (
    LengthFunction,
    TradingCycle,
    WishListVector,
    parse_rational,
    rational_str,
)
from .cyclegraph import CycleGraph, build_from_wishes, build_graph, enumerate_cycles

FORMAT_TAG = "bx-v1"


@dataclass(frozen=True)
class InstanceBundle:
    """A named instance: either an agent digraph or a direct cycle graph.

    ``expected`` carries closed-form values from the construction (welfare
    of marker exchanges, optimum weight, counts); tests re-verify them
    against the oracle rather than trusting them.
    """

    name: str
    n: int
    lam: LengthFunction
    wishes: WishListVector | None = None
    direct_nodes: tuple[TradingCycle, ...] | None = None
    node_order: tuple[TradingCycle, ...] | None = None
    expected: Mapping[str, Mapping[str, str]] | None = None
    params: Mapping[str, object] | None = None
    _graph: CycleGraph | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.wishes is None) == (self.direct_nodes is None):
            raise ValueError("exactly one of wishes / direct_nodes must be given")
        if self.wishes is not None and self.wishes.n != self.n:
            raise ValueError("wish-list agent count disagrees with n")

    @property
    def k(self) -> int:
        return self.lam.k

    def graph(self) -> CycleGraph:
        """The conflict graph, built on the first call and shared after it
        (graphs are immutable)."""
        if self._graph is None:
            if self.wishes is not None:
                graph = build_from_wishes(self.wishes, self.lam, self.node_order)
            else:
                graph = build_graph(self.direct_nodes, self.n, self.lam, self.node_order)
            object.__setattr__(self, "_graph", graph)
        return self._graph


def _expect(**entries: tuple[object, str]) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for key, (value, basis) in entries.items():
        text = rational_str(value) if isinstance(value, Fraction) else str(value)
        out[key] = {"value": text, "basis": basis}
    return out


def _lam_for(k: int, lam: LengthFunction | None) -> LengthFunction:
    """A generator's length function: ``lam`` (uniform if None) of bound k."""
    lam = lam or LengthFunction.uniform(k)
    if lam.k != k:
        raise ValueError("length function bound disagrees with k")
    return lam


def implied_wishes(nodes: Sequence[TradingCycle], n: int) -> WishListVector:
    """The minimal wish-list vector under which every node cycle respects
    the wishes: exactly the arcs the cyclic orders force."""
    wishes: dict[int, set[int]] = {}
    for node in nodes:
        for a, b in node.arcs():
            wishes.setdefault(a, set()).add(b)
    return WishListVector.from_dict(n, wishes)


# ---------------------------------------------------------------------------
# comb family


def _verticals(blacks: int, v: int) -> list[TradingCycle]:
    """Each black agent 1..blacks on its own v-cycle through v-1 white
    agents, numbered column by column after the blacks."""
    first = blacks + 1
    return [
        TradingCycle((b, *range(first + (b - 1) * (v - 1), first + b * (v - 1))))
        for b in range(1, blacks + 1)
    ]


def _check_comb(h: int, v: int, k: int, lam: LengthFunction) -> None:
    if not 2 <= h < v <= k:
        raise ValueError(f"need 2 <= h < v <= k, got h={h} v={v} k={k}")
    _lam_for(k, lam)
    if not lam(v) < lam(h):
        raise ValueError(f"need lambda({v}) < lambda({h})")


def _comb_wishes(h: int, v: int) -> WishListVector:
    return implied_wishes([comb_horizontal_cycle(h)] + _verticals(h, v), h * v)


def comb_horizontal_cycle(h: int) -> TradingCycle:
    return TradingCycle(tuple(range(1, h + 1)))


def gen_comb(h: int, v: int, k: int, lam: LengthFunction) -> InstanceBundle:
    """h black agents on one horizontal h-cycle, each also on a private
    vertical v-cycle through v-1 white agents."""
    _check_comb(h, v, k, lam)
    wishes = _comb_wishes(h, v)
    expected = _expect(
        horizontal_welfare=(Fraction(h) * lam(h), "h * lambda(h)"),
        all_vertical_welfare=(Fraction(h * v) * lam(v), "h * v * lambda(v)"),
        cycle_count=(h + 1, "1 horizontal + h vertical"),
    )
    return InstanceBundle(
        name=f"comb-h{h}-v{v}-k{k}",
        n=h * v,
        lam=lam,
        wishes=wishes,
        expected=expected,
        params={"h": h, "v": v},
    )


def comb_script(h: int, v: int) -> list[WishListVector]:
    """Deviation script W^0..W^h: in W^i the black agents 1..i report only
    their outgoing horizontal arc."""
    truthful = _comb_wishes(h, v)
    out = [truthful]
    current = truthful
    for i in range(1, h + 1):
        current = current.with_wish(i, {i % h + 1})
        out.append(current)
    return out


# ---------------------------------------------------------------------------
# double comb


def _double_comb_wishes(h: int, v: int) -> WishListVector:
    # l_1..l_h are 1..h, r_1..r_{h-1} are h+1..2h-1; the left cycle is the
    # comb's horizontal one
    blacks = 2 * h - 1
    cycles = [comb_horizontal_cycle(h), double_comb_right_cycle(h)]
    return implied_wishes(cycles + _verticals(blacks, v), blacks * v)


def double_comb_right_cycle(h: int) -> TradingCycle:
    return TradingCycle((h,) + tuple(range(h + 1, 2 * h)))


def gen_double_comb(h: int, v: int, k: int, lam: LengthFunction) -> InstanceBundle:
    """Two horizontal h-cycles sharing one black agent, every black agent
    also on a private vertical v-cycle."""
    _check_comb(h, v, k, lam)
    wishes = _double_comb_wishes(h, v)
    expected = _expect(
        all_vertical_welfare=(
            Fraction((2 * h - 1) * v) * lam(v),
            "(2h-1) * v * lambda(v)",
        ),
        mixed_welfare=(
            Fraction((h - 1) * v) * lam(v) + Fraction(h) * lam(h),
            "(h-1) leftmost verticals plus the right horizontal cycle",
        ),
        horizontal_welfare=(Fraction(h) * lam(h), "a single horizontal cycle"),
        cycle_count=(2 * h + 1, "2 horizontal + 2h-1 vertical"),
    )
    return InstanceBundle(
        name=f"dcomb-h{h}-v{v}-k{k}",
        n=(2 * h - 1) * v,
        lam=lam,
        wishes=wishes,
        expected=expected,
        params={"h": h, "v": v},
    )


def double_comb_script(h: int, v: int) -> list[WishListVector]:
    """Deviation script W^0..W^{h-1}: in W^i the right-side black agents
    r_1..r_i report only their outgoing arc to the next black agent."""
    truthful = _double_comb_wishes(h, v)
    out = [truthful]
    current = truthful
    for i in range(1, h):
        r_i = h + i
        target = h + i + 1 if i < h - 1 else h
        current = current.with_wish(r_i, {target})
        out.append(current)
    return out


# ---------------------------------------------------------------------------
# the local-search tightness chain (k = 3)


def gen_gbad(q: int) -> InstanceBundle:
    """Chain of q+1 blue triangles and 2q+3 red triangles over 6q+9 agents.

    Blue triangle i owns agents 3i+1..3i+3.  The red triangles partition the
    whole agent set: red 2i+1 holds the middle agent of blue i, red 2i holds
    the last agent of blue i-1 and the first of blue i, and the two end reds
    hold one end agent each; private agents pad every red to length 3.  With
    this numbering the expansion rule collects exactly the blue set, and no
    loyal swap of at most q blue nodes can cover the evicted agents, so the
    q-swap search stalls at weight 3(q+1) against an optimum of 3(2q+3).
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    k = 3
    lam = LengthFunction.uniform(k)
    blues = [TradingCycle((3 * i + 1, 3 * i + 2, 3 * i + 3)) for i in range(q + 1)]
    blue_slots: dict[int, list[int]] = {j: [] for j in range(2 * q + 3)}
    blue_slots[0].append(1)
    for i in range(q + 1):
        blue_slots[2 * i + 1].append(3 * i + 2)
    for i in range(1, q + 1):
        blue_slots[2 * i].extend([3 * i, 3 * i + 1])
    blue_slots[2 * q + 2].append(3 * q + 3)
    reds = []
    next_private = 3 * (q + 1) + 1
    for j in range(2 * q + 3):
        agents = list(blue_slots[j])
        while len(agents) < 3:
            agents.append(next_private)
            next_private += 1
        reds.append(TradingCycle(tuple(agents)))
    n = 6 * q + 9
    assert next_private == n + 1
    ratio = Fraction(2) + Fraction(1, q + 1)
    expected = _expect(
        stalled_weight=(Fraction(3 * (q + 1)), "blue set: 3(q+1)"),
        optimum_weight=(Fraction(3 * (2 * q + 3)), "red set: 3(2q+3)"),
        ls_ratio=(ratio, "2 + 1/(q+1)"),
        agents=(n, "6q+9"),
    )
    return InstanceBundle(
        name=f"gbad-q{q}",
        n=n,
        lam=lam,
        direct_nodes=tuple(blues + reds),
        expected=expected,
        params={"q": q},
    )


def gbad_blue_set(q: int) -> frozenset[TradingCycle]:
    return frozenset((gen_gbad(q).direct_nodes or ())[: q + 1])


def gbad_red_set(q: int) -> frozenset[TradingCycle]:
    bundle = gen_gbad(q)
    return frozenset((bundle.direct_nodes or ())[q + 1 :])


# ---------------------------------------------------------------------------
# fan and ladder (all cycles of length exactly k, injected node order)


def _fan_parts(k: int) -> tuple[list[TradingCycle], int]:
    """Pin cycle plus k-1 teeth; returns (cycles, next free agent id).

    The pivot is agent 1; tooth anchors are agents 2..k and sit on both the
    pin cycle and their own tooth.
    """
    anchors = range(2, k + 1)
    cycles = [TradingCycle((1, *anchors))]
    nxt = k + 1
    for anchor in anchors:
        cycles.append(TradingCycle((anchor, *range(nxt, nxt + k - 1))))
        nxt += k - 1
    return cycles, nxt


def gen_fan(k: int, lam: LengthFunction | None = None) -> InstanceBundle:
    """One pin cycle crossing k-1 otherwise disjoint teeth, all of length k.

    Node order puts the pin first, so expansion-only search starts by
    grabbing it and blocks every tooth.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    lam = _lam_for(k, lam)
    cycles, nxt = _fan_parts(k)
    n = nxt - 1
    wishes = implied_wishes(cycles, n)
    expected = _expect(
        agents=(n, "k(k-1)+1"),
        cycle_count=(k, "pin + (k-1) teeth"),
        pinned_weight=(Fraction(k) * lam(k), "the pin cycle alone"),
        optimum_weight=(
            Fraction((k - 1) * k) * lam(k),
            "all k-1 teeth",
        ),
    )
    return InstanceBundle(
        name=f"fan-k{k}",
        n=n,
        lam=lam,
        wishes=wishes,
        node_order=tuple(cycles),
        expected=expected,
        params={"k": k},
    )


def gen_ladder(k: int, big_n: int, lam: LengthFunction | None = None) -> InstanceBundle:
    """The fan extended with a 2N-block corridor between two anchor cycles.

    The pivot agent sits on both the pin cycle and the left anchor ``b``.
    Node order: pin, teeth, b, then the corridor blocks left to right
    (row-major inside a block), and the right anchor ``a`` last.  An
    expansion-plus-non-loyal-swap search run on this order strands the pivot
    agent, while hiding the pin node gets her served: the fuzz harness must
    find that.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    if big_n < 1:
        raise ValueError(f"need N >= 1, got {big_n}")
    lam = _lam_for(k, lam)
    order, nxt = _fan_parts(k)
    row_len = 2 * big_n * (k - 1) + 1
    rows = [range(nxt + r * row_len, nxt + (r + 1) * row_len) for r in range(k - 1)]
    n = nxt + (k - 1) * row_len  # the right anchor's own agent comes last
    order.append(TradingCycle((1, *(row[0] for row in rows))))  # b
    for m in range(0, row_len - 1, k - 1):  # corridor blocks, left to right
        order.extend(TradingCycle(tuple(row[m : m + k])) for row in rows)
    order.append(TradingCycle((n, *(row[-1] for row in rows))))  # a
    wishes = implied_wishes(order, n)
    expected = _expect(
        agents=(n, "(k-1)(k+1+2N(k-1))+2"),
        cycle_count=(k + 2 + 2 * big_n * (k - 1), "pin+teeth+anchors+corridor"),
    )
    assert n == (k - 1) * (k + 1 + 2 * big_n * (k - 1)) + 2
    return InstanceBundle(
        name=f"ladder-k{k}-N{big_n}",
        n=n,
        lam=lam,
        wishes=wishes,
        node_order=tuple(order),
        expected=expected,
        params={"k": k, "N": big_n},
    )


# ---------------------------------------------------------------------------
# a direct cycle graph corresponding to no wish-list vector


def gen_nonrealizable() -> InstanceBundle:
    """Three pairwise overlapping 2-cycles on agents 1..3 plus a disjoint
    triangle; the implied arcs force the 3-cycle (1,2,3), which is not a
    node, so no wish-list vector generates exactly this graph."""
    nodes = (
        TradingCycle((1, 2)),
        TradingCycle((2, 3)),
        TradingCycle((1, 3)),
        TradingCycle((4, 5, 6)),
    )
    return InstanceBundle(
        name="nonrealizable",
        n=6,
        lam=LengthFunction.uniform(3),
        direct_nodes=nodes,
        expected=_expect(realizable=(0, "implied arcs force cycle (1,2,3)")),
    )


def is_wishlist_realizable(
    nodes: Sequence[TradingCycle], n: int, k: int
) -> bool:
    """Whether some wish-list vector generates exactly this node set.

    Every candidate vector must contain the arcs implied by the nodes, and
    adding arcs never removes cycles, so realizability reduces to one check:
    the implied arcs alone must generate no extra cycle.
    """
    implied = implied_wishes(nodes, n)
    return set(enumerate_cycles(implied, k)) == set(nodes)


# ---------------------------------------------------------------------------
# random instances


def gen_random(
    n: int,
    k: int,
    p: float,
    seed: int,
    lam: LengthFunction | None = None,
) -> InstanceBundle:
    """Each ordered pair (i, j), i != j, becomes an arc independently with
    probability p; deterministic for a fixed seed."""
    if n < 2:
        raise ValueError(f"need at least 2 agents, got {n}")
    if not 0 <= float(p) <= 1:
        raise ValueError(f"arc density must lie in [0, 1], got {p}")
    lam = _lam_for(k, lam)
    rng = Random(seed)
    wishes: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < float(p):
                wishes[i].add(j)
    return InstanceBundle(
        name=f"rand-n{n}-k{k}-p{p}-s{seed}",
        n=n,
        lam=lam,
        wishes=WishListVector.from_dict(n, wishes),
        params={"n": n, "p": p, "seed": seed},
    )


# ---------------------------------------------------------------------------
# bx-v1 serialization


def bundle_to_json_dict(bundle: InstanceBundle) -> dict:
    doc: dict[str, object] = {
        "format": FORMAT_TAG,
        "name": bundle.name,
        "n": bundle.n,
        "k": bundle.k,
        "lambda": [rational_str(v) for v in bundle.lam.values],
        "wishes": None,
        "direct_nodes": None,
        "node_order": None,
        "expected": None,
        "params": None,
    }
    if bundle.wishes is not None:
        doc["wishes"] = [sorted(bundle.wishes.of(i)) for i in range(1, bundle.n + 1)]
    if bundle.direct_nodes is not None:
        doc["direct_nodes"] = [list(c.agents) for c in bundle.direct_nodes]
    if bundle.node_order is not None:
        doc["node_order"] = [list(c.agents) for c in bundle.node_order]
    if bundle.expected is not None:
        doc["expected"] = {
            key: dict(entry) for key, entry in sorted(bundle.expected.items())
        }
    if bundle.params is not None:
        doc["params"] = {key: value for key, value in sorted(bundle.params.items())}
    return doc


def bundle_to_text(bundle: InstanceBundle) -> str:
    return canonical_json(bundle_to_json_dict(bundle)) + "\n"


def save_instance(bundle: InstanceBundle, path: str | Path) -> None:
    Path(path).write_text(bundle_to_text(bundle), encoding="utf-8")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(doc: Mapping, key: str) -> int:
    if key not in doc:
        raise ValueError(f"instance has no {key!r} field")
    value = doc[key]
    if not _is_int(value):
        raise ValueError(f"instance field {key!r} must be an integer, got {value!r}")
    return value


_INT = {int}


def _int_lists_field(doc: Mapping, key: str) -> list[list[int]] | None:
    rows = doc.get(key)
    if rows is not None and not (
        isinstance(rows, list)
        and all(isinstance(row, list) for row in rows)
        # one type test over all ids; bool, a subclass of int, is not int
        and set(map(type, chain.from_iterable(rows))) <= _INT
    ):
        raise ValueError(f"instance field {key!r} must be a list of integer lists")
    return rows


def bundle_from_json_dict(doc: Mapping) -> InstanceBundle:
    """The bundle of a parsed bx-v1 document; a document of the wrong shape
    raises ValueError."""
    if not isinstance(doc, Mapping):
        raise ValueError(
            f"an instance must be a JSON object, got {type(doc).__name__}"
        )
    if doc.get("format") != FORMAT_TAG:
        raise ValueError(f"unsupported instance format {doc.get('format')!r}")
    n = _int_field(doc, "n")
    k = _int_field(doc, "k")
    values = doc.get("lambda")
    if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
        raise ValueError("instance field 'lambda' must be a list of rational strings")
    lam = LengthFunction(
        k=k, values=tuple(parse_rational(v, "lambda value") for v in values)
    )
    wishes = None
    rows = _int_lists_field(doc, "wishes")
    if rows is not None:
        wishes = WishListVector(n=n, wish=tuple(map(frozenset, rows)))
    direct = None
    rows = _int_lists_field(doc, "direct_nodes")
    if rows is not None:
        direct = tuple(TradingCycle(tuple(c)) for c in rows)
    order = None
    rows = _int_lists_field(doc, "node_order")
    if rows is not None:
        order = tuple(TradingCycle(tuple(c)) for c in rows)
    expected = doc.get("expected")
    params = doc.get("params")
    if params is not None and not isinstance(params, Mapping):
        raise ValueError("instance field 'params' must be an object or null")
    return InstanceBundle(
        name=str(doc.get("name", "unnamed")),
        n=n,
        lam=lam,
        wishes=wishes,
        direct_nodes=direct,
        node_order=order,
        expected=expected,
        params=params,
    )


def load_instance(path: str | Path) -> InstanceBundle:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    bundle = bundle_from_json_dict(doc)
    bundle.graph()  # structural validation: the graph must build
    return bundle
