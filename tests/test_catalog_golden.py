"""Every catalog mechanism's outputs, pinned in a golden file.

``tests/golden/catalog-outputs.json`` holds 48 random instances: k in
{3, 4}; uniform, flat, steep and mixed-denominator length functions; six
seeds each, every graph built in a seeded shuffled node order.  For each
instance and mechanism it records the output and the ``SearchStats``
firings on the whole graph and on the graph with each agent's nodes
removed.  A change to a rule, a solver, ``concatenate``, a restriction or a
tie-break that moves one output or one firing count fails here.

The file is data, not a second implementation.  To rewrite it after an
intended change of outputs:

    PYTHONPATH=src python tests/test_catalog_golden.py > tests/golden/catalog-outputs.json
"""

import json
import random
import sys
from pathlib import Path

from bxmech.core import LengthFunction
from bxmech.cyclegraph import build_graph
from bxmech.instances import gen_random
from bxmech.localsearch import SearchStats
from bxmech.mechanisms import (
    broken_swap_algorithm,
    greedy_mechanism,
    io_mechanism,
    ls_mechanism,
    nu_mechanism,
    opt_mechanism,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog-outputs.json"

LAMBDAS = {
    3: {
        "uniform": ("1", "1"),
        "flat": ("1", "9/10"),
        "steep": ("1", "1/2"),
        "mixed": ("5/6", "3/7"),
    },
    4: {
        "uniform": ("1", "1", "1"),
        "flat": ("1", "9/10", "9/10"),
        "steep": ("1", "1/2", "1/4"),
        "mixed": ("1", "2/3", "3/7"),
    },
}
DENSITY = {3: 0.5, 4: 0.4}


def instances():
    """(name, graph) for every golden instance."""
    for k, kinds in LAMBDAS.items():
        for i, (kind, values) in enumerate(kinds.items()):
            lam = LengthFunction.of(k, *values)
            for seed in range(10 * i, 10 * i + 6):
                n = 6 + seed % 4
                graph = gen_random(n, k, DENSITY[k], seed, lam=lam).graph()
                order = list(graph.nodes)
                random.Random(seed).shuffle(order)
                name = f"k={k} lambda={kind} n={n} seed={seed}"
                yield name, build_graph(order, n, lam, node_order=order)


def mechanisms(graph):
    uniform = graph.lam.is_uniform
    out = [greedy_mechanism()]
    out += [ls_mechanism(q) if uniform else nu_mechanism(q) for q in (1, 2)]
    out.append(io_mechanism())
    out += [opt_mechanism(ell) for ell in range(2, graph.k + 1)]
    out += [broken_swap_algorithm(q) for q in (1, 2)]
    return out


def run(mechanism, graph):
    """The output (cycles in canonical order) and firings of one solve."""
    stats = SearchStats()
    chosen = graph.nodes_of(mechanism.solve(graph, stats))
    cycles = " ".join(sorted("-".join(map(str, v.agents)) for v in chosen))
    firings = " ".join(f"{rule}={count}" for rule, count in sorted(stats.firings.items()))
    return [cycles, firings]


def catalog_outputs():
    entries = []
    for name, graph in instances():
        graphs = [graph] + [
            graph.remove_nodes(graph.agent_mask(agent)) for agent in range(1, graph.n + 1)
        ]
        for mechanism in mechanisms(graph):
            entries.append(
                {
                    "instance": name,
                    "mechanism": mechanism.name,
                    "whole_then_without_each_agent": [run(mechanism, g) for g in graphs],
                }
            )
    return entries


def test_catalog_outputs_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = catalog_outputs()
    assert len(actual) == len(expected)
    changed = [
        f"{want['instance']} / {want['mechanism']}"
        for got, want in zip(actual, expected)
        if got != want
    ]
    assert not changed, f"{len(changed)} entries changed, first: {changed[:5]}"


if __name__ == "__main__":
    entries = catalog_outputs()
    sys.stdout.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
