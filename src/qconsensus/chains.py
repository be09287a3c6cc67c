"""Exact expected ticks of the absorbing chains that the Monte Carlo means estimate: one
enumerate-and-solve over the states reachable from the starts, on ``walks.first_step_ticks``.
Both laws reject a reducible walk, from which some start would never absorb. The solve is
dense, which limits n: line(7) binary reaches about 2.9k states."""

from __future__ import annotations

import numpy as np

from .consensus import (BinaryState, QuantizedState, binary_converged, binary_update,
                        check_protocol, check_state, quantized_converged, quantized_update)
from .graphs import Graph
from .walks import _require_irreducible, check_coupling, first_step_ticks, transition_matrix


def _expected_ticks(starts: list, moves, done, what: str) -> np.ndarray:
    """Expected ticks to absorption from each start, 0 with no solve where ``done`` holds;
    ``moves(state)`` lists (next state, probability) pairs, the state itself included."""
    index_of: dict = {}  # a transient state's row of Q, or -1 for an absorbed state
    rows = []
    stack = list(starts)
    while stack:
        state = stack.pop()
        if state not in index_of:
            index_of[state] = -1 if done(state) else len(rows)
            if index_of[state] >= 0:
                rows.append(moves(state))
                stack.extend(nxt for nxt, _ in rows[-1])
    a = np.eye(len(rows))
    for i, row in enumerate(rows):
        for nxt, p in row:
            if index_of[nxt] >= 0:
                a[i, index_of[nxt]] -= p
    t = np.append(first_step_ticks(a, what) if rows else [], 0.0)  # t[-1]: absorbed
    return t[[index_of[state] for state in starts]]


def meeting_table(g: Graph, coupling: str) -> np.ndarray:
    """Expected ticks until two tokens meet, from every pair of start nodes: the
    per-tick law of ``walks.sample_pair_meetings`` over ordered pairs (Coppersmith,
    Tetali and Winkler, "Collisions among random walks on a graph", 1993), with p_uv
    the biased walk's entries and r_u = sum_v p_uv."""
    check_coupling(coupling)
    m = transition_matrix(g, "biased")
    _require_irreducible(m)
    p, r = m.p, 1.0 - np.diag(m.p)  # p off the diagonal, and r_u = sum_v p_uv

    def moves(state):
        a, b = state
        p_join = p[a, b]
        meet = p_join if coupling == "X" else min(1.0, r[a] + r[b]) - r[a] - r[b] + 2 * p_join
        return ([((b, b), meet), (state, 1.0 - meet - (r[a] - p_join) - (r[b] - p_join))]
                + [((v, b), p[a, v]) for v in g.adjacency[a] if v != b]
                + [((a, w), p[b, w]) for w in g.adjacency[b] if w != a])

    pairs = [(x, y) for x in range(g.n) for y in range(g.n)]
    return _expected_ticks(pairs, moves, lambda s: s[0] == s[1], "meeting-time").reshape(g.n, g.n)


def convergence_ticks(g: Graph, protocol: str, starts) -> np.ndarray:
    """Expected ticks until ``protocol`` converges on ``g`` from each start, a sequence of
    node values. A tick applies the update rule to the directed edge (u, v) with the
    natural walk's P[u][v] = 1/(n deg u), the tick law of ``graphs.tick_edges``."""
    check_protocol(protocol)
    make, update, converged = {
        "binary": (BinaryState.from_opinions, binary_update, binary_converged),
        "quantized": (QuantizedState.from_values, quantized_update, quantized_converged),
    }[protocol]
    starts = [tuple(start) for start in starts]
    for start in starts:
        check_state(protocol, g, make(start))
    m = transition_matrix(g, "natural")
    _require_irreducible(m)
    edges = [(u, v, m.p[u, v]) for u in range(g.n) for v in g.adjacency[u]]

    def moves(state):
        out = []
        for u, v, p in edges:
            nxt = list(state)
            nxt[u], nxt[v] = update(state[u], state[v])
            out.append((tuple(nxt), p))
        return out

    return _expected_ticks(starts, moves, lambda state: converged(make(state)), "convergence-time")
