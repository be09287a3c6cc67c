"""Exact expected ticks of absorbing chains, each a dense solve on ``walks.first_step_ticks``:
the meeting table is one operator on n(n-1) unknowns (n to about 60), a protocol's convergence
time spans the states its starts reach (line(7) binary: 2.9k). Reducible walks are rejected."""

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
    """Expected ticks M[a, b] until tokens from a and b meet, under the per-tick law of
    ``walks.sample_pair_meetings`` (Coppersmith, Tetali and Winkler, 1993): with P the biased
    walk off its diagonal and r its row sums, (D∘M - PM - MP)[a, b] = 1 for a != b, where
    D[a, b] is r_a + r_b - P[a, b] ("X") or min(1, r_a + r_b) ("Xprime"), and M[a, a] = 0."""
    check_coupling(coupling)
    m = transition_matrix(g, "biased")
    _require_irreducible(m)
    n, p = g.n, m.p - np.diag(np.diag(m.p))
    r = p.sum(axis=1)
    d = r[:, None] + r - p if coupling == "X" else np.minimum(1.0, r[:, None] + r)
    a = np.zeros((n, n, n, n))  # a[x, y, v, w]: the weight of M[v, w] in (x, y)'s equation
    for z in range(n):  # P⊗I moves the token at x to v, I⊗P the token at y to w
        a[:, z, :, z] = a[z, :, z, :] = -p  # they share only a[z, z, z, z] = -p[z, z] = 0
    off = ~np.eye(n, dtype=bool)
    a = a[off]  # two steps, so that the n^4 array is freed before the second copy
    a = a[:, off]
    a.flat[::len(a) + 1] += d[off]  # a is diag(vec D) - P⊗I - I⊗P on the unknowns
    t = np.zeros((n, n))
    t[off] = first_step_ticks(a, "meeting-time")
    return t


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
