"""The two asynchronous pairwise protocols and their convergence dynamics.

Binary voting: node states are strong/weak signed opinions encoded as
+2/-2/+1/-1. When an edge activates, opposite strong opinions annihilate
into weak ones, a strong opinion converts an opposing weak one while moving
across the edge, and equal-magnitude pairs swap. The signed strong surplus
(#S+ - #S-) is conserved, so the surviving sign is the initial majority.

Quantized averaging: node states are integers. An activated edge moves one
unit from the larger value to the smaller when they differ by at least two
(a non-trivial exchange), otherwise the two values swap. The sum is
conserved; with sum = q*n + r (0 <= r < n) the protocol converges when
every value lies in {q, q+1}.

One tick = one edge activation, drawn by the tick law that
``graphs.tick_edges`` states. The per-tick steppers
(``binary_step``/``quantized_step``) are its scalar reference, which every
kernel is tested against, tick for tick.

``run_to_convergence`` runs one kernel per protocol, traced or not. A run
keeps one integer counter: binary's ``packed`` = #positive + (n + 1) *
#annihilations, quantized's ``off``, the number of values outside
{q, q + 1}. It has converged exactly when the counter equals one of the
protocol's end values: binary's all-negative (n + 1) * s_plus and
all-positive n + (n + 1) * s_minus, for the strong counts at the start (a
sign has no opinion left once all its strong ones are annihilated), and
quantized's 0. A kernel is a ``step(limit)`` that runs at most ``limit``
ticks, stops on the tick its counter reaches an end value, and returns
(ticks run, the counter, the trace rows due inside the call: the row of
each multiple of the stride into the run that it reaches without
converging). ``_run_kernel`` alone
decides when a run is over: it calls ``step`` until the counter is an end
value or the budget is spent, in calls of at most _CHUNK ticks and
_TRACE_ROWS rows, and computes a traced run's first and last rows with the
protocol's ``row(tick, counter)`` from the state a call leaves.

The compiled step runs ``ckernel``'s C loop on a C copy of the state,
copied back after each call. The loop draws from the generator's own
``bitgen_t``, stepping its PCG64 state inline, and leaves it exactly
2 * ticks floats past the run's start. The library is built on the first
run into ``__pycache__/qckernel-<hash>.so`` beside this module. The numpy
batch step runs instead for a generator whose bit generator is not exactly
``np.random.PCG64``, when no library can be built or loaded (no ``cc``, a
compile error, an unwritable cache, draws that differ from numpy's), and
for a quantized value of magnitude 2**62 or more, which a C ``int64``
cannot hold with room for a difference. It discards the draws of its last
batch past the run's end, so there the generator's position after a run is
unspecified. Both give the same ticks, states and traces from one stream; a
quantized row repeats ``lyapunov``'s float operations in their order.

A state holds only its node values, tick and conserved sum: counts are
computed from the values, and each kernel keeps its own counter for a run.
"""

from __future__ import annotations

from array import array
from ctypes import addressof
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import count
from operator import index

import numpy as np

from . import ckernel
from .graphs import Graph, csr, require_neighbors, require_tick_budget, tick_edges
from .rows import data_lines, open_out, write_trace_rows

STRONG_POS = 2
STRONG_NEG = -2
WEAK_POS = 1
WEAK_NEG = -1
OPINION_VALUES = (STRONG_POS, STRONG_NEG, WEAK_POS, WEAK_NEG)
_OPINIONS = frozenset(OPINION_VALUES)
PROTOCOLS = ("binary", "quantized")

_FIRST_BATCH = 64
_MAX_BATCH = 8192
# Ticks per kernel call at most: the limit of a compiled call stays inside
# int64 (ctypes would silently keep only the low 64 bits of a larger one),
# and Ctrl-C acts between calls.
_CHUNK = 1 << 24
# Trace rows per kernel call at most: the size of a traced run's row buffer.
_TRACE_ROWS = 4096
# A traced compiled quantized run whose values span fewer than this many integers
# memoises each value's lyapunov() term: at most 512 KiB of doubles.
_SQUARES_SPAN = 1 << 16
_C_VALUE_LIMIT = 1 << 62


def _integers(entries, what: str) -> list[int]:
    """``entries`` as Python ints through ``operator.index``, the rule ``graphs`` applies to
    edge ends: a numpy integer passes, and a float such as 2.7 or 2.0 is a ValueError that
    names the first entry that is not an integer."""
    entries = entries if isinstance(entries, (list, tuple)) else list(entries)
    try:
        return list(map(index, entries))
    except TypeError:
        for entry in entries:
            try:
                index(entry)
            except TypeError:
                raise ValueError(f"{what} {entry!r} is not an integer") from None
        raise


def binary_update(a: int, b: int) -> tuple[int, int]:
    """Apply the pairwise voting rules to opinions (a, b); total on all 16 pairs.

    Equal opinions are unchanged; exact opposites both turn weak (keeping
    their partner's sign); a strong opinion meeting a weak one moves across
    the edge and leaves a weak copy of its own sign behind.
    """
    if a == b:
        return a, b
    if a == -b:
        sa = 1 if a > 0 else -1
        return -sa, sa
    if a == STRONG_POS or a == STRONG_NEG:
        sa = 1 if a > 0 else -1
        return sa, a
    sb = 1 if b > 0 else -1
    return b, sb


def quantized_update(a: int, b: int) -> tuple[int, int]:
    """One unit toward the mean when |a-b| >= 2, otherwise a swap."""
    if a - b >= 2:
        return a - 1, b + 1
    if b - a >= 2:
        return a + 1, b - 1
    return b, a


@dataclass
class BinaryState:
    """Mutable protocol state: one opinion per node and the ticks run so far."""

    opinions: list[int]
    tick: int = 0

    @classmethod
    def from_opinions(cls, opinions) -> "BinaryState":
        opinions = _integers(opinions, "opinion value")
        if not _OPINIONS.issuperset(opinions):
            bad = next(o for o in opinions if o not in _OPINIONS)
            raise ValueError(f"invalid opinion value {bad!r}")
        return cls(opinions)

    @property
    def n(self) -> int:
        return len(self.opinions)

    @property
    def counts(self) -> tuple[int, int, int, int]:
        """(#S+, #S-, #W+, #W-), counted from the opinions."""
        return tuple(map(self.opinions.count, OPINION_VALUES))

    @property
    def s_plus(self) -> int:
        return self.opinions.count(STRONG_POS)

    @property
    def s_minus(self) -> int:
        return self.opinions.count(STRONG_NEG)

    @property
    def positive(self) -> int:
        return sum(o > 0 for o in self.opinions)

    def copy(self) -> "BinaryState":
        return BinaryState(list(self.opinions), self.tick)


@dataclass
class QuantizedState:
    """Mutable protocol state: one integer per node, their sum q*n + r, and the tick."""

    values: list[int]
    q_sum: int
    q: int
    r: int
    tick: int = 0

    @classmethod
    def from_values(cls, values) -> "QuantizedState":
        values = _integers(values, "quantized value")
        if not values:
            raise ValueError("quantized state needs at least one node")
        q_sum = sum(values)
        return cls(values, q_sum, *divmod(q_sum, len(values)))

    @property
    def n(self) -> int:
        return len(self.values)

    def copy(self) -> "QuantizedState":
        return QuantizedState(list(self.values), self.q_sum, self.q, self.r, self.tick)


def binary_init(g: Graph, votes, rng) -> BinaryState:
    """Voters get strong opinions; abstainers get a fair random weak one.

    ``votes`` holds one entry per node: +1, -1, or None to abstain.
    """
    votes = list(votes)
    if len(votes) != g.n:
        raise ValueError(f"expected {g.n} votes, got {len(votes)}")
    if all(v is None for v in votes):
        raise ValueError("at least one vote is required")
    opinions = []
    for v in votes:
        if v is None:
            opinions.append(WEAK_POS if rng.random() < 0.5 else WEAK_NEG)
        elif v > 0:
            opinions.append(STRONG_POS)
        elif v < 0:
            opinions.append(STRONG_NEG)
        else:
            raise ValueError("votes must be +1, -1 or None")
    return BinaryState.from_opinions(opinions)


def apply_binary_edge(s: BinaryState, u: int, v: int) -> None:
    """Apply the voting rules across edge (u, v)."""
    s.opinions[u], s.opinions[v] = binary_update(s.opinions[u], s.opinions[v])


def binary_converged(s: BinaryState) -> bool:
    """True iff every node's sign agrees (strength does not matter)."""
    pos = s.positive
    return pos == 0 or pos == s.n


def apply_quantized_edge(s: QuantizedState, u: int, v: int) -> None:
    """Apply the averaging rule across edge (u, v)."""
    a = s.values[u]
    b = s.values[v]
    na, nb = quantized_update(a, b)
    if na + nb != a + b:
        raise RuntimeError(f"sum conservation violated on edge ({u},{v})")
    s.values[u] = na
    s.values[v] = nb


def _stepper(apply, name: str):
    """The stepper ``name``, the scalar reference of ``graphs.tick_edges``: a tick calls
    nothing but ``apply``, which the closure reads as fast as a global."""
    def step(s, g: Graph, rng):
        """One edge activation; mutates and returns ``s``."""
        u = int(rng.random() * g.n)
        nbrs = g.adjacency[u]
        v = nbrs[int(rng.random() * len(nbrs))]
        apply(s, u, v)
        s.tick += 1
        return s

    step.__name__ = step.__qualname__ = name
    return step


binary_step = _stepper(apply_binary_edge, "binary_step")
quantized_step = _stepper(apply_quantized_edge, "quantized_step")


def quantized_converged(s: QuantizedState) -> bool:
    """True iff every value is q or q+1 for q = floor(sum / n)."""
    q = s.q
    return all(q <= v <= q + 1 for v in s.values)


def lyapunov(s: QuantizedState) -> float:
    """Sum of squared deviations from the exact (real-valued) mean.

    The sum runs left to right from 0.0 in plain float additions, as
    ``sum()`` did before Python 3.12 made it compensated, so the bits do not
    depend on the Python version; ``ckernel``'s trace row repeats these
    operations in this order.
    """
    mean = s.q_sum / s.n
    total = 0.0
    for v in s.values:
        total += (v - mean) ** 2
    return total


def check_protocol(protocol: str) -> None:
    """Raise ValueError unless ``protocol`` is one of PROTOCOLS."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")


def check_state(protocol: str, g: Graph, state) -> None:
    """Raise ValueError unless ``state`` is a ``protocol`` state with a value per node of ``g``."""
    check_protocol(protocol)
    state_type = BinaryState if protocol == "binary" else QuantizedState
    if not isinstance(state, state_type):
        raise ValueError(f"{protocol} protocol requires a {state_type.__name__}")
    if state.n != g.n:
        raise ValueError(f"the state has {state.n} nodes but the graph has {g.n}")


@dataclass(frozen=True)
class SimResult:
    """Outcome of one protocol run."""

    protocol: str
    n: int
    ticks: int
    converged: bool
    detail: str
    trace_header: tuple[str, ...] = ()
    trace: tuple[tuple, ...] = ()


def run_to_convergence(protocol: str, g: Graph, state, rng, max_ticks: int,
                       trace_stride: int = 0) -> SimResult:
    """Drive a protocol state until its convergence predicate holds.

    Returns the first tick at which the predicate is true, or a result
    flagged non-converged after exactly ``max_ticks`` activations. With
    ``trace_stride`` > 0, metric rows are recorded every that many ticks
    (plus the first and final tick). The passed state, which must have one
    value per node of ``g``, is mutated in place; the generator's position
    afterwards is unspecified (see the module docstring).
    """
    require_tick_budget(max_ticks)
    if trace_stride < 0:
        raise ValueError(f"trace_stride must be >= 0, got {trace_stride}")
    check_state(protocol, g, state)
    run = _run_binary if protocol == "binary" else _run_quantized
    return run(g, state, rng, max_ticks, trace_stride)


def _run_kernel(protocol: str, g: Graph, s, max_ticks: int, stride: int, step, row, counter: int,
                ends: dict, row_type) -> SimResult:
    """Run ``s`` under the module docstring's contract. ``ends`` maps each end value
    of ``counter`` to its result detail; ``row_type``'s fields name a trace's columns."""
    if max_ticks and counter not in ends:
        require_neighbors(g)
    trace = [row(s.tick, counter)] if stride else []
    span = min(_CHUNK, _TRACE_ROWS * stride) if stride else _CHUNK
    ticks = 0
    while counter not in ends and ticks < max_ticks:
        k, counter, rows = step(min(max_ticks - ticks, span))
        ticks += k
        trace += rows
    s.tick += ticks
    if stride and trace[-1][0] != s.tick:
        trace.append(row(s.tick, counter))
    return SimResult(protocol, g.n, ticks, counter in ends, ends.get(counter, "timeout"),
                     row_type.names if stride else (), tuple(trace))


def _batch_step(g: Graph, rng, apply, tick: int, stride: int, row, counter: int):
    """The fallback ``step``: edges drawn in numpy batches, fed to ``apply`` in Python.

    Batches grow from _FIRST_BATCH to _MAX_BATCH ticks, each drawn by one
    ``tick_edges`` call. ``apply(us, vs, counter)`` applies the edges
    (us[i], vs[i]) in order, stopping on the one whose update brings the
    counter to an end value, and returns (how many it applied, or None if it
    applied all without converging, the counter). With ``stride`` > 0 a batch
    also ends where a row is due, every ``stride`` ticks after ``tick``.
    """
    batch = _FIRST_BATCH
    due = stride

    def step(limit):
        nonlocal batch, tick, due, counter
        rows = []
        done = 0
        while done < limit:
            m = min(batch, limit - done, due) if stride else min(batch, limit - done)
            batch = min(2 * batch, _MAX_BATCH)
            u, v = tick_edges(g, rng, m)
            k, counter = apply(u.tolist(), v.tolist(), counter)
            if k is not None:
                return done + k, counter, rows
            done += m
            if stride:
                due -= m
                if not due:
                    rows.append(row(tick + done, counter))
                    due = stride
        tick += done
        return done, counter, rows

    return step


def _loops(rng):
    """``ckernel``'s loops when they can draw ``rng``'s stream, which they read as
    PCG64's; None for any other bit generator, or when no library loads."""
    return ckernel.load() if type(rng.bit_generator) is np.random.PCG64 else None


def _compiled_step(g: Graph, rng, loop, typecode: str, values: list, tick: int, stride: int,
                   row_type, fields: tuple, held=None):
    """The compiled ``step``: ``loop`` runs on an ``array`` of ``typecode`` copied from
    ``values``, which each call copies back. ``fields`` are the ``ckernel.Run`` fields
    from the counter on, and ``held`` the array they point into, if any. A traced run
    gets a buffer of _TRACE_ROWS ``row_type`` rows, one due every ``stride`` ticks
    after ``tick``."""
    csr_arrays, csr_addresses = _csr_pointers(g)
    c_values = array(typecode, values)
    run = ckernel.Run(ckernel.bitgen(rng), g.n, *csr_addresses, c_values.buffer_info()[0],
                      *fields)
    # The run holds the arrays its calls read, since the next graph evicts csr's memo.
    run.held = csr_arrays, c_values, held
    columns = ()
    if stride:
        buffer = np.empty(_TRACE_ROWS, row_type)
        # C's int64 cannot hold every stride; a run never reaches a row 2**62 ticks in.
        run.stride = run.due = min(stride, 1 << 62)
        run.tick = tick
        run.rows = buffer.ctypes.data
        columns = [buffer[name] for name in row_type.names]  # views: they keep the buffer alive
    address, lock = addressof(run), rng.bit_generator.lock

    def step(limit):
        with lock:
            k = loop(address, limit)
        values[:] = c_values.tolist()
        rows = list(zip(*[column[:run.nrows].tolist() for column in columns])) if stride else ()
        return k, run.counter, rows

    return step


@lru_cache(maxsize=1)
def _csr_pointers(g: Graph) -> tuple:
    """``csr(g)``'s arrays and their addresses; a caller holds the arrays while it uses
    the addresses, since the next graph evicts them from the memo."""
    arrays = csr(g)
    return arrays, tuple(a.ctypes.data for a in arrays)


@cache
def _binary_table(n: int) -> tuple:
    """[a][b] -> (*binary_update(a, b), change in ``_run_binary``'s packed count) as
    nested tuples, as ``ckernel.binary_table`` lays it out, and that layout's address."""
    table = [[None] * 5 for _ in range(5)]
    for a in OPINION_VALUES:
        for b in OPINION_VALUES:
            na, nb = binary_update(a, b)
            annihilated = a == -b and abs(a) == STRONG_POS
            table[a][b] = (na, nb, (na > 0) + (nb > 0) - (a > 0) - (b > 0) + (n + 1) * annihilated)
    table = tuple(tuple(r) for r in table)
    c_table = ckernel.binary_table(table)
    return table, c_table, addressof(c_table)


def _run_binary(g: Graph, s: BinaryState, rng, max_ticks: int, stride: int) -> SimResult:
    n = g.n
    opinions = s.opinions
    s_plus, s_minus, w_plus, _ = s.counts
    packed = s_plus + w_plus  # #positive is in [0, n]: divmod by n + 1 splits packed
    all_negative, all_positive = (n + 1) * s_plus, n + (n + 1) * s_minus
    ends = {all_negative: "all_negative", all_positive: "all_positive"}
    kernel = _loops(rng)

    def row(tick, packed):
        annihilations, pos = divmod(packed, n + 1)
        sp, sm = s_plus - annihilations, s_minus - annihilations
        return tick, sp, sm, pos - sp, n - pos - sm

    if kernel is None:
        table = _binary_table(n)[0]

        def apply(us, vs, packed):
            for k, u, v in zip(count(1), us, vs):
                a = opinions[u]
                b = opinions[v]
                if a != b:
                    opinions[u], opinions[v], d = table[a][b]
                    if d:
                        packed += d
                        if packed == all_negative or packed == all_positive:
                            return k, packed
            return None, packed

        step = _batch_step(g, rng, apply, s.tick, stride, row, packed)
    else:
        step = _compiled_step(g, rng, kernel.binary, "b", opinions, s.tick, stride,
                              ckernel.BINARY_ROW,
                              (packed, all_negative, all_positive, _binary_table(n)[2]))
    return _run_kernel("binary", g, s, max_ticks, stride, step, row, packed, ends,
                       ckernel.BINARY_ROW)


def _run_quantized(g: Graph, s: QuantizedState, rng, max_ticks: int, stride: int) -> SimResult:
    n = g.n
    values = s.values
    q = s.q
    qp1 = q + 1
    off = n - values.count(q) - values.count(qp1)  # the counter: nodes outside {q, q+1}
    lo, hi = min(values), max(values)
    # Values in (-2**62, 2**62) keep every difference the C loop takes inside int64.
    kernel = _loops(rng) if -_C_VALUE_LIMIT < lo and hi < _C_VALUE_LIMIT else None

    def row(tick, counter):
        return tick, lyapunov(s), min(values), max(values)

    if kernel is None:
        def apply(us, vs, off):
            for k, u, v in zip(count(1), us, vs):
                a = values[u]
                b = values[v]
                if -2 < a - b < 2:
                    values[u] = b
                    values[v] = a
                    continue
                values[u], values[v] = na, nb = quantized_update(a, b)
                off += (q <= a <= qp1) - (q <= na <= qp1) + (q <= b <= qp1) - (q <= nb <= qp1)
                if off == 0:
                    return k, off
            return None, off

        step = _batch_step(g, rng, apply, s.tick, stride, row, off)
    else:
        squares = memo = None
        if stride and hi - lo < _SQUARES_SPAN:
            # Every value stays in [lo, hi]: a swap keeps them, and an exchange moves
            # a > b + 1 to a - 1, b + 1. -1.0 marks a term not yet computed.
            squares = np.full(hi - lo + 1, -1.0)
            memo = squares.ctypes.data
        # Run's counter, end values, table, q, mean (as lyapunov() takes it) and lo.
        step = _compiled_step(g, rng, kernel.quantized, "q", values, s.tick, stride,
                              ckernel.QUANTIZED_ROW, (off, 0, 0, memo, q, s.q_sum / n, lo),
                              squares)
    return _run_kernel("quantized", g, s, max_ticks, stride, step, row, off,
                       {0: f"q={q} r={s.r}"}, ckernel.QUANTIZED_ROW)


_VOTES = {"+": 1, "-": -1, ".": None}


def read_binary_votes(path) -> list:
    """One of '+', '-', '.' per line of ``rows.data_lines``; '.' abstains."""
    votes = []
    for lineno, line in data_lines(path):
        if line not in _VOTES:
            raise ValueError(f"{path}:{lineno}: expected one of '+', '-', '.', got {line!r}")
        votes.append(_VOTES[line])
    return votes


def read_quantized_values(path) -> list[int]:
    """One integer per line of ``rows.data_lines``."""
    values = []
    for lineno, line in data_lines(path):
        try:
            values.append(int(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected an integer, got {line!r}") from exc
    return values


def write_trace_csv(result: SimResult, path) -> None:
    """The trace of a traced run as CSV; ValueError, with no file written, for an untraced run."""
    if not result.trace_header:
        raise ValueError("the run has no trace: run it with trace_stride > 0")
    with open_out(path) as fh:
        write_trace_rows(fh, result.trace_header, result.trace)
