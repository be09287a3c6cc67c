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

One tick = one edge activation: a node chosen uniformly, then one of its
neighbors uniformly, from two uniform floats drawn in (node, neighbor)
order. ``run_to_convergence`` runs one batch kernel per protocol, traced or
not; the per-tick steppers (``binary_step``/``quantized_step``) are the
reference it is tested against, tick for tick, for the same seed. Draws
past the convergence tick are discarded, so the generator's position after
a run is unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import count

import numpy as np

from .graphs import Graph, csr
from .rows import write_csv

STRONG_POS = 2
STRONG_NEG = -2
WEAK_POS = 1
WEAK_NEG = -1
OPINION_VALUES = (STRONG_POS, STRONG_NEG, WEAK_POS, WEAK_NEG)

_FIRST_BATCH = 64
_MAX_BATCH = 8192


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
    """Mutable protocol state: per-node opinions plus cached counts."""

    opinions: list[int]
    s_plus: int
    s_minus: int
    w_plus: int
    w_minus: int
    tick: int = 0

    @classmethod
    def from_opinions(cls, opinions) -> "BinaryState":
        opinions = list(opinions)
        for o in opinions:
            if o not in OPINION_VALUES:
                raise ValueError(f"invalid opinion value {o!r}")
        return cls(opinions, *map(opinions.count, OPINION_VALUES))

    @property
    def n(self) -> int:
        return len(self.opinions)

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.s_plus, self.s_minus, self.w_plus, self.w_minus)

    @property
    def positive(self) -> int:
        return self.s_plus + self.w_plus

    def copy(self) -> "BinaryState":
        return BinaryState(list(self.opinions), *self.counts, self.tick)


@dataclass
class QuantizedState:
    """Mutable protocol state: per-node integers plus cached sum and extrema."""

    values: list[int]
    q_sum: int
    q: int
    r: int
    tick: int = 0
    vmin: int = 0
    vmax: int = 0
    off_target: int = field(default=0, repr=False)  # nodes outside {q, q+1}
    _counts: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_values(cls, values) -> "QuantizedState":
        values = [int(v) for v in values]
        if not values:
            raise ValueError("quantized state needs at least one node")
        q_sum = sum(values)
        q, r = divmod(q_sum, len(values))
        s = cls(values, q_sum, q, r)
        s._recount()
        return s

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def spread(self) -> int:
        return self.vmax - self.vmin

    def _recount(self) -> None:
        """Rebuild the value counts, extrema and ``off_target`` from ``values``."""
        counts: dict[int, int] = {}
        for v in self.values:
            counts[v] = counts.get(v, 0) + 1
        self._counts = counts
        self.vmin = min(counts)
        self.vmax = max(counts)
        self.off_target = sum(c for v, c in counts.items() if v != self.q and v != self.q + 1)

    def copy(self) -> "QuantizedState":
        return QuantizedState(
            list(self.values), self.q_sum, self.q, self.r, self.tick,
            self.vmin, self.vmax, self.off_target, dict(self._counts),
        )


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
    """Apply the voting rules across edge (u, v), keeping counts in sync."""
    a = s.opinions[u]
    b = s.opinions[v]
    na, nb = binary_update(a, b)
    if na == a and nb == b:
        return
    s.opinions[u] = na
    s.opinions[v] = nb
    for old, delta in ((a, -1), (b, -1), (na, 1), (nb, 1)):
        if old == STRONG_POS:
            s.s_plus += delta
        elif old == STRONG_NEG:
            s.s_minus += delta
        elif old == WEAK_POS:
            s.w_plus += delta
        else:
            s.w_minus += delta


def binary_step(s: BinaryState, g: Graph, rng) -> BinaryState:
    """One edge activation; mutates and returns ``s``."""
    u = int(rng.random() * g.n)
    nbrs = g.adjacency[u]
    v = nbrs[int(rng.random() * len(nbrs))]
    apply_binary_edge(s, u, v)
    s.tick += 1
    return s


def binary_converged(s: BinaryState) -> bool:
    """True iff every node's sign agrees (strength does not matter)."""
    pos = s.s_plus + s.w_plus
    return pos == 0 or pos == s.n


def apply_quantized_edge(s: QuantizedState, u: int, v: int) -> None:
    """Apply the averaging rule across edge (u, v), keeping caches in sync."""
    a = s.values[u]
    b = s.values[v]
    na, nb = quantized_update(a, b)
    if na + nb != a + b:
        raise RuntimeError(f"sum conservation violated on edge ({u},{v})")
    s.values[u] = na
    s.values[v] = nb
    if na == b and nb == a:
        return  # swap: multiset unchanged
    counts = s._counts
    q, qp1 = s.q, s.q + 1
    for old in (a, b):
        counts[old] -= 1
        if counts[old] == 0:
            del counts[old]
        if old != q and old != qp1:
            s.off_target -= 1
    for new in (na, nb):
        counts[new] = counts.get(new, 0) + 1
        if new != q and new != qp1:
            s.off_target += 1
    if s.vmin not in counts:
        s.vmin = min(counts)
    if s.vmax not in counts:
        s.vmax = max(counts)


def quantized_step(s: QuantizedState, g: Graph, rng) -> QuantizedState:
    """One edge activation; mutates and returns ``s``."""
    u = int(rng.random() * g.n)
    nbrs = g.adjacency[u]
    v = nbrs[int(rng.random() * len(nbrs))]
    apply_quantized_edge(s, u, v)
    s.tick += 1
    return s


def quantized_converged(s: QuantizedState) -> bool:
    """True iff every value is q or q+1 for q = floor(sum / n)."""
    return s.off_target == 0


def lyapunov(s: QuantizedState) -> float:
    """Sum of squared deviations from the exact (real-valued) mean."""
    mean = s.q_sum / s.n
    return sum((v - mean) ** 2 for v in s.values)


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
    (plus the first and final tick). The passed state is mutated in place;
    the generator's position afterwards is unspecified.
    """
    if max_ticks < 0:
        raise ValueError(f"max_ticks must be >= 0, got {max_ticks}")
    if trace_stride < 0:
        raise ValueError(f"trace_stride must be >= 0, got {trace_stride}")
    if protocol == "binary":
        if not isinstance(state, BinaryState):
            raise ValueError("binary protocol requires a BinaryState")
        return _run_binary(g, state, rng, max_ticks, trace_stride)
    if protocol == "quantized":
        if not isinstance(state, QuantizedState):
            raise ValueError("quantized protocol requires a QuantizedState")
        return _run_quantized(g, state, rng, max_ticks, trace_stride)
    raise ValueError(f"unknown protocol {protocol!r}")


_BINARY_TRACE_HEADER = ("tick", "s_plus", "s_minus", "w_plus", "w_minus")
_QUANTIZED_TRACE_HEADER = ("tick", "lyapunov", "value_min", "value_max")


def _run_kernel(g: Graph, s, rng, max_ticks: int, stride: int, apply, row):
    """Feed drawn edges to ``apply`` until it reports convergence or ``max_ticks`` pass.

    Edges come through a CSR adjacency in batches growing from _FIRST_BATCH
    to _MAX_BATCH ticks (split PCG64 draws equal one large draw); truncating
    a non-negative float64 product equals the steppers' ``int()``.
    ``apply(us, vs)`` returns how many edges it applied if the run converged
    on the last of them, else None. With ``stride`` > 0 batches are cut at
    multiples of ``stride``, and ``row(tick)`` is recorded at the first tick,
    at each multiple not converged, and at the final tick.
    """
    n = g.n
    deg, off, flat = csr(g)
    if max_ticks and not deg.all():
        raise ValueError("every node needs a neighbor to run a protocol")
    trace = [row(s.tick)] if stride else []
    ticks = 0
    converged = False
    batch = _FIRST_BATCH
    while not converged and ticks < max_ticks:
        m = min(batch, max_ticks - ticks)
        batch = min(2 * batch, _MAX_BATCH)
        r = rng.random(2 * m)
        u = (r[0::2] * n).astype(np.int64)
        us = u.tolist()
        vs = flat[off[u] + (r[1::2] * deg[u]).astype(np.int64)].tolist()
        cuts = [0, *range(stride - ticks % stride, m, stride), m] if stride else [0, m]
        base = ticks
        for i, j in zip(cuts, cuts[1:]):
            k = apply(us[i:j], vs[i:j])
            converged = k is not None
            ticks = base + (i + k if converged else j)
            if converged:
                break
            if stride and ticks % stride == 0:
                trace.append(row(s.tick + ticks))
    s.tick += ticks
    if stride and trace[-1][0] != s.tick:
        trace.append(row(s.tick))
    return ticks, tuple(trace)


@cache
def _binary_table(n: int) -> tuple:
    """[a][b] -> (*binary_update(a, b), change in ``_run_binary``'s packed count)."""
    table = [[None] * 5 for _ in range(5)]
    for a in OPINION_VALUES:
        for b in OPINION_VALUES:
            na, nb = binary_update(a, b)
            annihilated = a == -b and abs(a) == STRONG_POS
            table[a][b] = (na, nb, (na > 0) + (nb > 0) - (a > 0) - (b > 0) + (n + 1) * annihilated)
    return tuple(tuple(r) for r in table)


def _run_binary(g: Graph, s: BinaryState, rng, max_ticks: int, stride: int) -> SimResult:
    n = g.n
    opinions = s.opinions
    s_plus, s_minus = s.s_plus, s.s_minus
    packed = s_plus + s.w_plus
    # packed = #positive + (n + 1) * #annihilations, and #positive is in [0, n].
    # Annihilating a pair of opposite strong opinions is the only update
    # that changes the strong counts, and a sign has no opinions left exactly
    # when all its strong ones are annihilated: each consensus is one value.
    all_negative, all_positive = (n + 1) * s_plus, n + (n + 1) * s_minus
    table = _binary_table(n)

    def apply(us, vs):
        nonlocal packed
        for k, u, v in zip(count(1), us, vs):
            a = opinions[u]
            b = opinions[v]
            if a != b:
                opinions[u], opinions[v], d = table[a][b]
                if d:
                    packed += d
                    if packed == all_negative or packed == all_positive:
                        return k
        return None

    def counts():
        annihilations, pos = divmod(packed, n + 1)
        sp, sm = s_plus - annihilations, s_minus - annihilations
        return sp, sm, pos - sp, n - pos - sm

    converged = packed in (all_negative, all_positive)
    ticks, trace = _run_kernel(g, s, rng, 0 if converged else max_ticks, stride, apply,
                               lambda tick: (tick, *counts()))
    s.s_plus, s.s_minus, s.w_plus, s.w_minus = counts()
    converged = packed in (all_negative, all_positive)
    detail = (("all_positive" if packed == all_positive else "all_negative") if converged
              else "timeout")
    header = _BINARY_TRACE_HEADER if stride else ()
    return SimResult("binary", n, ticks, converged, detail, header, trace)


def _run_quantized(g: Graph, s: QuantizedState, rng, max_ticks: int, stride: int) -> SimResult:
    values = s.values
    q = s.q
    qp1 = q + 1
    off = s.off_target

    def apply(us, vs):
        nonlocal off
        for k, u, v in zip(count(1), us, vs):
            a = values[u]
            b = values[v]
            if -2 < a - b < 2:
                values[u] = b
                values[v] = a
                continue
            d = 1 if a > b else -1
            values[u] = na = a - d
            values[v] = nb = b + d
            off += (q <= a <= qp1) - (q <= na <= qp1) + (q <= b <= qp1) - (q <= nb <= qp1)
            if off == 0:
                return k
        return None

    ticks, trace = _run_kernel(g, s, rng, max_ticks if off else 0, stride, apply,
                               lambda tick: (tick, lyapunov(s), min(values), max(values)))
    s._recount()
    converged = off == 0
    detail = f"q={q} r={s.r}" if converged else "timeout"
    header = _QUANTIZED_TRACE_HEADER if stride else ()
    return SimResult("quantized", g.n, ticks, converged, detail, header, trace)


def read_binary_votes(path) -> list:
    """One of '+', '-', '.' per line; '.' abstains. '#' starts a comment."""
    votes = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "+":
                votes.append(1)
            elif line == "-":
                votes.append(-1)
            elif line == ".":
                votes.append(None)
            else:
                raise ValueError(f"{path}:{lineno}: expected one of '+', '-', '.', got {line!r}")
    return votes


def read_quantized_values(path) -> list[int]:
    """One integer per line; '#' starts a comment."""
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: expected an integer, got {line!r}") from exc
    return values


def write_trace_csv(result: SimResult, path) -> None:
    write_csv(path, result.trace_header, result.trace)
