"""Experiment harness: seeded initial conditions, size sweeps, scaling fits.

A sweep measures mean convergence ticks over a fixed number of rounds per
graph size. Every round's RNG stream is derived from (master seed, n,
round index), and an Erdős-Rényi graph's sampling seed from (master seed,
n), both through ``seed_sequence``, so a config fully determines every
record, whatever order the rounds run in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import ckernel
from .consensus import (
    STRONG_NEG,
    STRONG_POS,
    BinaryState,
    QuantizedState,
    binary_init,
    check_protocol,
    read_binary_votes,
    read_quantized_values,
    run_to_convergence,
)
from .graphs import (Graph, TopologySpec, build_graph, er_probability, require_nodes,
                     require_tick_budget)
from .rows import cut, open_out, write_csv, write_table

PROTOCOL_INITS = {"binary": ("majority_one",), "quantized": ("q_setting1", "q_setting2")}
INITS = sum(PROTOCOL_INITS.values(), ())
DEFAULT_INIT = {"binary": "majority_one", "quantized": "q_setting2"}

# Desk-scale sweep grids (the full-scale grid runs 21..481 step 20).
DESK_N_VALUES = {
    "star": tuple(range(21, 202, 20)),
    "erdos_renyi": tuple(range(21, 202, 20)),
    "line": tuple(range(9, 66, 8)),
    "lollipop": tuple(range(9, 64, 6)),
}
FULL_N_VALUES = tuple(range(21, 482, 20))
FIT_MIN_SIZES = 3  # sizes a scaling fit needs


def default_n_values(kind: str, full_grid: bool = False) -> tuple[int, ...]:
    if full_grid:
        return FULL_N_VALUES
    return DESK_N_VALUES.get(kind, tuple(range(21, 202, 20)))


def default_max_ticks(n: int) -> int:
    """The default tick budget of one run on n nodes: 50 times the 3 n^3 hitting bound."""
    return 150 * n**3


def lollipop_clique_size(n: int) -> int:
    """The extremal clique size floor((2n+1)/3)."""
    return (2 * n + 1) // 3


def check_init(protocol: str, init: str, n: int, lo: int = 1, hi: int = 100) -> None:
    """Raise ValueError unless ``init`` can start a ``protocol`` run on n nodes from [lo, hi];
    the one statement of each init rule, for single runs and sweeps alike."""
    if init not in PROTOCOL_INITS.get(protocol, ()):
        raise ValueError(f"{protocol} protocol cannot use init {init!r}")
    if init == "majority_one" and n % 2 == 0:
        raise ValueError(f"odd N required for the majority_one init, got {n}")
    if init == "q_setting1" and n < 3:
        raise ValueError(f"q_setting1 requires n >= 3, got {n}")
    if lo > hi:
        raise ValueError(f"lo must be <= hi, got lo={lo}, hi={hi}")
    if not -2**63 <= lo <= hi < 2**63:  # the range rng.integers draws from
        raise ValueError(f"lo and hi must fit in int64, got lo={lo}, hi={hi}")


def init_majority_one(n: int, rng) -> BinaryState:
    """ceil(n/2) strong positive and floor(n/2) strong negative voters.

    The one-vote margin makes this the adversarial majority setting; n must
    be odd for the convergence guarantee to apply.
    """
    check_init("binary", "majority_one", n)
    opinions = [STRONG_NEG] * n
    for i in rng.permutation(n)[: (n + 1) // 2].tolist():
        opinions[i] = STRONG_POS
    return BinaryState.from_opinions(opinions)


def init_q_setting1(g: Graph, rng, exclude: Iterable[int] = ()) -> QuantizedState:
    """All ones except a 2 and a 0 on two distinct random eligible nodes.

    The sum is n, so the run converges exactly when every node holds 1.
    ``exclude`` removes nodes from eligibility (the hub on star graphs).
    """
    check_init("quantized", "q_setting1", g.n)
    skipped = sorted(i for i in set(exclude) if i in range(g.n))
    if g.n - len(skipped) < 2:
        raise ValueError("setting-1 init needs at least two eligible nodes")
    i, j = rng.choice(g.n - len(skipped), size=2, replace=False).tolist()
    for s in skipped:  # the i-th and j-th eligible nodes: each draw moves past s <= it
        i += s <= i
        j += s <= j
    values = [1] * g.n
    values[i] = 2
    values[j] = 0
    return QuantizedState.from_values(values)


def init_q_setting2(n: int, rng, lo: int = 1, hi: int = 100) -> QuantizedState:
    """i.i.d. uniform integer values in [lo, hi]."""
    check_init("quantized", "q_setting2", n, lo, hi)
    return QuantizedState.from_values(rng.integers(lo, hi + 1, size=n).tolist())


_WORD_TYPES = (int, np.integer)
_WORD_LIMIT = 2**32


def seed_sequence(*words):
    """``np.random.SeedSequence(list(words))``'s words, the one way a stream is derived
    from words.

    Words that are integers in [0, 2**32) give a ``ckernel.SeedWords``, whose
    ``generate_state`` is the compiled ``qc_seed_words``, when ``ckernel.load()``
    succeeds; without a library they go to numpy as one uint32 array, which numpy
    reads as the same entropy words as the list but without coercing each Python int
    on its own. Any other word (negative, wider than 32 bits, a float) takes the list
    path, so it is accepted or rejected exactly as the list is.
    """
    for w in words:
        if not (isinstance(w, _WORD_TYPES) and 0 <= w < _WORD_LIMIT):
            return np.random.SeedSequence(list(words))
    if ckernel.load() is None:
        return np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return ckernel.SeedWords(words)


def topology_spec(kind: str, n: int, seed: int, m: int | None = None,
                  p: float | None = None) -> TopologySpec:
    """The graph spec of one size of a topology family, for master seed ``seed``.

    m = None is the extremal lollipop clique size floor((2n+1)/3); p = None
    is ``er_probability(n)``; an ER graph's sampling seed is derived from
    (seed, n). An m or p that ``kind`` does not read is a ValueError.
    """
    if m is not None and kind != "lollipop":
        raise ValueError(f"m applies only to lollipop, not {kind}")
    if p is not None and kind != "erdos_renyi":
        raise ValueError(f"p applies only to erdos_renyi, not {kind}")
    require_nodes(n)  # before er_probability and seed_sequence, which reject it in their own words
    if kind == "lollipop":
        return TopologySpec(kind, n, m=m if m is not None else lollipop_clique_size(n))
    if kind == "erdos_renyi":
        graph_seed = int(seed_sequence(seed, n).generate_state(1)[0])
        return TopologySpec(kind, n, p=p if p is not None else er_probability(n), seed=graph_seed)
    return TopologySpec(kind, n)


def initial_state(protocol: str, init: str, g: Graph, rng, kind: str = "",
                  lo: int = 1, hi: int = 100, init_file=None):
    """The initial state of one run of ``protocol`` on ``g`` from ``init``.

    q_setting1 keeps the hub of a star (``kind`` "star") at 1, q_setting2
    draws from [lo, hi], and "file" reads the binary votes or quantized
    values in ``init_file``.
    """
    if init == "file":
        if not init_file:
            raise ValueError("init 'file' requires an initial-state file")
        if protocol == "binary":
            return binary_init(g, read_binary_votes(init_file), rng)
        return QuantizedState.from_values(read_quantized_values(init_file))
    check_init(protocol, init, g.n, lo, hi)
    if init == "majority_one":
        return init_majority_one(g.n, rng)
    if init == "q_setting1":
        return init_q_setting1(g, rng, (0,) if kind == "star" else ())
    return init_q_setting2(g.n, rng, lo, hi)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a topology family, a protocol, an init and an n-grid.

    m is the lollipop clique size (None = floor((2n+1)/3)); p the ER edge
    probability (None = min(1, 5 ln n / n), and 1 at n = 1); max_ticks the
    per-round budget (None = default_max_ticks(n)). Construction validates each
    n's graph spec and init rules (``check_init``), and the master seed.
    """

    kind: str
    n_values: tuple[int, ...]
    protocol: str
    init: str
    rounds: int
    master_seed: int
    m: int | None = None
    p: float | None = None
    lo: int = 1
    hi: int = 100
    max_ticks: int | None = None

    def __post_init__(self):
        check_protocol(self.protocol)
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.max_ticks is not None:
            require_tick_budget(self.max_ticks)
        if not self.n_values:
            raise ValueError("n_values must not be empty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        if self.kind == "edge_list":
            raise ValueError("sweeps build one graph per n and cannot use an edge list")
        seed_sequence(self.master_seed)  # a bad seed fails here, whatever the topology
        for n in self.n_values:
            self.spec_for(n).validate()
            check_init(self.protocol, self.init, n, self.lo, self.hi)

    def spec_for(self, n: int) -> TopologySpec:
        return topology_spec(self.kind, n, self.master_seed, self.m, self.p)

    def max_ticks_for(self, n: int) -> int:
        if self.max_ticks is not None:
            return self.max_ticks
        return default_max_ticks(n)


@dataclass(frozen=True)
class SweepRecord:
    """Aggregated result for one n: mean/std over the converged rounds only."""

    n: int
    mean_ticks: float
    std_ticks: float
    rounds_converged: int
    rounds_total: int
    round_ticks: tuple[tuple[int, int, bool], ...] = ()  # (round, ticks, converged)


def round_rng(master_seed: int, n: int, round_index: int):
    """Generator for one round, derived from (master seed, n, round index)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, n, round_index)))


def iter_sweep(cfg: SweepConfig) -> Iterator[SweepRecord]:
    """Yield one record per n as soon as its rounds finish.

    Every n's graph is built before the iterator is returned, so a size whose
    graph cannot be built (an ER graph past its sample bound) fails before a
    caller has written anything.
    """
    graphs = [build_graph(cfg.spec_for(n)) for n in cfg.n_values]
    return (_sweep_record(cfg, n, g) for n, g in zip(cfg.n_values, graphs))


def _sweep_record(cfg: SweepConfig, n: int, g: Graph) -> SweepRecord:
    budget = cfg.max_ticks_for(n)
    rounds = []
    for ri in range(cfg.rounds):
        rng = round_rng(cfg.master_seed, n, ri)
        state = initial_state(cfg.protocol, cfg.init, g, rng, cfg.kind, cfg.lo, cfg.hi)
        result = run_to_convergence(cfg.protocol, g, state, rng, budget)
        rounds.append((ri, result.ticks, result.converged))
    ticks = [t for _, t, ok in rounds if ok]
    k = len(ticks)
    mean = std = float("nan")
    if k:
        # np.mean(ticks) and np.std(ticks, ddof=1) bit for bit: the reductions they run,
        # without their Python wrappers.
        a = np.array(ticks)
        mean = np.add.reduce(a, dtype=np.float64) / k
        d = a - mean
        std = np.sqrt(np.add.reduce(d * d) / (k - 1)) if k > 1 else 0.0
        mean, std = float(mean), float(std)
    return SweepRecord(n, mean, std, k, cfg.rounds, tuple(rounds))


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    coefficient: float
    residual: float  # sum of squared log-space residuals


def fit_scaling(records) -> ScalingFit:
    """Least-squares fit of c * n^a to mean ticks against n in log space, over the
    ``SweepRecord``s with a converged round and a mean above 0, which has a log."""
    points = [(rec.n, rec.mean_ticks) for rec in records
              if rec.rounds_converged and rec.mean_ticks > 0]
    if len(points) < FIT_MIN_SIZES:
        raise ValueError(f"scaling fit needs at least {FIT_MIN_SIZES} points, got "
                         f"{len(points)}: a point is a size with a converged mean above 0")
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    coef = np.polyfit(x, y, 1)
    fitted = np.polyval(coef, x)
    residual = float(np.sum((y - fitted) ** 2))
    return ScalingFit(float(coef[0]), float(math.exp(coef[1])), residual)


# Reference curves from the figure overlays, keyed by (kind, protocol, init).
REFERENCE_CURVES: dict[tuple[str, str, str], tuple[tuple[str, Callable[[float], float]], ...]] = {
    ("star", "binary", "majority_one"): (
        ("0.63*n^2*ln(n)", lambda n: 0.63 * n * n * math.log(n)),
    ),
    ("star", "quantized", "q_setting1"): (
        ("0.6*n^2", lambda n: 0.6 * n * n),
        ("0.7*n^2", lambda n: 0.7 * n * n),
    ),
    ("star", "quantized", "q_setting2"): (
        ("13*n*ln(n)", lambda n: 13.0 * n * math.log(n)),
        ("15*n*ln(n)", lambda n: 15.0 * n * math.log(n)),
    ),
    ("line", "binary", "majority_one"): (
        ("0.15*n^3*ln(n)", lambda n: 0.15 * n**3 * math.log(n)),
    ),
    ("line", "quantized", "q_setting1"): (("0.17*n^3", lambda n: 0.17 * n**3),),
    ("line", "quantized", "q_setting2"): (("0.25*n^3", lambda n: 0.25 * n**3),),
    ("lollipop", "binary", "majority_one"): (
        ("0.14*n^3*ln(n)", lambda n: 0.14 * n**3 * math.log(n)),
    ),
    ("lollipop", "quantized", "q_setting1"): (("0.15*n^3", lambda n: 0.15 * n**3),),
    ("lollipop", "quantized", "q_setting2"): (("0.3*n^3", lambda n: 0.3 * n**3),),
    ("erdos_renyi", "binary", "majority_one"): (
        ("2*n^2*ln(n)", lambda n: 2.0 * n * n * math.log(n)),
        ("2.3*n^2*ln(n)", lambda n: 2.3 * n * n * math.log(n)),
    ),
    ("erdos_renyi", "quantized", "q_setting1"): (
        ("0.5*n^2", lambda n: 0.5 * n * n),
        ("0.7*n^2", lambda n: 0.7 * n * n),
    ),
    ("erdos_renyi", "quantized", "q_setting2"): (("1.1*n^2", lambda n: 1.1 * n * n),),
}

SWEEP_CSV_HEADER = (
    "topology", "protocol", "init", "n", "rounds", "converged",
    "mean_ticks", "std_ticks", "seed",
)


def sweep_csv_row(cfg: SweepConfig, rec: SweepRecord) -> list:
    return [
        cfg.kind, cfg.protocol, cfg.init, rec.n, rec.rounds_total,
        rec.rounds_converged, rec.mean_ticks, rec.std_ticks, cfg.master_seed,
    ]


def write_sweep_table(fh, fmt: str, cfg: SweepConfig, records) -> list[SweepRecord]:
    """Write the sweep table to ``fh`` as CSV or JSON (``fmt``), one row per record.

    ``fh`` is flushed after the header and after each row, before the next
    record is drawn, so a CSV row reaches its reader as soon as its record
    exists. A regular file is also ``cut`` after the CSV header, so a sweep
    stopped part way through leaves its header and finished rows, and none of
    an older file's bytes after them. JSON is written whole after the last
    record. Returns the records written, so a caller can pass
    ``iter_sweep(cfg)``.
    """
    written = []

    def rows():
        if fmt == "csv":
            cut(fh)
        for rec in records:
            written.append(rec)
            yield sweep_csv_row(cfg, rec)
            fh.flush()

    write_table(fh, fmt, SWEEP_CSV_HEADER, rows())
    return written


def write_sweep_csv(cfg: SweepConfig, records, path) -> None:
    with open_out(path) as fh:
        write_sweep_table(fh, "csv", cfg, records)


def write_rounds_csv(records, path) -> None:
    """Per-round dump: n,round,ticks,converged."""
    write_csv(path, ("n", "round", "ticks", "converged"),
              ((rec.n, ri, ticks, int(ok)) for rec in records for ri, ticks, ok in rec.round_ticks))


def write_curves_csv(cfg: SweepConfig, records, path) -> None:
    """Measured means next to the reference-model columns, for overlay plots."""
    curves = REFERENCE_CURVES.get((cfg.kind, cfg.protocol, cfg.init), ())
    write_csv(path, ["n", "mean_ticks"] + [label for label, _ in curves],
              ([rec.n, rec.mean_ticks] + [fn(rec.n) for _, fn in curves] for rec in records))
