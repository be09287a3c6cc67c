"""The compiled protocol loops: one C loop per protocol, built on first use.

Each loop is ``consensus``'s compiled ``step``. The step contract, the
counters and the end values that stop a run are stated once, in the
``consensus`` module docstring; this one says how the loops keep them.

Each loop draws its ticks (``draw_edge``) by the tick law that
``graphs.tick_edges`` states, from a numpy ``PCG64`` generator; the
per-tick steppers are its reference. It does not call the generator:
through the ``bitgen_t`` that ``rng.bit_generator.capsule`` wraps, it reads
numpy's ``pcg64_state`` and the 128-bit LCG state and increment it points
to, once per call, and keeps them in registers. Each double is numpy's
``next_double``, inline: one LCG step, the XSL-RR output of the new state
(O'Neill's PCG64), and its top 53 bits times 2**-53. Every return writes the
state back, so a call leaves the generator exactly 2 * ticks doubles on, as
numpy's own draws would. Callers pass only generators whose
``bit_generator`` is exactly ``np.random.PCG64``; ``consensus`` runs any
other on its batch step. They hold ``rng.bit_generator.lock`` during each
call, as numpy's own extension examples do.

``load()`` compiles ``SOURCE`` with ``CC`` into ``CACHE_DIR``, under a name
keyed on a hash of the source and the command, then loads it with
``ctypes``; a successful build deletes the libraries of other hashes there.
Nothing is built or loaded at import. If no library can be built or loaded
(no compiler, a compile error, an unwritable cache), ``load()`` returns None.
It also returns None when the library's draws differ from numpy's: it draws
_GUARD_DRAWS doubles through ``qc_pcg64_doubles`` once and compares them,
and the generator state they leave, with ``Generator(PCG64(seed)).random``'s.
That catches a numpy whose PCG64 structs are laid out otherwise (numpy
emulates the 128-bit integers on compilers without them) before any run
reads them.

A loop takes one ``Run``, which holds a run's pointers, constants, counter
and trace buffer, and a ``limit``. It runs at most ``limit`` ticks, stops on
the tick that brings ``counter`` to ``end0`` or ``end1``, writes
``counter`` back and returns the number of ticks it ran:

- ``qc_binary``: ``int8`` opinions; ``table`` holds 75 ``int64`` entries
  (``binary_table``), (new a, new b, change in the counter) for opinion
  pair (a, b) at ``3 * (5 * (a + 2) + (b + 2))``. An equal pair's entry is
  (a, a, 0), so the tick has no branch on the opinions: it writes both
  ends, adds the change and compares the counter with the end values, a
  branch almost never taken.
- ``qc_quantized``: ``int64`` values, every |value| < 2**62 so that no
  difference overflows. It keeps its branch between a swap and an
  exchange: on a 2-core x86-64 Xeon, a branch-free exchange (both ends
  written from selects) took the desk ``q_setting2`` line sweep, 3 rounds
  per n, from 8.6 to 19.2 ms, best of 12, and with the counter below, a
  fully branch-free tick ran quantized line(65) at x0.69 and lollipop(45)
  at x0.73 (``scripts/bench_ab.py kernel``). An exchange steps the counter of
  nodes outside {q, q + 1} by ``IN_QQ1`` of its four end values, each one
  unsigned compare, ``(uint64_t)x - (uint64_t)q <= 1``, with no branch:
  two signed compares joined by ``&&`` compile to two data-dependent
  branches, which in an exchange-heavy run go either way about half the
  time. The compare relies on the value rule: with |x|, |q| < 2**62 (q
  lies between the run's smallest and largest value), x - q fits int64,
  and taken in uint64_t it is 0 or 1 exactly when x is q or q + 1 and at
  least 2**63 when x < q.

A traced run (``stride`` > 0) has the loops write the rows due inside a
call into ``rows``, a buffer of ``BINARY_ROW`` or ``QUANTIZED_ROW`` records.
Each loop is an outer loop over segments around the unchanged per-tick
loop. A segment ends at ``limit`` or where a row is due; there the loop
writes the row of that tick (``tick`` plus the ticks run in the call) to
``rows[nrows++]``. ``due``, the ticks left to the next row, carries over
from call to call, so a call of at most ``stride`` * capacity ticks writes
at most capacity rows. ``nrows`` is reset on entry, and a call that returns
at ``limit`` adds it to ``tick``. An untraced run has one segment per call
and computes no row.

- A binary row is (tick, s_plus, s_minus, w_plus, w_minus), computed from
  the counter and the end values, which hold the strong counts at the
  run's start.
- A quantized row is (tick, lyap, vmin, vmax): the state's
  ``consensus.lyapunov``, ``min`` and ``max``. ``mean`` is the sum over n as
  Python divides it (the sum can exceed int64), and lyap repeats CPython's
  float operations in ``lyapunov``'s order: ``(double)v - mean`` (C and
  CPython both convert the integer to the nearest double), then
  ``pow(fabs(d), 2.0)``, which is what ``float ** 2`` calls, added left to
  right from 0.0. ``CC`` keeps those bits: ``-fno-builtin-pow`` stops the
  compiler from turning the ``pow`` into ``d * d``, which rounds apart from
  glibc's ``pow`` on about one square in a thousand, and
  ``-ffp-contract=off`` forbids fused multiply-adds. Where ``table`` is
  set, a row reads the term of value v from ``table[v - lo]``, which holds
  -1.0 until the first read computes the term with that same ``pow`` (a
  square is never negative). The memo must cover every value of the run;
  values never leave the run's starting [min, max], since a swap keeps them
  and an exchange moves a > b + 1 to a - 1 and b + 1, both in [b, a].
  Without it every row calls ``pow`` per node.

A call passes one address and one integer, which ctypes converts at the
least cost it has: about 0.7 us a call on a 2-core x86-64 box, where the
same values as eleven arguments cost 2.5 us.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import suppress
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* The leading fields of numpy's bitgen_t (numpy/random/bitgen.h) and of the
   pcg64_state its state points to for a PCG64, and the LCG that points to, as
   numpy/random/src/pcg64/pcg64.h lays it out where the compiler has 128-bit integers. */
typedef struct { void *state; } bitgen_t;
typedef struct { __uint128_t state, inc; } pcg64_random_t;
typedef struct { pcg64_random_t *pcg_state; } pcg64_state;

#define PCG64_MULT (((__uint128_t)2549297995355413924ULL << 64) + 4865540595714422341ULL)

static inline pcg64_random_t *pcg64(const bitgen_t *bg)
{
    return ((pcg64_state *)bg->state)->pcg_state;
}

/* numpy's PCG64 next_double on a copy of the LCG: one step, the XSL-RR output of the
   new state, and its top 53 bits over 2**53. */
static inline double next_double(pcg64_random_t *g)
{
    g->state = g->state * PCG64_MULT + g->inc;
    const uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(g->state >> 122);
    return (double)(int64_t)(((x >> rot) | (x << (-rot & 63))) >> 11) * 0x1.0p-53;
}

/* k doubles of the generator's stream into out, as its random(k) draws them. */
void qc_pcg64_doubles(bitgen_t *bg, double *out, int64_t k)
{
    pcg64_random_t *const gen = pcg64(bg), g = *gen;
    for (int64_t i = 0; i < k; i++)
        out[i] = next_double(&g);
    gen->state = g.state;
}

typedef struct run {  /* ckernel.Run */
    bitgen_t *bg;
    int64_t n;
    const int64_t *deg, *off, *flat;      /* graphs.csr(g) */
    void *state;                          /* int8 opinions or int64 values */
    int64_t counter, end0, end1;          /* packed or off, and the values that end the run */
    void *table;                          /* binary: the update table; quantized: NULL or the
                                             rows' memo of each value's term, at v - lo, -1.0
                                             until computed */
    int64_t q;                            /* quantized */
    double mean;                          /* quantized: sum / n, as Python divides */
    int64_t lo;                           /* quantized */
    int64_t stride, due, tick;            /* trace: row period, ticks to the next row, and
                                             the tick the call starts from */
    void *rows;                           /* binary_row_t or quantized_row_t [nrows] */
    int64_t nrows;
} run_t;

typedef struct { int64_t tick, s_plus, s_minus, w_plus, w_minus; } binary_row_t;
typedef struct { int64_t tick; double lyap; int64_t vmin, vmax; } quantized_row_t;

/* One tick's edge, drawn from g: node *u uniformly, then one of its neighbours, returned. */
static inline int64_t draw_edge(const run_t *r, pcg64_random_t *g, double dn, int64_t *u)
{
    *u = (int64_t)(next_double(g) * dn);
    return r->flat[r->off[*u] + (int64_t)(next_double(g) * (double)r->deg[*u])];
}

/* The last tick of the segment that starts after tick `done` of a call: the tick
   the next row is due, or limit. */
static inline int64_t segment_end(const run_t *r, int64_t done, int64_t limit)
{
    return r->stride && r->due < limit - done ? done + r->due : limit;
}

/* Counts a segment of `ticks` off due; true, with due reset, when a row is due. */
static inline int row_due(run_t *r, int64_t ticks)
{
    if (!r->stride || (r->due -= ticks))
        return 0;
    r->due = r->stride;
    return 1;
}

int64_t qc_binary(run_t *r, int64_t limit)
{
    const double dn = (double)r->n;
    int8_t *op = r->state;
    const int64_t *table = r->table;
    const int64_t all_negative = r->end0, all_positive = r->end1;
    int64_t packed = r->counter;
    pcg64_random_t *const gen = pcg64(r->bg), g = *gen;
    r->nrows = 0;
    for (int64_t done = 0, k = 1; done < limit; done = k - 1) {
        for (const int64_t end = segment_end(r, done, limit); k <= end; k++) {
            int64_t u, v = draw_edge(r, &g, dn, &u);
            /* An equal pair's entry is (a, a, 0), so every pair is written. */
            const int64_t *t = table + 3 * (5 * (op[u] + 2) + (op[v] + 2));
            op[u] = (int8_t)t[0];
            op[v] = (int8_t)t[1];
            packed += t[2];
            if (packed == all_negative || packed == all_positive) {
                gen->state = g.state;
                r->counter = packed;
                return k;
            }
        }
        if (row_due(r, k - 1 - done)) {
            binary_row_t *row = (binary_row_t *)r->rows + r->nrows++;
            const int64_t n1 = r->n + 1, annihilations = packed / n1, positive = packed % n1;
            row->tick = r->tick + k - 1;
            row->s_plus = all_negative / n1 - annihilations;
            row->s_minus = (all_positive - r->n) / n1 - annihilations;
            row->w_plus = positive - row->s_plus;
            row->w_minus = r->n - positive - row->s_minus;
        }
    }
    gen->state = g.state;
    r->counter = packed;
    r->tick += limit;
    return limit;
}

/* 1 when x is q or q + 1, with no branch; exact while |x|, |q| < 2**62 (module docstring). */
#define IN_QQ1(x) ((uint64_t)(x) - (uint64_t)q <= 1)

/* (v - mean) ** 2 as CPython computes it. */
static inline double square(const run_t *r, int64_t v)
{
    return pow(fabs((double)v - r->mean), 2.0);
}

/* Fills lyapunov(), min and max of the values into row, in CPython's float operations
   and order. */
static void quantized_row(const run_t *r, quantized_row_t *row)
{
    const int64_t *val = r->state;
    double *squares = r->table, total = 0.0;
    int64_t least = val[0], most = val[0];
    for (int64_t i = 0; i < r->n; i++) {
        const int64_t v = val[i];
        if (squares) {
            double *slot = squares + (v - r->lo);
            if (*slot < 0.0)
                *slot = square(r, v);
            total += *slot;
        } else {
            total += square(r, v);
        }
        if (v < least)
            least = v;
        if (v > most)
            most = v;
    }
    row->lyap = total;
    row->vmin = least;
    row->vmax = most;
}

int64_t qc_quantized(run_t *r, int64_t limit)
{
    const double dn = (double)r->n;
    int64_t *val = r->state;
    const int64_t q = r->q, end0 = r->end0, end1 = r->end1;
    int64_t outside = r->counter;
    pcg64_random_t *const gen = pcg64(r->bg), g = *gen;
    r->nrows = 0;
    for (int64_t done = 0, k = 1; done < limit; done = k - 1) {
        for (const int64_t end = segment_end(r, done, limit); k <= end; k++) {
            int64_t u, v = draw_edge(r, &g, dn, &u);
            int64_t a = val[u], b = val[v];
            if (a - b > -2 && a - b < 2) {
                val[u] = b;
                val[v] = a;
                continue;
            }
            int64_t d = a > b ? 1 : -1;
            int64_t na = a - d, nb = b + d;
            val[u] = na;
            val[v] = nb;
            outside += IN_QQ1(a) - IN_QQ1(na) + IN_QQ1(b) - IN_QQ1(nb);
            if (outside == end0 || outside == end1) {
                gen->state = g.state;
                r->counter = outside;
                return k;
            }
        }
        if (row_due(r, k - 1 - done)) {
            quantized_row_t *row = (quantized_row_t *)r->rows + r->nrows++;
            row->tick = r->tick + k - 1;
            quantized_row(r, row);
        }
    }
    gen->state = g.state;
    r->counter = outside;
    r->tick += limit;
    return limit;
}
"""

CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-builtin-pow", "-lm")
CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


class Run(ctypes.Structure):
    """The C loops' ``run_t``: a run's pointers, constants and counter."""

    _fields_ = [("bitgen", _P), ("n", _I), ("deg", _P), ("off", _P), ("flat", _P),
                ("state", _P), ("counter", _I), ("end0", _I), ("end1", _I), ("table", _P),
                ("q", _I), ("mean", _D), ("lo", _I),
                ("stride", _I), ("due", _I), ("tick", _I), ("rows", _P), ("nrows", _I)]


# The trace rows the loops write, binary_row_t and quantized_row_t; their field
# names are a traced run's CSV header.
BINARY_ROW = np.dtype([(name, "i8") for name in ("tick", "s_plus", "s_minus", "w_plus",
                                                  "w_minus")])
QUANTIZED_ROW = np.dtype([("tick", "i8"), ("lyapunov", "f8"), ("value_min", "i8"),
                          ("value_max", "i8")])

_LOOP = ctypes.CFUNCTYPE(_I, _P, _I)  # (address of a Run, limit) -> ticks run
_DOUBLES = ctypes.CFUNCTYPE(None, _P, _P, _I)  # (bitgen_t address, out, k)
# The known-answer draws that load() compares with numpy's.
_GUARD_SEED, _GUARD_DRAWS = 20140905, 64
# A prototype of its own, so that ctypes.pythonapi's shared function is left as it is.
_capsule_pointer = ctypes.PYFUNCTYPE(_P, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def binary_table(table) -> ctypes.Array:
    """``consensus._binary_table(n)``, indexed [a][b] for opinions a, b in
    {-2, -1, 1, 2}, laid out as ``qc_binary`` reads it."""
    return (_I * 75)(*(x for a in range(-2, 3) for b in range(-2, 3)
                       for x in table[a][b] or (0, 0, 0)))


def bitgen(rng) -> int:
    """The address of ``rng``'s ``bitgen_t``, which the loops draw from."""
    return _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")


def library_path() -> Path:
    import hashlib  # here and in _build: 14 ms of imports that only a protocol run needs

    key = hashlib.sha256("\0".join((*CC, SOURCE)).encode()).hexdigest()[:16]
    return CACHE_DIR / f"qckernel-{key}.so"


def _build(path: Path) -> None:
    """Compile SOURCE to ``path``, which gets the whole library or nothing; OSError on
    failure. A successful build removes every other ``qckernel-*.so`` beside it."""
    import subprocess
    import tempfile

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=path.name, dir=path.parent)
    os.close(fd)
    try:
        # The source comes before CC's flags, so that -lm follows the code that calls pow.
        done = subprocess.run([CC[0], "-x", "c", "-", *CC[1:], "-o", str(tmp)],
                              input=SOURCE.encode(), capture_output=True)
        if done.returncode:
            raise OSError(f"{CC[0]} exited with {done.returncode}: {done.stderr.decode()}")
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    for stale in path.parent.glob("qckernel-*.so"):
        if stale != path:
            with suppress(OSError):
                stale.unlink()


def _draws_match(lib) -> bool:
    """True when ``qc_pcg64_doubles`` draws numpy's PCG64 stream bit for bit and leaves
    the generator where numpy's own draws leave it."""
    ours, numpys = (np.random.Generator(np.random.PCG64(_GUARD_SEED)) for _ in range(2))
    out = np.empty(_GUARD_DRAWS)
    _DOUBLES(("qc_pcg64_doubles", lib))(bitgen(ours), out.ctypes.data, _GUARD_DRAWS)
    return (np.array_equal(out, numpys.random(_GUARD_DRAWS))
            and ours.bit_generator.state == numpys.bit_generator.state)


@cache
def load() -> SimpleNamespace | None:
    """The compiled loops as ``binary`` and ``quantized``; None when no library
    can be built or loaded, or when its draws differ from numpy's PCG64."""
    path = library_path()
    try:
        if not path.is_file():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    if not _draws_match(lib):
        return None
    return SimpleNamespace(
        binary=_LOOP(("qc_binary", lib)),
        quantized=_LOOP(("qc_quantized", lib)),
        lib=lib,  # keeps the library loaded while its functions are in use
    )
