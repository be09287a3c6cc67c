#!/usr/bin/env python3
"""Run the full measurement grid: four topology families, both protocols,
all three initial-condition settings, averaged over seeded rounds.

Writes one sweep CSV (plus per-round and reference-curve CSVs) per
combination into --out-dir and prints a fitted power-law exponent for each.
--full-grid switches every family from the desk-scale sizes to
n = 21..481 step 20. On one core of a 2-core x86-64 Linux box the desk grid
takes 0.9-1.7 s and the full grid 2.4-4.4 min, 70% of it line and lollipop
binary voting.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qconsensus.harness import (  # noqa: E402
    SweepConfig,
    default_n_values,
    fit_scaling,
    run_sweep,
    write_curves_csv,
    write_rounds_csv,
    write_sweep_csv,
)

SETTINGS = (
    ("binary", "majority_one"),
    ("quantized", "q_setting1"),
    ("quantized", "q_setting2"),
)
KINDS = ("star", "line", "lollipop", "erdos_renyi")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures_data")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--full-grid", action="store_true")
    parser.add_argument("--kinds", nargs="*", default=list(KINDS), choices=KINDS)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for kind in args.kinds:
        for protocol, init in SETTINGS:
            n_values = default_n_values(kind, args.full_grid)
            cfg = SweepConfig(kind=kind, n_values=n_values, protocol=protocol,
                              init=init, rounds=args.rounds, master_seed=args.seed)
            label = f"{kind}_{protocol}_{init}"
            t0 = time.time()
            records = run_sweep(cfg)
            elapsed = time.time() - t0
            write_sweep_csv(cfg, records, out_dir / f"{label}.csv")
            write_rounds_csv(records, out_dir / f"{label}_rounds.csv")
            write_curves_csv(cfg, records, out_dir / f"{label}_curves.csv")
            fit = fit_scaling(records)
            print(f"{label:45s} exponent={fit.exponent:5.2f} "
                  f"coeff={fit.coefficient:9.4g} [{elapsed:6.1f}s]")
    print(f"CSV files written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
