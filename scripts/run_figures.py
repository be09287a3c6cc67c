#!/usr/bin/env python3
"""Run the full measurement grid: four topology families, both protocols,
all three initial-condition settings, averaged over seeded rounds.

Each combination is one `qconsensus sweep --fit` run, which writes its sweep,
per-round and reference-curve CSVs into --out-dir and prints the combination's
label and fitted power law to stderr. The first combination that fails stops
the grid with its exit code. --full-grid switches every family from the
desk-scale sizes to n = 21..481 step 20.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qconsensus import cli  # noqa: E402
from qconsensus.harness import PROTOCOL_INITS  # noqa: E402

SETTINGS = tuple((protocol, init) for protocol, inits in PROTOCOL_INITS.items() for init in inits)
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
    out = out_dir.resolve()  # absolute, so that $QCONSENSUS_OUT_DIR does not move the files

    for kind in args.kinds:
        for protocol, init in SETTINGS:
            label = f"{kind}_{protocol}_{init}"
            print(f"{label:45s}", end="", file=sys.stderr, flush=True)
            code = cli.main([
                "sweep", "--topo", kind, "--protocol", protocol, "--init", init,
                "--rounds", str(args.rounds), "--seed", str(args.seed),
                *(["--full-grid"] if args.full_grid else []),
                "--out", str(out / f"{label}.csv"),
                "--rounds-out", str(out / f"{label}_rounds.csv"),
                "--curves-out", str(out / f"{label}_curves.csv"), "--fit"])
            if code:
                return code
    print(f"CSV files written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
