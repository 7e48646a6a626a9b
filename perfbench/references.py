"""Recompute the reference values behind the benchmark's tolerances.

    python3 perfbench/references.py --seeds 0,1,2,3,4,5,6,7,8,9

For each workload and seed it runs one round and prints, as JSON, the
perturbed c, the walk's count / Li(T^delta) at every threshold, the gap
between the orbit and operator dimensions, and the decay rates.  The
checks in checks.py bound exactly these quantities; README.md lists the
values this printed on the reference box.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import checks
import run
from workloads import WORKLOADS


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    program = run.import_program()
    for name in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            workdir = run.OUT / f"references-{name}-{seed}-{os.getpid()}"
            try:
                bench = run.Bench(program, WORKLOADS[name], seed, workdir)
                bench.setup()
                r = bench.run_round(0)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            rows, walk, delta = r.walks[0]
            (_, dim_out, _), (_, dec_out, _) = r.operator[0]
            dims = {rec["method"]: rec["value"] for rec in json.loads(dim_out)}
            print(json.dumps({
                "workload": name, "seed": seed,
                "c": {k: [v.real, v.imag] for k, v in bench.c.items()},
                "delta": delta,
                "li_ratios": [round(cnt / checks.li(t**delta), 4) for t, cnt in rows],
                "counts": [cnt for _, cnt in rows],
                "walk_nodes": walk.nodes,
                "dimension_gap": dims["gap"],
                "decay_rates": {f"{row['b']},{row['k']}": float(row["rate"]) for row in checks.parse_csv(dec_out)},
            }), flush=True)


if __name__ == "__main__":
    main()
