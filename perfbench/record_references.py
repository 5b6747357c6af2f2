"""Record the reference answers the correctness gate compares against.

    python3 perfbench/record_references.py

For the first rounds of each workload's input stream at the default seed,
it stores every cell's total power (both sweeps) and the sha256 of every
round's ``solution.txt`` (round trip), keyed by cell, in
``perfbench/references.json``.  The gate checks any cell that has an entry,
whatever ``--seed`` produced it.  Re-record only when an output is meant
to change.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from pathlib import Path

import checkout

#: Rounds recorded per workload: a few times what one run measures at the
#: commit the references were recorded at.
ROUNDS = {"paper_eepiv_sweep": 8, "reduced_exact_sweep": 3,
          "reduced_export_roundtrip": 100}


def main() -> None:
    checkout.use_checkout_source()
    import run
    import workloads

    refs = {}
    for name, rounds in ROUNDS.items():
        workload = workloads.get(name)
        work = checkout.work_dir("references", name)
        refs[name] = {}
        for inp in islice(workload.inputs(run.DEFAULT_SEED), rounds):
            out = workload.run(inp, work)
            if name == "reduced_export_roundtrip":
                digest = hashlib.sha256(
                    (work / "solution.txt").read_bytes()).hexdigest()
                refs[name][inp.id] = digest
            else:
                for sc, r, s in workload.cells(inp):
                    refs[name][workloads.cell_id(sc, r, s)] = \
                        out.cell(sc, r, workload.engine, s).report.total_w
        print(f"{name}: {len(refs[name])} cells")
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
