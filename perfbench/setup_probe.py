"""Time one cold set-up of a workload in this fresh interpreter: import
ponplace from the checkout, build the first instance and run one warm-up
cell.  Prints the seconds taken, as wall time and at the reference machine
speed (see ``speed.py``).  ``run.py`` starts it several times and reports
the median as ``setup_s``.  numpy is already imported by the speed probe
when the clock starts, so its import time is not counted.
"""

from __future__ import annotations

import argparse
import time

import checkout
import speed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sampler = speed.Sampler()
    with sampler.running():
        mark = sampler.mark()
        start = time.perf_counter()
        checkout.use_checkout_source()
        import workloads
        workloads.get(args.workload).warm_up(
            args.seed, checkout.work_dir("setup", args.workload))
        wall = time.perf_counter() - start
        span = sampler.since(mark)
    print(repr(wall), repr(span.reference_s(wall, speed.REFERENCE_PROBE_S)))


if __name__ == "__main__":
    main()
