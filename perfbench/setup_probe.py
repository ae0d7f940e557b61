"""Time the program's set-up in a fresh interpreter; print it as JSON.

Run by ``run.py`` once per set-up sample:

    python3 perfbench/setup_probe.py --workload grid --kb <case-base file> --seed 0

The clock starts before the package is imported and stops when the
first decision has been taken, so import, loading and any index built
on first use are all counted.  Yardstick runs just before and after
give the host-speed correction (see ``yardstick.py``).
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
YARDSTICK_RUNS = 5


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--kb", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import yardstick

    yardstick.measure()  # first run warms the interpreter's caches
    samples = [yardstick.measure() for _ in range(YARDSTICK_RUNS)]
    start = time.perf_counter()
    from workloads import setup_first_decision

    setup_first_decision(args.workload, HERE.parent, Path(args.kb), args.seed)
    raw = time.perf_counter() - start
    samples += [yardstick.measure() for _ in range(YARDSTICK_RUNS)]
    print(json.dumps({"raw_s": raw, "corrected_s": raw / yardstick.factor(samples)}))


if __name__ == "__main__":
    main()
