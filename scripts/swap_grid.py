#!/usr/bin/env python3
"""Run the full 1024-execution two-party swap grid and summarize verdicts.

For every execution vector, monitors the generated log against the
liveness and safety specs and tallies the verdict sets. Use --delta and
--epsilon to explore the skew-fragility regime (try --delta 3 --epsilon 2).
Below --delta 3 some executions put two events on one chain at one time;
the script then prints one `swap_grid: ...` line on stderr and exits 65,
the exit code of `mtlmon gen` for the same refusal.
"""

import argparse
import collections
import sys
import time

from mtlmon.casegen import (
    ProtocolParams,
    enumerate_two_party_executions,
    gen_two_party_log,
    spec_library,
)
from mtlmon.errors import InputError
from mtlmon.pipeline import MonitorConfig, monitor


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=int, default=10)
    ap.add_argument("--epsilon", type=int, default=1)
    ap.add_argument("--segments", type=int, default=1)
    ap.add_argument("--spec", default="liveness_2p",
                    choices=sorted(spec_library()))
    args = ap.parse_args()

    params = ProtocolParams(delta=args.delta, epsilon=args.epsilon)
    t0 = time.perf_counter()
    try:
        logs = [gen_two_party_log(vec, params) for vec in enumerate_two_party_executions()]
    except ValueError as exc:  # the generator refuses a delta below 3
        print(f"swap_grid: {exc}; --delta 3 is the minimum", file=sys.stderr)
        return InputError.exit_code
    formula = spec_library(args.delta)[args.spec]
    cfg = MonitorConfig(epsilon=args.epsilon, segments=args.segments)
    tally = collections.Counter()
    for log in logs:
        report = monitor(log, formula, cfg)
        tally[" ".join(sorted(v.value for v in report.verdicts))] += 1
    dt = time.perf_counter() - t0
    print(f"spec {args.spec}, delta {args.delta}, epsilon {args.epsilon},"
          f" g {args.segments}: 1024 logs in {dt:.1f}s")
    for verdicts, count in sorted(tally.items()):
        print(f"  {{{verdicts}}}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
