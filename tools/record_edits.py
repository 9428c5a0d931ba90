"""Record-edit check: does every single-entry edit of the sl2-q record fail a suite?

Usage, from the root of a checkout:

    python3 tools/record_edits.py          # bounds (2,2)
    python3 tools/record_edits.py 1 1      # bound_h bound_a

The edits are those of tests/test_record.py's record_edits: e_j added to one
basis entry of beta_H, beta_A, rho or mu_A, or one nonzero entry of beta_H,
beta_A, rho, mu_A, mu_H or Delta multiplied by q.  They are made on
actions.sl2_scenario(bound_h, bound_a), and every suite of cli.SUITES runs
on every edit, through test_record.failing_suites as in Tier-1.  Tier-1 runs
the bounds (1,1); at (2,2) there are more than 900 edits and the run takes
seconds, so it is not a Tier-1 test.

The tool prints the number of edits and the CPU time they took, then each
edit that no suite fails (UNSEEN) and each suite that no edit fails
(UNREAD).  The exit status is 0 when both lists are empty, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from homtwist import actions, cli  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "test_record", os.path.join(ROOT, "tests", "test_record.py")
)
test_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(test_record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bound_h", type=int, nargs="?", default=2)
    parser.add_argument("bound_a", type=int, nargs="?", default=2)
    args = parser.parse_args(argv)

    start = time.process_time()
    record = actions.sl2_scenario(args.bound_h, args.bound_a)
    failing = test_record.failing_suites(record)
    cpu = time.process_time() - start

    unseen = [name for name, suites in failing.items() if not suites]
    unread = [suite for suite in cli.SUITES if not any(suite in s for s in failing.values())]
    print(f"sl2-q({args.bound_h},{args.bound_a}): {len(failing)} edits, "
          f"{len(cli.SUITES)} suites, {cpu:.1f}s of CPU")
    for name in unseen:
        print(f"UNSEEN {name}")
    for suite in unread:
        print(f"UNREAD {suite}")
    return 1 if unseen or unread else 0


if __name__ == "__main__":
    sys.exit(main())
