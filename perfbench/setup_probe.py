"""Set-up probe, run in a fresh interpreter for every setup_s sample.

Imports homtwist from the checkout and builds the workload's scenario through
the public constructors, then prints the basis sizes so that the parent can
check that the build succeeded.

    python3 perfbench/setup_probe.py sl2 BOUND_H BOUND_A
    python3 perfbench/setup_probe.py finalg SCENARIO_FILE
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from homtwist import actions, finalg  # noqa: E402


def main(argv):
    if argv[0] == "sl2":
        scenario = actions.deformed_scenario(int(argv[1]), int(argv[2]))
    else:
        scenario = finalg.build_example31(*finalg.load_scenario(argv[1]))
    print(len(scenario.H.basis), len(scenario.A.basis))


if __name__ == "__main__":
    main(sys.argv[1:])
