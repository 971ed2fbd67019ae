"""Set-up probe: one fresh process, from start to the first runnable scenario.

``run.py`` starts this script several times per run and times each
start up to the ``ready`` line: interpreter start, ``import repro``,
spec construction, the first (cold) ``compile_properties`` of the
workload's property sets, and for ``regress-http`` spawning the worker
until its ``/healthz`` answers.  A CLI user pays all of this on every
invocation.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    name, seed = argv[0], int(argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro  # noqa: F401 -- part of what is timed
    from workloads import make_workload

    workload = make_workload(name, seed, ROOT, os.environ["TMPDIR"])
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
