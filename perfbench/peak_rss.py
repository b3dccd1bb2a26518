"""Run ``python -m MODULE ARGS...`` and, when it exits, write its peak
resident memory in KiB (``VmHWM``) to OUT.

Usage: ``python3 perfbench/peak_rss.py OUT MODULE ARGS...``

The rusage that ``wait4`` returns for a child does not serve: Linux starts
a child's ``ru_maxrss`` at the resident size of the process that spawned
it, so it reports the benchmark's own memory whenever that is larger.
``VmHWM`` belongs to the memory map the child got at ``exec``.
"""

import atexit
import runpy
import sys


def write_peak(out: str) -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(out, "w", encoding="ascii") as handle:
        handle.write(peak)


out, module = sys.argv[1], sys.argv[2]
atexit.register(write_peak, out)
sys.argv = [module, *sys.argv[3:]]
runpy.run_module(module, run_name="__main__", alter_sys=True)
