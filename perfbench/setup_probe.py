"""Time one fresh-process set-up: import adasig, load a config, run tuning.

Usage: python3 setup_probe.py CONFIG_JSON  (with adasig on PYTHONPATH)

Prints {"setup_s": reference seconds, "wall_s": seconds} as its last line.
This is everything a CLI command does before its first RK4 step; the
interpreter's own start-up is not part of it. The wall time is scaled to
reference seconds by the calibration kernel of pace.py, run for a short
window right after the set-up (the kernel needs numpy, which the set-up
itself imports).
"""
import json
import sys
import time

WINDOW_S = 0.1

if __name__ == "__main__":
    t0 = time.perf_counter()
    from adasig import cli
    from adasig.config import load_config

    cli.run_tune(load_config(sys.argv[1]))
    wall = time.perf_counter() - t0

    import pace

    print(json.dumps({"setup_s": wall * pace.window_ratio(WINDOW_S), "wall_s": wall}))
