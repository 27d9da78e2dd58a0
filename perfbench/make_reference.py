"""Regenerate perfbench/reference.json from the code in this checkout.

Usage, from the repository root:

    python3 perfbench/make_reference.py [WORKLOAD ...]

For every input set of each named workload (all three by default) it runs
one untraced and one traced operation, requires identical outputs from
the two, and stores the outputs and counts the benchmark compares against.
Only regenerate the reference when outputs are meant to change, and say
why in the change that does it. Decisions for another class than the true
one are stored as they are and listed on stderr.
"""
import json
import shutil
import sys

import run


def main(names) -> int:
    if not run.bootstrap():
        return 2
    import workloads as wl

    ref = wl.load_reference(run.REFERENCE)
    work = run.ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _generate(names or wl.WORKLOADS, ref, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _generate(names, ref, work) -> int:
    import metrics
    import workloads as wl
    from tracer import Tracer, install_layer_hooks, install_phase_hooks

    config_path, out_dir = work / "config.json", work / "out"
    for name in names:
        entries = {}
        for index in range(wl.N_INPUTS):
            config = wl.make_config(name, index)
            config_path.write_text(json.dumps(config))
            with Tracer() as tracer:
                install_phase_hooks(tracer)
                plain = wl.run_op(name, config_path, out_dir, tracer)
                install_layer_hooks(tracer)
                traced = wl.run_op(name, config_path, out_dir, tracer)
                counts = metrics.layer_counts(tracer, traced)
            if plain.exit_code != 0 or plain.signature != traced.signature:
                print(f"{name}[{index}]: exit {plain.exit_code}/{traced.exit_code}, "
                      "untraced and traced outputs differ or failed", file=sys.stderr)
                return 1
            entries[str(index)] = dict(plain.signature, counts=plain.counts(),
                                       layer_counts=counts)
            wrong = [d for d in plain.signature["decisions"]
                     if d["decided"] != wl.true_class(config)]
            print(f"{name}[{index}] theta={config['true']['theta']:.6f} "
                  f"decisions={[d['decided'] for d in plain.signature['decisions']]}"
                  + (f" WRONG {wrong}" if wrong else ""), file=sys.stderr, flush=True)
        ref[name] = entries
        run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
