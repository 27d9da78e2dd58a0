"""Walk through one classifier subsystem from tuning to decision.

A single linear family f(xi, theta) = theta * xi drives the measurement
s' = -s + f + noise.  The demo tunes the rotation gain and phase budget,
integrates the filter-plus-rotator subsystem, and shows the winding
budget being respected while the parameter estimate settles.

Run:  python demos/prototype_walkthrough.py
"""

import math
from pathlib import Path

import numpy as np

from adasig import analysis, cli, config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "one_class_linear.json"


def main():
    cfg = config.load_config(str(CONFIG))
    print(f"experiment {cfg.name!r}  (hash {cfg.hash})")
    print(f"true family: {cfg.classes[cfg.true_class].name}, theta = {cfg.true_theta}")

    tuning = cli.run_tune(cfg)
    print("\n--- tuning ---")
    print(f"mismatch gain        c       = {tuning.c:.6f}")
    print(f"admissible supremum  gamma*  = {tuning.gamma_star:.6f}")
    print(f"working gain         gamma   = {tuning.gamma:.6f}")
    print(f"phase budget         h*      = {tuning.h_star:.6f}")
    print(f"winding number       k'      = {tuning.k_prime}")

    traj = cli.run_simulate(cfg)
    pconf = cfg.class_configs()[0]
    spent = analysis.convergence_report(traj, cfg.classes[0], cfg.true_theta,
                                        cli.theta_bound_for(cfg, tuning), pconf).winding_spent
    budget = math.pi - pconf.nu_x + 2.0 * math.pi * tuning.k_prime
    print("\n--- run ---")
    print(f"integrated {traj.times[-1]:.0f} time units, {len(traj.times)} samples")
    print(f"winding spent {spent:.4f} of budget {budget:.4f}")

    dec = cli.run_decide(cfg, traj, tuning)
    print("\n--- decision ---")
    print(f"status: {dec.status}, announced at t' = {dec.t_prime}")
    print(f"theta estimate {dec.theta_estimate:.4f} (true {cfg.true_theta})")

    theta_trace = traj.theta_hat[:, 0]
    for frac in (0.1, 0.5, 1.0):
        k = min(int(frac * (len(theta_trace) - 1)), len(theta_trace) - 1)
        print(f"  theta_hat at t={traj.times[k]:7.1f}: {theta_trace[k]:.4f}")
    _, x, y = traj.subsystem(0).T
    r = np.hypot(x, y)
    print(f"rotator radius stayed in [{r.min():.4f}, {r.max():.4f}] (unit circle)")


if __name__ == "__main__":
    main()
