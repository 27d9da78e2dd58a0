"""Classify which of three nonlinear families generated a noisy measurement.

Three candidate families (linear, sine, quadratic-affine) run side by side
against one measured signal.  Only the matched subsystem can hold its filter
residual inside the noise band for a long stretch; the decision rule waits
for a window in which exactly one class does so, then reads the parameter
estimate off that subsystem's rotator phase.

Run:  python demos/three_class_classification.py
"""

from pathlib import Path

import numpy as np

from adasig import cli, config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "three_class.json"


def main():
    cfg = config.load_config(str(CONFIG))
    names = [c.name for c in cfg.classes]
    print(f"candidate families: {names}")
    print(f"ground truth: class {cfg.true_class} ({names[cfg.true_class]}), "
          f"theta = {cfg.true_theta}, noise bound {cfg.plant.noise_bound}")

    tuning = cli.run_tune(cfg)
    print(f"\nworking gain gamma = {tuning.gamma:.4f}, "
          f"dead-zone epsilon = {tuning.epsilon:.2e}, "
          f"guaranteed accuracy radius = {tuning.error_bound:.3f}")

    print("\nintegrating the bank (this takes a few seconds)...")
    traj = cli.run_simulate(cfg)

    # residual each subsystem would have to defend
    print(f"\n{'class':<18} {'final |h_f|':>12} {'final theta_hat':>16}")
    for i, name in enumerate(names):
        hf = abs(traj.hf[-1, i])
        th = traj.theta_hat[-1, i]
        print(f"{i}: {name:<15} {hf:12.4f} {th:16.4f}")

    dec = cli.run_decide(cfg, traj, tuning)
    print(f"\ndecision: class {dec.decided} ({names[dec.decided]}) "
          f"announced at t' = {dec.t_prime}")
    err = abs(dec.theta_estimate - cfg.true_theta)
    print(f"theta estimate {dec.theta_estimate:.4f}, error {err:.4f} "
          f"(guarantee {tuning.error_bound:.3f})")

    # mismatched subsystems keep accruing rotator phase; the matched one stalls
    print("\nrotator phase accrued over the run:")
    for i, name in enumerate(names):
        _, x, y = traj.subsystem(i).T
        nu = np.unwrap(np.arctan2(y, x))
        print(f"  {name:<18} {nu[-1] - nu[0]:8.2f} rad")


if __name__ == "__main__":
    main()
