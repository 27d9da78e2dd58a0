"""Replace the hand-designed subsystems with fitted sigmoid networks.

Each classifier subsystem is a smooth 3-state vector field, so it can be
approximated by a random-feature sigmoid network fitted with ridge
regression on a box covering the reachable states.  The demo fits one
network per class, reports the sup-norm fit error eps_N, checks the
trajectory divergence bound (eps_N / L_i) * (exp(L_i t) - 1) over a short
horizon, and confirms the network bank reaches the same decision as the
prototype bank.

Run:  python demos/network_realization.py
"""

from pathlib import Path

from adasig import cli, config, rnn
from adasig.config import sub_seed

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "rnn_demo.json"


def main():
    cfg = config.load_config(str(CONFIG))
    names = [c.name for c in cfg.classes]
    print(f"fitting {len(names)} networks, N = {cfg.rnn.N} units each...")
    nets, train_errors = cli.fit_bank(cfg)
    for name, net, train_error in zip(names, nets, train_errors):
        print(f"  {name:<18} train sup err {train_error:.4g}, "
              f"validation eps_N {net.eps_N:.4g}")

    check_h = cfg.rnn.check_horizon
    print(f"\ndivergence check over {check_h} time units:")
    traj_p = cli.run_simulate(cfg, horizon=check_h)
    traj_r = cli.run_simulate(cfg, horizon=check_h, bank=nets)
    configs = cfg.class_configs()
    for i, (name, net) in enumerate(zip(names, nets)):
        L_i = rnn.estimate_rhs_lipschitz(
            cfg.classes[i], configs[i], cfg.plant.phi, net.domain,
            seed=sub_seed(cfg.seed, f"lip_{i}"),
        )
        rep = rnn.divergence_check(traj_p, traj_r, net.eps_N, L_i, class_index=i)
        print(f"  {name:<18} L_i={L_i:.2f}  max gap {rep.max_gap:.4g} "
              f"<= bound {rep.max_bound:.4g}  ({'ok' if rep.passed else 'VIOLATED'})")

    print("\nfull-horizon comparison:")
    tuning = cli.run_tune(cfg)
    dec_p = cli.run_decide(cfg, cli.run_simulate(cfg), tuning)
    dec_r = cli.run_decide(cfg, cli.run_simulate(cfg, bank=nets), tuning)
    print(f"  prototype bank decides class {dec_p.decided} at t'={dec_p.t_prime}")
    print(f"  network bank   decides class {dec_r.decided} at t'={dec_r.t_prime}")
    print(f"  agreement: {dec_p.decided == dec_r.decided}")


if __name__ == "__main__":
    main()
