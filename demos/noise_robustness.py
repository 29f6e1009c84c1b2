"""How measurement noise degrades the learned network.

Adds relative voltage noise x + zeta*||x||*eps at increasing levels and
tracks the resistance correlation and the low end of the spectrum, which
stays usable even at zeta = 0.5.
"""

import numpy as np

import reslearn as rl


def main():
    truth = rl.grid_graph(15, 15)
    X, Y = rl.generate_measurement_set(truth, 50, seed=0)
    print(f"truth: 15x15 grid, {truth.edge_count} edges; "
          f"M = {Y.shape[1]} measurements\n")
    print(f"{'zeta':>6} {'pearson':>9} {'lambda ratios (first 3)':>28} "
          f"{'edges':>6}")
    for zeta in (0.0, 0.1, 0.25, 0.5):
        noisy = rl.add_noise(X, zeta, seed=1) if zeta else X
        learned, trace = rl.learn(noisy, Y)
        _, _, _, corr = rl.resistance_correlation(truth, learned, 800, seed=0)
        lam_t, lam_l, _ = rl.compare_spectra(truth, learned, 3)
        ratios = np.round(lam_l / lam_t, 3)
        print(f"{zeta:>6.2f} {corr:>9.4f} {str(ratios):>28} "
              f"{learned.edge_count:>6}")


if __name__ == "__main__":
    main()
