"""End-to-end walkthrough: recover a 20x20 resistor grid from measurements.

Simulates 50 voltage/current pairs on the ground-truth grid, learns a sparse
network from them, and compares spectra and effective resistances against
the truth.
"""

import numpy as np

import reslearn as rl


def main():
    truth = rl.grid_graph(20, 20)
    print(f"ground truth: {truth.node_count} nodes, "
          f"{truth.edge_count} edges (unit weights)")

    X, Y = rl.generate_measurement_set(truth, 50, seed=0)
    print(f"measurements: X is {X.shape[0]}x{X.shape[1]} "
          f"(one voltage column per unit current excitation)")

    learned, trace = rl.learn(X, Y)
    tree_edges = truth.node_count - 1
    print(f"\nlearning {trace.status} after {trace.iterations} iterations")
    print(f"learned graph: {learned.edge_count} edges "
          f"(spanning tree {tree_edges} + {learned.edge_count - tree_edges} "
          f"included candidates)")
    print("max sensitivity per iteration:",
          np.array2string(trace.s_max_history, precision=2,
                          suppress_small=False))

    lam_true, lam_learned, _ = rl.compare_spectra(truth, learned, 8)
    print("\nfirst nontrivial eigenvalues")
    print("  truth:  ", np.round(lam_true, 4))
    print("  learned:", np.round(lam_learned, 4))
    print("  ratios: ", np.round(lam_learned / lam_true, 3))

    _, r_true, r_learned, corr = rl.resistance_correlation(
        truth, learned, 1000, seed=0)
    print(f"\neffective-resistance correlation over "
          f"{len(r_true)} node pairs: pearson r = {corr:.4f}")

    coords = rl.eigensolve_smallest(learned, 2)[1]
    print(f"spectral layout coordinates span "
          f"x in [{coords[:, 0].min():.3f}, {coords[:, 0].max():.3f}], "
          f"y in [{coords[:, 1].min():.3f}, {coords[:, 1].max():.3f}]")


if __name__ == "__main__":
    main()
