"""Reduced-network learning from a subset of node voltages.

Keeps 20% and 10% of the voltage rows (no currents at all) and learns
proportionally smaller connected networks over the kept nodes.
"""

import reslearn as rl


def main():
    truth = rl.grid_graph(20, 20)
    ms = rl.generate_measurement_set(truth, 50, seed=0)
    print(f"original network: {truth.node_count} nodes, "
          f"{truth.edge_count} edges\n")
    for fraction in (0.2, 0.1):
        X_red, kept = rl.subsample_nodes(ms.X, fraction, seed=3)
        learned, trace = rl.learn(X_red, None)  # voltages only, no scaling
        factor = truth.node_count / learned.node_count
        connected = rl.is_connected(learned)
        lam = rl.eigensolve_smallest(learned, 3).eigenvalues
        print(f"fraction {fraction:.1f}: {learned.node_count} nodes "
              f"({factor:.0f}x smaller), {learned.edge_count} edges, "
              f"{trace.status}, connected={connected}")
        print(f"  first nontrivial eigenvalues: "
              f"{[round(v, 5) for v in lam.tolist()]}\n")


if __name__ == "__main__":
    main()
