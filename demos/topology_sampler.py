"""Sample random rooted trees and look at the shapes that come out.

Every tree keeps the coordinator at the root, respects the depth cap,
and gives layer 1 at least the coverage bound's worth of stations.
"""

from collections import Counter

import numpy as np

from plcmac import generate_tree, min_first_layer, single_layer


def layer_profile(tree) -> str:
    sizes = Counter(tree.depth)  # nodes per depth
    return " ".join(f"L{d}:{sizes[d]}" for d in range(1, tree.max_depth + 1))


def main() -> None:
    print("coverage bound: smallest first layer that can still reach n stations")
    for n in (50, 200, 650, 1200):
        print(f"  n={n:5d} max_layers=6 -> first layer >= {min_first_layer(n, 6)}")

    print("\nten random trees over 60 stations, depth cap 6:")
    for seed in range(10):
        tree = generate_tree(60, 6, np.random.default_rng(seed))
        tree.validate(max_layers=6)
        print(f"  seed {seed}: depth {tree.max_depth}  {layer_profile(tree)}")

    print("\nthe degenerate shapes are one call away:")
    star = single_layer(8)
    print(f"  single_layer(8): depth {star.max_depth}, children of root {star.children[0]}")

    tree = generate_tree(12, 4, np.random.default_rng(3))
    print("\nedge list of a small sample (child parent depth):")
    print("\n".join("  " + line for line in tree.to_edge_list().splitlines()))


if __name__ == "__main__":
    main()
