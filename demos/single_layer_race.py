"""Race the three association mechanisms over one flat 100-station network.

Same topology, same seed policy, same slot schedule. The differences in
total time come entirely from what each protocol sends per cycle and how
it sizes its contention window.
"""

from plcmac import Protocol, RunConfig, run_formation, single_layer
from plcmac.engine import formation_key


def race(n: int, slot_ratio: float, seed: int) -> None:
    tree = single_layer(n)
    print(f"n={n}, slot ratio {slot_ratio}, seed {seed}")
    print(f"  {'protocol':10s} {'total ms':>10s} {'cycles':>7s} {'data frames':>12s} {'preambles':>10s}")
    for protocol in Protocol:
        # the key of trial 0 of a single-layer sweep with this seed, so the rows match that sweep's
        result = run_formation(protocol, tree, RunConfig(), slot_ratio, formation_key(seed, n, 0, protocol, slot_ratio))
        print(
            f"  {protocol.value:10s} {result.total_us / 1000:10.1f} {result.nc_count:7d} "
            f"{result.data_frames:12d} {result.preambles:10d}"
        )
    print()


def main() -> None:
    for ratio in (0.5, 1.0, 2.0):
        race(100, ratio, seed=7)
    print("the batched protocol pays one announcement and a handful of batched")
    print("frames per cycle; the unbatched one pays three data frames per join;")
    print("the association baseline pays a full data slot per contention slot.")


if __name__ == "__main__":
    main()
