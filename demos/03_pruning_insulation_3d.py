"""Prune two opposite forests into disjoint insulated ray systems.

Two independent forests grow in opposite diagonal directions.  Sites whose
branch depth clears the opposite forest's insulation everywhere on their
own insulation ball are kept; whole ancestral lines of kept sites form the
pruned trees, and widening tubes around the leaf rays insulate them.  The
two insulation unions never certainly overlap.
"""

import numpy as np

from umbrellaforest import FRONTIER, IN, OUT, UNKNOWN, select_rays
from umbrellaforest.fieldgen import default_params
from umbrellaforest.lattice import Window
from umbrellaforest.pipeline import build_pruned_pair

params = default_params(3, Window.centered(40, 3, margin=10), seed=99)
pair = build_pruned_pair(params)

for i in (1, 2):
    keep = pair.keep[i - 1]
    chain = pair.chains[i - 1]
    ins = pair.insulation[i - 1]
    total = keep.size
    print(f"forest {i} (orientation {pair.forest_of(i).zeta:+d}):")
    print(f"   keep layer: {np.mean(keep == OUT):.1%} out, "
          f"{np.mean(keep == UNKNOWN):.1%} unknown, "
          f"{np.mean(keep == FRONTIER):.1%} frontier-clean, "
          f"{np.mean(keep == IN):.1%} certain")
    kept = chain.kept()
    print(f"   kept chains cover {np.mean(kept):.2%} of the window; "
          f"{len(ins.leaf_sites)} leaves")
    # IN stamps come from kept, frontier-leaning chains (no chain is IN)
    print(f"   insulated-ray cover: {np.mean(ins.ray_layer == IN):.2%} in the kept cover, "
          f"{np.mean(ins.ray_layer == UNKNOWN):.2%} unknown")

print(f"\ncertain insulation overlap sites: {len(pair.disjoint.certain_overlaps)}"
      f" (must be zero); unknown overlaps: {pair.disjoint.unknown_overlaps}")

rays = select_rays(pair.forests, [ins.leaf_sites for ins in pair.insulation], params.beta,
                  min_depth=6)
deep = rays[0]
print(f"\ndeepest kept ray: leaf {deep.leaf}, {deep.depth} ancestors, "
      f"orientation {deep.zeta:+d}")
print("tube radius grows like n^beta along the spine: "
      + ", ".join(f"n={n}: {deep.radius_at(n):.2f}" for n in (1, 8, 27, deep.depth)))
