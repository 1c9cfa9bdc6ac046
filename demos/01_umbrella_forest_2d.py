"""Build a small two-dimensional umbrella forest and look at it.

Every site draws a heavy-tailed umbrella length; the parent direction at a
site is the axis whose largest covering umbrella is smallest.  The script
prints the parent arrows on a small window, one ancestor ray, and the
supremum values at the origin.
"""

from umbrellaforest import build_forest, generate_field, ray
from umbrellaforest.fieldgen import default_params
from umbrellaforest.forest import lambda_field
from umbrellaforest.lattice import Window

window = Window.centered(21, 2, margin=16)
params = default_params(2, window, seed=2024)
field = generate_field(params)
forest = build_forest(field, zeta=1)

arrows = {1: ">", 2: "^"}
box = forest.box
print("parent directions (x right, y up):")
for y in range(box.hi[1], box.lo[1] - 1, -1):
    row = "".join(arrows[forest.axis_at((x, y))] for x in range(box.lo[0], box.hi[0] + 1))
    print("   " + row)

# the suprema over the whole field box, truncated at the margin
lam = lambda_field(field.values, 1, window.margin)
for axis in (1, 2):
    val = lam[(axis - 1,) + field.box.local((0, 0))]
    print(f"largest umbrella blocking axis {axis} at the origin: {val:.3f}")
print(f"parent of the origin: {forest.parent_of((0, 0))}")

chain = ray(forest, (0, 0))
print(f"ancestor ray from the origin ({len(chain)} sites before window exit):")
print("   " + " -> ".join(str(s) for s in chain[:8]) + (" ..." if len(chain) > 8 else ""))

dists = [sum(map(abs, s)) for s in chain]
assert dists == list(range(len(chain)))
print("one ancestor per l1-sphere, as directedness demands")
