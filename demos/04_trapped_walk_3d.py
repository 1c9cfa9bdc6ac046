"""Trap a random walk inside an insulated tube, in both directions.

The patched environment pushes the walk up the covering ray (probability
3/4) and toward its spine (probability 1/5) while staying uniformly
elliptic, so a walk started deep inside a tube tends to ride it forever.
Walks in the tube of the opposite forest drift the opposite way: the same
environment is transient in both diagonal directions with positive
probability, which is exactly the advertised zero-one-law violation.
"""

from umbrellaforest.fieldgen import default_params
from umbrellaforest.lattice import Window
from umbrellaforest.pipeline import (build_pruned_pair, build_patched, select_rays,
                                     trap_experiment)
from umbrellaforest.pruning import IN

params = default_params(3, Window.centered(48, 3, margin=10), seed=31)
pair = build_pruned_pair(params)
rays = select_rays(pair.forests, [ins.leaf_sites for ins in pair.insulation], params.beta,
                   min_depth=6)
inside = tuple(ins.ray_layer == IN for ins in pair.insulation)
env = build_patched(params, rays, pair.ins_sup, inside)
print(f"patched environment: horizon factor {env.horizon_factor:.2f}, "
      f"{len(env.rays)} tubes")

run = trap_experiment(env, inside, horizon=4000, replicas=400, walk_seed=params.seed)
for name in ("orient_1", "orient_2", "control"):
    est = run.estimates[name]
    lo, hi = est.ci
    drift = est.drift_quantiles.get("p05")
    start = run.batches[name].config.start
    print(f"{name:>9}: start {start}, survival {est.survival_fraction:.2f} "
          f"[{lo:.2f}, {hi:.2f}], censored-at-buffer {est.truncated}, "
          f"5th-pct drift {'n/a' if drift is None else f'{drift:+.2f}'}")

print("\nsurvivors of orientation 1 drift toward +(1,1,1), orientation 2 toward "
      "-(1,1,1); the uniform control loses its tube almost immediately.")
