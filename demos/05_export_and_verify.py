"""Turning a depth weighting into an explicit experimental plan and back.

Run:  python demos/05_export_and_verify.py
"""

import numpy as np

from pairdesign import (
    ModelSpec,
    info_matrix_exact,
    mix_h,
    optimize_full,
    realize_design,
    variance_sweep_max_deviation,
)

rule = "_" * 64

spec = ModelSpec(5, 4)
result = optimize_full(spec)
design = result.design
print(f"K={spec.n_attributes}, S={spec.strength}: optimal support {result.support}")

explicit = realize_design(design)
print(f"\nrealized as {len(explicit.entries)} weighted ordered pairs")
print("first rows (i | j : weight):")
for pair, weight in explicit.entries[:4]:
    print(f"  {pair.first.to_text()} | {pair.second.to_text()} : {float(weight):.6g}")

print(rule)

# Round trip: the brute-force matrix of the realized plan must equal the
# closed-form block matrix of the depth weighting.
dense = info_matrix_exact(explicit)
block = mix_h(design).as_matrix()
print(f"\nbrute force vs closed form: max deviation {np.abs(dense.entries - block).max():.2e}")

sweep = variance_sweep_max_deviation(design, info=dense)
print(f"dense-solve variance vs closed form over every pair: {sweep:.2e}")

print(rule)

print(
    "\nthe same flow is available from the shell:\n"
    "  pairdesign optimize --k 5 --s 4 --export plan.csv\n"
    "  pairdesign verify plan.csv --oracle\n"
    "plus `pairdesign tables 1|2|3 --check`, `enumerate`, `hvalues`, `dims`."
)
