"""E3 / Fig 5b: router counts vs the diameter-3 Moore bound.

Curves: MB(k', 3), Delorme graphs (≈ 68% of the bound), BDF graphs
(≈ 30%), Dragonfly (≈ 14%), three-level flattened butterfly (≈ 4.9%).
"""

from __future__ import annotations

from repro.analysis import claims
from repro.core.bdf import bdf_params, bdf_u_values
from repro.core.delorme import delorme_configs
from repro.core.moore import moore_bound_diameter3, moore_fraction
from repro.experiments.common import ExperimentResult, Scale
from repro.util.series import SeriesBundle


def run(scale=Scale.DEFAULT, seed=0, max_radix: int | None = None) -> ExperimentResult:
    scale = Scale.coerce(scale)
    if max_radix is None:
        max_radix = 40 if scale == Scale.QUICK else 90
    result = ExperimentResult("fig5b", "Moore bound comparison, diameter 3")
    bundle = SeriesBundle(
        title="Fig 5b: N_r vs k' (D=3)",
        xlabel="network radix k'",
        ylabel="number of routers N_r",
    )
    rows = []

    mb = bundle.new("Moore Bound 3")
    for k in range(4, max_radix + 1, 4):
        mb.append(k, moore_bound_diameter3(k))

    delorme = bundle.new("Slim Fly DEL")
    for v, n_r, k in delorme_configs(max_radix):
        delorme.append(k, n_r)
        rows.append(["DEL", k, n_r, round(100 * moore_fraction(n_r, k, 3), 1)])

    bdf = bundle.new("Slim Fly BDF")
    for u in bdf_u_values(max_radix):
        n_r, k = bdf_params(u)
        bdf.append(k, n_r)
        rows.append(["BDF", k, n_r, round(100 * moore_fraction(n_r, k, 3), 1)])

    df = bundle.new("Dragonfly")
    for h in range(2, max_radix // 3 + 2):
        k = 3 * h - 1  # balanced: k' = a−1+h = 3h−1
        n_r = 2 * h * (2 * h * h + 1)
        if k <= max_radix:
            df.append(k, n_r)
            rows.append(["DF", k, n_r, round(100 * moore_fraction(n_r, k, 3), 1)])

    fbf = bundle.new("Flat. Butterfly")
    for c in range(3, max_radix // 3 + 2):
        k = 3 * (c - 1)
        if k <= max_radix:
            fbf.append(k, c**3)
            rows.append(["FBF-3", k, c**3, round(100 * moore_fraction(c**3, k, 3), 1)])

    result.add_bundle(bundle)
    result.add_table(["construction", "k'", "Nr", "% of Moore bound"], rows)
    claims.note(result)
    return result
