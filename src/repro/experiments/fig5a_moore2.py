"""E2 / Fig 5a: router counts vs the diameter-2 Moore bound.

Curves: MB(k', 2) = 1 + k'², Slim Fly MMS (≈ 88% of the bound),
two-level flattened butterfly (≈ 21–25%), two-stage fat tree (linear
in k' — ≈ 1.6%), and diameter-2 Long Hop constructions (≈ 1%).
"""

from __future__ import annotations

from repro.analysis import claims
from repro.core.mms import MMSParams, mms_q_values
from repro.core.moore import moore_bound_diameter2, moore_fraction
from repro.experiments.common import ExperimentResult, Scale
from repro.topologies.longhop import long_hop_d2_configs
from repro.util.series import SeriesBundle


def fat_tree_2_routers(network_radix: int) -> int:
    """Two-stage folded Clos from radix-k' routers: k' edge + k'/2 core."""
    return network_radix + network_radix // 2


def run(scale=Scale.DEFAULT, seed=0, max_radix: int | None = None) -> ExperimentResult:
    scale = Scale.coerce(scale)
    if max_radix is None:
        max_radix = 40 if scale == Scale.QUICK else 100
    result = ExperimentResult("fig5a", "Moore bound comparison, diameter 2")
    bundle = SeriesBundle(
        title="Fig 5a: N_r vs k' (D=2)",
        xlabel="network radix k'",
        ylabel="number of routers N_r",
    )

    mb = bundle.new("Moore Bound 2")
    for k in range(4, max_radix + 1, 4):
        mb.append(k, moore_bound_diameter2(k))

    sf = bundle.new("Slim Fly MMS")
    rows = []
    for q in mms_q_values(int(max_radix * 2 / 3) + 2):
        p = MMSParams.from_q(q)
        if p.network_radix <= max_radix:
            sf.append(p.network_radix, p.num_routers)
            rows.append(
                [
                    "SF MMS",
                    p.network_radix,
                    p.num_routers,
                    round(100 * moore_fraction(p.num_routers, p.network_radix, 2), 1),
                ]
            )

    fbf = bundle.new("Flat. Butterfly")
    for c in range(3, max_radix // 2 + 2):
        k = 2 * (c - 1)
        if k <= max_radix:
            fbf.append(k, c * c)

    ft = bundle.new("Fat tree")
    for k in range(4, max_radix + 1, 4):
        ft.append(k, fat_tree_2_routers(k))

    lh = bundle.new("Long Hop")
    max_dims = 8 if scale == Scale.QUICK else 11
    for _, n_r, k in long_hop_d2_configs(max_dims):
        if k <= max_radix:
            lh.append(k, n_r)

    result.add_bundle(bundle)
    result.add_table(["construction", "k'", "Nr", "% of Moore bound"], rows)
    claims.note(result)
    return result
