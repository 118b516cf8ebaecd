"""Regenerate benchmark/reference.json, the outputs every benchmark run is
checked against.

    python3 benchmark/make_reference.py

Only rerun it for a change that is meant to alter results; a change meant
to be a pure speed-up must pass against the stored file.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SEED = 0
ITEMS = 64
PEC_CIRCUITS = 2

# delta_c depends only on the model and the noise; delta_m and O_m also on
# which (equally valid) certificates the search picked, which moves delta_m
# by about 0.2% and log O_m by up to 3e-3 between search seeds.
TOLERANCE = {
    "delta_c_rel": 1e-6,
    "delta_m_rel": 1e-2,
    "log_o_c_abs": 1e-9,
    "log_o_m_abs": 1e-2,
}


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from cyclebench import cli, learnability, pipeline

    cfg = cli.parse_config(dict(workloads.FIG6))
    plan = workloads.build_garnet_plan(cfg)
    items = []
    for i in range(ITEMS):
        _, res = pipeline.sweep_item(
            plan, REFERENCE_SEED, i, cfg.sigma, cfg.sigma_prime, cfg.baseline
        )
        items.append([res.delta_c, res.delta_m])
    rows = workloads.run_pec_model(plan, cfg, REFERENCE_SEED, PEC_CIRCUITS)
    recovery = learnability.mlcb_recovery(cfg.topology, cfg.layers)
    garnet = {
        "epsilons": {workloads.entry_key(e): str(e.expression.epsilon) for e in plan.mu_entries},
        "items": items,
        "pec": [[r["W"], math.log(r["O_c"]), math.log(r["O_m"])] for r in rows],
        "unlearnable_dof": {
            layer.label: learnability.analyze_layer(layer, plan.generators).unlearnable_dof
            for layer in cfg.layers
        },
        "recovered_dof": sum(r for _, r in recovery.values()),
    }
    payload = {
        "seed": REFERENCE_SEED,
        "pec_circuits": PEC_CIRCUITS,
        "tolerance": TOLERANCE,
        "garnet20": garnet,
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
