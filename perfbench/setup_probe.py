"""One set-up measurement: a fresh interpreter imports sievelab and does the
precompute a workload needs before it sieves.

    python3 setup_probe.py '<json spec>'

The spec holds either "instances" (poly, m, u, y), for which the residue
ladders are built with build_lift_tables, or "model" (d, y, seed), the
Monte Carlo sampling model, which has no ladders to build.  The probe
prints the versions it ran with as one JSON line.
"""

import json
import sys


def main() -> None:
    spec = json.loads(sys.argv[1])
    import numpy
    import sievelab
    from sievelab.experiments import RandomModel
    from sievelab.poly import SievePolynomial
    from sievelab.roots import build_lift_tables

    for inst in spec.get("instances", ()):
        build_lift_tables(SievePolynomial(tuple(inst["poly"]), inst["m"]), inst["u"], inst["y"])
    if "model" in spec:
        model = spec["model"]
        RandomModel(model["d"], model["y"], model["seed"]).modulus
    print(json.dumps({"sievelab": sievelab.__version__, "file": sievelab.__file__, "numpy": numpy.__version__}))


if __name__ == "__main__":
    main()
