"""Set-up phases of one fresh interpreter, as a CLI invocation pays them.

Imports spintensor, generates and loads the workload's first spec, and
builds its chiral and Dirac scenarios, then prints the phase times as
one JSON line.  The caller times the whole process from outside.

    python3 benchmarks/setup_probe.py --workload tetrad-grid --seed 1
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import spintensor  # noqa: F401  (the import is what is timed)
    from spintensor.scenarios import (
        chiral_scenario_from_spec,
        dirac_scenario_from_spec,
        load_scenario_spec,
    )

    imported = perf_counter()
    from workloads import make_workload

    spec = load_scenario_spec(make_workload(args.workload, args.seed).ops[0].spec)
    loaded = perf_counter()
    chiral_scenario_from_spec(spec)
    dirac_scenario_from_spec(spec)
    built = perf_counter()
    print(json.dumps({
        "import_s": imported - START,
        "spec_load_s": loaded - imported,
        "scenario_build_s": built - loaded,
    }))


if __name__ == "__main__":
    main()
