"""Write reference/campaign.json: the bundled campaign's rows, case by case.

    python3 benchmark/make_reference.py

Runs every case of the bundled config once, in config order, through
``harness.run_case``, and stores (quantity, value, verdict) per case.  The
stored file is the reference the ``campaign`` workload checks against; it
was written at the commit that introduced the benchmark, and a change that
moves a value beyond the config's ``ratio_rel`` or any verdict shows up as
a failed case.
"""

import json
import os
import sys

import run


def main() -> int:
    run._import_package()
    import workloads

    config = workloads.harness.default_config()
    cases = {}
    for case in workloads.campaign_cases(config):
        rows = workloads.row_tuples(workloads.harness.run_case(case, float(config["tolerances"]["ratio_rel"])))
        if len({q for q, _, _ in rows}) != len(rows):
            sys.exit(f"case {case.id}: quantities are not unique")
        cases[case.id] = rows
        print(f"{case.id}: {len(rows)} rows", file=sys.stderr)
    os.makedirs(os.path.dirname(workloads.CAMPAIGN_REFERENCE), exist_ok=True)
    with open(workloads.CAMPAIGN_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"ratio_rel": config["tolerances"]["ratio_rel"], "cases": cases}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
