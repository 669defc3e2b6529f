#!/usr/bin/env python3
"""Count the work of the bundled verify campaign, case by case.

Runs ``harness.run_suite`` on the bundled config with
``quadrature._panels_breadth_first`` (the one adaptive engine every
quadrature goes through, endpoint expansions and nested calls included)
wrapped to count its calls and the points it hands its integrands, and
``harness.run_case`` wrapped to attribute them and the wall time to cases.
Prints one line per case and the totals.  The counts are deterministic;
the seconds depend on the host.

Usage: python scripts/work_counts.py
"""

import time

from rough_hausdorff import harness, quadrature


def main() -> int:
    counts = {}  # case id -> [integrand points, engine calls, seconds]
    current = [None]
    engine, run_case = quadrature._panels_breadth_first, harness.run_case

    def counted_engine(g, *args):
        row = counts[current[0]]
        row[1] += 1

        def counted_g(x, owner):
            row[0] += len(x)
            return g(x, owner)

        return engine(counted_g, *args)

    def counted_case(case, tol_rel):
        current[0] = case.id
        counts[case.id] = row = [0, 0, 0.0]
        t0 = time.perf_counter()
        try:
            return run_case(case, tol_rel)
        finally:
            row[2] = time.perf_counter() - t0

    quadrature._panels_breadth_first, harness.run_case = counted_engine, counted_case
    try:
        harness.run_suite(harness.default_config())
    finally:
        quadrature._panels_breadth_first, harness.run_case = engine, run_case

    print(f"{'case':<28} {'integrand points':>16} {'engine calls':>12} {'seconds':>8}")
    for case_id, (points, calls, seconds) in counts.items():
        print(f"{case_id:<28} {points:>16,} {calls:>12,} {seconds:>8.3f}")
    points, calls, seconds = (sum(row[k] for row in counts.values()) for k in range(3))
    print(f"{'total':<28} {points:>16,} {calls:>12,} {seconds:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
