"""Self-checks of the benchmark itself, for one workload and seed.

    python3 benchmark/selfcheck.py --workload norms --seed 1

* determinism: two traced runs give identical work counts;
* transparency: traced outputs equal untraced outputs, value for value;
* overhead: traced op time against untraced op time over the same rounds.

Each run is the workload's ``trace_rounds`` rounds, built afresh from the
seed.  On ``campaign`` that is three passes over the bundled campaign.
Exit status 0 when both checks hold, 1 otherwise.
"""

import argparse
import sys
import time

import run

COUNTS = ("quadrature.calls", "quadrature.integrand_evals", "quadrature.integrand_points",
          "operators.radial_apply_calls", "operators.image_calls", "weights.ball_mass_calls")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "norms", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    run._import_package()
    import tracer as tracing
    import workloads

    case_ids = [c["id"] for c in workloads.harness.default_config()["cases"]]
    make = workloads.WORKLOADS[args.workload]
    rounds = make.trace_rounds

    plain = run.execute(make(args.seed), 0.0, rounds=rounds)
    traced = []
    for _ in range(2):
        tracer = tracing.Tracer()
        result = run.execute(make(args.seed), 0.0, tracer, rounds=rounds)
        traced.append((result, tracer.metrics(case_ids, 0.0)))

    ok = True
    for name in COUNTS:
        first, second = (m[name][0] for _, m in traced)
        same = first == second
        ok &= same
        print(f"{'ok  ' if same else 'DIFF'} {name}: {first} / {second}")
    for i, (result, _) in enumerate(traced):
        same = result["outputs"] == plain["outputs"]
        ok &= same
        print(f"{'ok  ' if same else 'DIFF'} traced run {i + 1} outputs equal the untraced outputs "
              f"({len(plain['outputs'])} ops)")
    base = sum(dt for *_, dt in plain["ops"])
    for i, (result, _) in enumerate(traced):
        wall = sum(dt for *_, dt in result["ops"])
        print(f"traced run {i + 1}: {wall:.3f} s against {base:.3f} s untraced (overhead {wall / base - 1.0:+.1%})")
    print(f"failures: untraced {len(plain['failures'])}, traced {[len(r['failures']) for r, _ in traced]}")
    return 0 if ok else 1


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"selfcheck finished in {time.perf_counter() - t0:.1f} s")
    sys.exit(code)
