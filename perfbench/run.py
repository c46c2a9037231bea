"""Run one workload of the adalab benchmark and print its metrics.

    python3 perfbench/run.py --workload attack-real --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository: adalab is imported
from the checkout's ``src`` directory, never from an installed copy. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes
the run (environment, seeds, trials, records digest, failed checks).
"""

from __future__ import annotations

import argparse
import sys

import bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (bench.SRC / "adalab" / "__init__.py").is_file():
        print(f"adalab sources not found under {bench.SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    import adalab
    from workloads import WORKLOADS

    if not adalab.__file__.startswith(str(bench.SRC)):
        print(f"imported adalab from {adalab.__file__}, not from {bench.SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        return 0

    if args.trace:
        metrics, facts, recorder = bench.measure_traced(args.workload, args.seed)
        bench.OUT.mkdir(exist_ok=True)
        spans_path = bench.OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        recorder.write(spans_path)
        facts["spans_file"] = str(spans_path.relative_to(bench.ROOT))
    else:
        metrics, facts = bench.measure(args.workload, args.seed, args.seconds)
        setup_s, probes = bench.setup_seconds(args.workload, args.seed)
        metrics["setup_s"] = bench.metric(setup_s, "s")
        facts["setup_wall_s"] = probes
    facts["env"] = bench.environment(args.seed)
    bench.emit(metrics, facts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
