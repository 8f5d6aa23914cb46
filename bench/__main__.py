"""``python3 -m bench`` — the repository benchmark.

  python3 -m bench                               all workloads, both passes
  python3 -m bench --workload a,b --seed 11      some workloads, another input
  python3 -m bench --smoke                       1/20 devices, seconds not minutes
  python3 -m bench --workload W --seed N --seconds S --trace 0|1
        one pass of one workload; the last line of stdout is one JSON object
        {"correct", "attempted", "failed", "metrics"} (end-to-end metrics
        with --trace 0, per-layer metrics with --trace 1)
  python3 -m bench --ab OTHER_SRC [--pairs 10]   paired A/B of two source trees

Prints one line per metric, ``workload metric value unit [min max n]``, and
writes ``bench/out/latest.json``.  Exits non-zero if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from . import OUT, SRC

#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 30
PAPER_NOTE = (
    "paper Table 1: Venn 1.63-1.88x, SRSF 1.41-1.69x over random. "
    "4 000-device reproduction, trend check only — the repo holds no "
    "reference results, the model is unvalidated, no error figure is given"
)


def _print_metrics(name: str, metrics: dict) -> None:
    for metric, m in metrics.items():
        value = m["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        line = f"{name} {metric} {shown} {m['unit']}"
        if "n" in m:
            line += f" [{m['min']:.6g} {m['max']:.6g} {m['n']}]"
            if m["noisy"]:
                line += " noisy: true"
        print(line)
        if metric == "analysis.jct_speedup_vs_srsf" and m["value"]:
            print(f"{name} note {PAPER_NOTE}")


def _print_result(result: dict) -> None:
    name = result["workload"]
    timed = {**result.get("end_to_end", {}), **result.get("host_times", {})}
    _print_metrics(name, timed)
    _print_metrics(
        name, {k: m for k, m in result.get("per_layer", {}).items() if k not in timed}
    )
    if "digests" in result:
        # Information, not a metric: a change that only makes the simulator
        # faster must leave these as they are.
        digests = list(result["digests"].values())
        shown = digests[0] if len(digests) == 1 else f"{len(digests)} cell digests"
        print(f"{name} metrics_digest {shown} events {result['events']}")
    share = result["failed"] / result["attempted"]
    print(f"{name} failed_share {share:.6g} ratio [{result['failed']} of {result['attempted']} ops]")
    for failure in result["failures"]:
        print(f"{name} FAILED {failure}")


def _ab(names, seed: int, other: Path, pairs: int, smoke: bool) -> int:
    """Paired comparison of two source trees with identical benchmark code:
    one untraced repeat per side per pair, the side that goes first flipping
    every pair."""
    from .harness import ledger, spawn
    from .metrics import END_TO_END, HOST_TIMES, end_to_end, host_times

    failed = 0
    sides = {"A": SRC, "B": other}
    for name in names:
        records = {"A": [], "B": []}
        for pair in range(pairs):
            for side in ("AB", "BA")[pair % 2]:
                records[side].append(spawn(name, seed, "plain", smoke, src=sides[side]))
        for side in "AB":
            for failure in ledger(records[side], [], None)["failures"]:
                failed += 1
                print(f"{name} FAILED side {side} ({sides[side]}): {failure}")
        good = [
            (a, b)
            for a, b in zip(records["A"], records["B"])
            if "error" not in a and "error" not in b
        ]
        if not good:
            continue
        if good[0][0]["digests"] != good[0][1]["digests"]:
            failed += 1
            print(f"{name} FAILED metrics_digest differs between the sides")
        columns = {
            side: [{**end_to_end([pair[i]]), **host_times([pair[i]])} for pair in good]
            for i, side in enumerate("AB")
        }
        for metric, (unit, better, *_bound) in {**END_TO_END, **HOST_TIMES}.items():
            a = [c[metric]["value"] for c in columns["A"]]
            b = [c[metric]["value"] for c in columns["B"]]
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
            ties = sum(x == y for x, y in zip(a, b))
            line = f"{name} {metric} {unit}"
            for side, values in (("A", a), ("B", b)):
                q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
                line += f" {side} median {median(values):.6g} quartiles {q1:.6g} {q3:.6g}"
            print(f"{line} B wins {wins} of {len(a)} pairs, {ties} ties")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", "--workloads", default=None,
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds the input generators only (default 7)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed repeats of one workload go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one pass only, result as a last JSON line")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 devices, one timed repeat (sweep: quick preset)")
    parser.add_argument("--ab", type=Path, default=None, metavar="OTHER_SRC",
                        help="compare src/ (A) with another source tree (B)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure, {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from .harness import run_workload
    from .workloads import WORKLOADS

    names = args.workload.split(",") if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    if args.ab is not None:
        if not (args.ab / "repro").is_dir():
            parser.error(f"--ab: {args.ab / 'repro'} is missing")
        return _ab(names, args.seed, args.ab.resolve(), args.pairs, args.smoke)

    if args.trace is not None:
        if len(names) != 1:
            parser.error("--trace takes exactly one --workload")
        result = run_workload(
            names[0], args.seed, args.seconds,
            timed=not args.trace, traced=bool(args.trace), smoke=args.smoke,
        )
        _print_result(result)
        family = result.get("per_layer" if args.trace else "end_to_end", {})
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]} for k, m in family.items()
            },
        }))
        return 0 if result["correct"] else 1

    results = {}
    for name in names:
        results[name] = run_workload(
            name, args.seed, args.seconds, timed=True, traced=True, smoke=args.smoke
        )
        _print_result(results[name])
    OUT.mkdir(exist_ok=True)
    with open(OUT / "latest.json", "w") as fh:
        json.dump(
            {
                "written": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "seed": args.seed,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "workloads": results,
            },
            fh,
            indent=1,
        )
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
