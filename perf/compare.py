"""Apply the bounds in ``BENCHMARK.json`` to two sets of results.

``python3 perf/compare.py A.json B.json [A2.json B2.json ...]`` takes
result files written by ``perf/run.py`` (``perf/out/results.json``),
alternating base (A) and change (B), and prints one row per end-to-end
metric and workload:

* **unresolved** — the run-to-run spread (distance between the quartiles
  over the median, the wider of the two sides) exceeds the metric's
  bound, so the bound cannot be applied (``setup_s`` is exempt, as in
  the benchmark contract: a run holds only a few set-ups);
* **worse** — B's median is worse than A's by more than the bound;
* **improved** — B's median is better than A's by more than the spread;
* **unchanged** — neither.

Every ratio is B over A, printed with its base.  The exit code is 1 on
any worse row or any drop in ``success_share`` (more failed
invocations), 2 when the files cannot be compared.  ``--aa`` is for two
sets from the *same* commit: unresolved rows also fail, and the
simulated metrics, model counters and fingerprints must be bit-equal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Judged on its medians alone, whatever its spread.
SPREAD_EXEMPT = ("setup_s",)
#: Header fields that must match for two files to be comparable.
COMPARABLE = ("nproc", "python", "seed", "smoke", "sizes")


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def side_stats(stats: List[Dict[str, float]]) -> Tuple[float, float]:
    """(median, spread) of one side.  Several files: median and quartiles
    of their values.  One file: its own repeats' median and quartiles."""
    if len(stats) > 1:
        values = [s["value"] for s in stats]
        q1, _median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        median, q1, q3 = stats[0]["value"], stats[0]["q1"], stats[0]["q3"]
    return median, (abs(q3 - q1) / abs(median) if median else 0.0)


def verdict(
    base: float,
    new: float,
    spread: float,
    bound: float,
    better: str,
    spread_exempt: bool = False,
) -> Tuple[str, float]:
    """(label, share of the base by which the change is worse)."""
    worse_by = (new - base) / abs(base) if base else 0.0
    if better == "higher":
        worse_by = -worse_by
    if spread > bound and not spread_exempt:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < 0 and -worse_by > spread:
        return "improved", worse_by
    return "unchanged", worse_by


def compare(
    bases: List[Dict[str, Any]],
    changes: List[Dict[str, Any]],
    declared: Dict[str, Any],
    same_commit: bool,
) -> Tuple[List[str], int]:
    """The report's lines and the exit code."""
    lines: List[str] = []
    failures = 0
    reference = bases[0]["header"]
    for document in bases[1:] + changes:
        for key in COMPARABLE:
            if document["header"].get(key) != reference.get(key):
                return [f"not comparable: header field {key!r} differs"], 2
    workloads = list(reference["sizes"])
    for name in workloads:
        for metric in declared["end_to_end"]:
            key = metric["name"]
            try:
                base, base_spread = side_stats(
                    [d["workloads"][name]["end_to_end"][key] for d in bases]
                )
                new, new_spread = side_stats(
                    [d["workloads"][name]["end_to_end"][key] for d in changes]
                )
            except KeyError:
                lines.append(f"{name:20s} {key:26s} absent")
                failures += 1
                continue
            spread = max(base_spread, new_spread)
            label, worse_by = verdict(
                base, new, spread, metric["bound"], metric["better"],
                spread_exempt=key in SPREAD_EXEMPT,
            )
            ratio = new / base if base else float("nan")
            lines.append(
                f"{name:20s} {key:26s} {label:10s} B/A={ratio:.4f} "
                f"(base A={base:.6g} {metric['unit']}, B={new:.6g}) "
                f"spread={spread:.4f} bound={metric['bound']}"
            )
            if label == "worse" or (same_commit and label == "unresolved"):
                failures += 1
            if key == "success_share" and new < base:
                lines.append(
                    f"{name:20s} failed share rose: {1 - base:.6f} -> {1 - new:.6f}"
                )
                failures += 1
    identical = exact_differences(bases, changes, workloads)
    if not identical:
        lines.append(
            "simulated metrics, model counters and fingerprints are identical: "
            "the two sides simulate the same thing"
        )
    else:
        lines.extend(identical)
        if same_commit:
            failures += len(identical)
    return lines, 1 if failures else 0


def exact_differences(bases, changes, workloads) -> List[str]:
    """What a simulator-only change must leave bit-equal, and did not."""
    out: List[str] = []
    first = bases[0]["workloads"]
    for document in bases[1:] + changes:
        for name in workloads:
            ours, theirs = first[name], document["workloads"][name]
            if ours.get("fingerprint") != theirs.get("fingerprint"):
                out.append(f"{name:20s} fingerprint differs")
            for key, value in ours.get("counters", {}).items():
                if theirs.get("counters", {}).get(key) != value:
                    out.append(
                        f"{name:20s} {key} differs: {value!r} vs "
                        f"{theirs.get('counters', {}).get(key)!r}"
                    )
    return sorted(set(out))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--aa", action="store_true", help="same-commit mode")
    parser.add_argument("files", nargs="+", help="A.json B.json [A2.json B2.json ...]")
    args = parser.parse_args(argv)
    if len(args.files) < 2 or len(args.files) % 2:
        parser.error("give result files in pairs: A.json B.json [...]")
    documents = [load(path) for path in args.files]
    lines, code = compare(
        documents[0::2],
        documents[1::2],
        load(os.path.join(ROOT, "BENCHMARK.json")),
        same_commit=args.aa,
    )
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
