#!/usr/bin/env python3
"""Compare bench results against committed baselines.

Usage:
  tools/perf_compare.py BASELINE.json CURRENT.json [--max-ratio 2.0]
  tools/perf_compare.py A.json B.json --counts-only [--exempt NAME=REASON ...]

Understands two formats:

  * aladdin-bench-v1 — emitted by the bench binaries via common/bench_json.h
    ("schema": "aladdin-bench-v1", flat "metrics" array). Time-like metrics
    (unit ns/us/ms/s) are regression-checked; unit "count" metrics (pods
    bound, audit numbers) are *identity*-checked instead, because a perf PR
    must not change placement decisions; any other unit is informational.
  * google-benchmark JSON (--benchmark_out) — "benchmarks" array; real_time
    per benchmark is regression-checked.

Exit status 0 = within bounds; 1 = a metric regressed past --max-ratio,
an identity metric changed, or a baseline metric is missing from the
current run (a dropped phase or a mistyped benchmark filter must not pass
the gate silently). Metrics only the current run has are reported as
[new] and pass (benches grow new metrics over time).

Absolute-floor guard: time metrics where both sides are below --floor-ms
(default 1.0) are skipped — sub-millisecond timings on shared CI machines
are noise, and a 0.1ms -> 0.3ms jump is not a regression worth a red build.

Counts-only mode (--counts-only) is the count-identity check between two
runs of one build that must make the same decisions (batched vs
sequential, watchdog on vs off, one shard vs unsharded): only unit "count"
metrics are compared, and nothing is ratio-checked. A metric that may
legitimately differ, or be missing from the second run, is named with
--exempt NAME=REASON; the reason is mandatory and is printed in the
report, so every exception stays justified where it is used.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_metrics(path: Path) -> tuple[dict[str, float], dict[str, str]]:
    """Returns (name -> value, name -> unit) for either supported format."""
    data = json.loads(path.read_text(encoding="utf-8"))
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    if data.get("schema") == "aladdin-bench-v1":
        for m in data["metrics"]:
            values[m["name"]] = float(m["value"])
            units[m["name"]] = m.get("unit", "")
    elif "benchmarks" in data:  # google-benchmark
        for b in data["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"]
            values[name] = float(b["real_time"])
            units[name] = b.get("time_unit", "ns")
    else:
        raise ValueError(f"{path}: unrecognised bench JSON format")
    return values, units


TIME_UNITS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def parse_exemptions(entries: list[str]) -> dict[str, str]:
    """Parses --exempt NAME=REASON entries into name -> reason. Raises
    ValueError on an entry without a name or without a reason, and on a
    name given twice."""
    exempt: dict[str, str] = {}
    for entry in entries:
        name, sep, reason = entry.partition("=")
        name, reason = name.strip(), reason.strip()
        if not name or not sep or not reason:
            raise ValueError(f"--exempt {entry!r}: expected NAME=REASON "
                             "with a non-empty reason")
        if name in exempt:
            raise ValueError(f"--exempt {name!r} given twice")
        exempt[name] = reason
    return exempt


def compare(base_values: dict[str, float], base_units: dict[str, str],
            cur_values: dict[str, float], max_ratio: float = 2.0,
            floor_ms: float = 1.0, counts_only: bool = False,
            exempt: dict[str, str] | None = None,
            cur_units: dict[str, str] | None = None
            ) -> tuple[list[str], list[str]]:
    """The comparison policy, importable for tests: time-unit metrics are
    ratio-checked against max_ratio (below floor_ms on both sides = noise),
    unit "count" metrics are identity-checked (the obs registry's counters
    and the audit numbers are placement decisions, not timings), and any
    other unit — "gauge", "rate", histogram units — is informational.

    A baseline metric absent from `cur_values` fails unless it is named in
    `exempt`; metrics only the current side has pass as [new].

    With counts_only, only unit "count" metrics are reported and checked.
    A count metric named in `exempt` (name -> reason) may differ or be
    missing; its row carries the reason instead of failing. `cur_units`
    gives the units of metrics only the current side has (counts_only
    keeps the count ones).

    Returns (report_lines, failures); empty failures = within bounds. The
    report is an aligned per-metric table (old, new, unit, ratio, verdict)
    so a perf PR's wins are readable straight from the CI log."""
    # (name, old, new, unit, ratio, verdict) — formatted into a table below.
    rows: list[tuple[str, str, str, str, str, str]] = []
    failures: list[str] = []
    exempt = exempt or {}
    cur_units = cur_units or {}
    for name in sorted(base_values):
        if counts_only and base_units.get(name, "") != "count":
            continue
        if name not in cur_values:
            if name in exempt:
                verdict = f"[missing, exempt] {exempt[name]}"
            else:
                verdict = "[MISSING]"
                failures.append(f"{name}: in the baseline, missing from "
                                "the current run")
            rows.append((name, f"{base_values[name]:g}", "-",
                         base_units.get(name, ""), "", verdict))
            continue
        base, cur = base_values[name], cur_values[name]
        unit = base_units.get(name, "")
        if unit in TIME_UNITS:
            base_ms = base * TIME_UNITS[unit]
            cur_ms = cur * TIME_UNITS[unit]
            if base_ms < floor_ms and cur_ms < floor_ms:
                rows.append((name, f"{base:g}", f"{cur:g}", unit, "",
                             f"[noise] (< {floor_ms}ms floor)"))
                continue
            ratio = cur_ms / base_ms if base_ms > 0 else float("inf")
            verdict = "REGRESSED" if ratio > max_ratio else "ok"
            rows.append((name, f"{base:g}", f"{cur:g}", unit,
                         f"x{ratio:.2f}", f"[{verdict}]"))
            if ratio > max_ratio:
                failures.append(f"{name}: {base:g} -> {cur:g} {unit} is "
                                f"x{ratio:.2f} > x{max_ratio}")
        elif unit == "count":
            # Counters must match exactly: placement decisions are part of
            # the contract, not a tunable.
            if base != cur and name in exempt:
                rows.append((name, f"{base:g}", f"{cur:g}", unit, "",
                             f"[exempt] {exempt[name]}"))
            elif base != cur:
                rows.append((name, f"{base:g}", f"{cur:g}", unit, "",
                             "[CHANGED]"))
                failures.append(f"{name}: counter changed {base:g} -> {cur:g}")
            else:
                rows.append((name, f"{base:g}", f"{cur:g}", unit, "=",
                             "[ok]"))
        else:
            rows.append((name, f"{base:g}", f"{cur:g}", unit, "", "[info]"))
    for name in sorted(set(cur_values) - set(base_values)):
        if counts_only and cur_units.get(name, "") != "count":
            continue
        rows.append((name, "-", f"{cur_values[name]:g}",
                     cur_units.get(name, ""), "", "[new]"))

    header = ("metric", "old", "new", "unit", "ratio", "verdict")
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) if rows
              else len(header[c]) for c in range(len(header))]

    def fmt(row: tuple[str, str, str, str, str, str]) -> str:
        name_c, old_c, new_c, unit_c, ratio_c, verdict_c = row
        return ("  "
                f"{name_c:<{widths[0]}}  {old_c:>{widths[1]}}  "
                f"{new_c:>{widths[2]}}  {unit_c:<{widths[3]}}  "
                f"{ratio_c:>{widths[4]}}  {verdict_c}").rstrip()

    lines = [fmt(header)] + [fmt(r) for r in rows]
    return lines, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when current/baseline exceeds this on any "
                             "time metric (default 2.0)")
    parser.add_argument("--floor-ms", type=float, default=1.0,
                        help="ignore time metrics where both sides are below "
                             "this many milliseconds (default 1.0)")
    parser.add_argument("--counts-only", action="store_true",
                        help="compare only unit \"count\" metrics, for "
                             "identity checks between two runs")
    parser.add_argument("--exempt", action="append", default=[],
                        metavar="NAME=REASON",
                        help="with --counts-only: a count metric allowed to "
                             "differ or be missing, and why (repeatable; "
                             "reason required)")
    args = parser.parse_args()
    if args.exempt and not args.counts_only:
        parser.error("--exempt requires --counts-only")
    try:
        exempt = parse_exemptions(args.exempt)
    except ValueError as err:
        parser.error(str(err))

    base_values, base_units = load_metrics(args.baseline)
    cur_values, cur_units = load_metrics(args.current)

    lines, failures = compare(base_values, base_units, cur_values,
                              max_ratio=args.max_ratio,
                              floor_ms=args.floor_ms,
                              counts_only=args.counts_only, exempt=exempt,
                              cur_units=cur_units)
    for line in lines:
        print(line)

    if failures:
        print(f"\nperf_compare: {len(failures)} failure(s) vs "
              f"{args.baseline.name}", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if args.counts_only:
        identical = sum(1 for name, unit in base_units.items()
                        if unit == "count" and name in cur_values
                        and cur_values[name] == base_values[name])
        print(f"\nperf_compare: OK, {identical} count metrics identical "
              f"({len(exempt)} exemption(s)) vs {args.baseline.name}")
        return 0
    print(f"\nperf_compare: OK vs {args.baseline.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
