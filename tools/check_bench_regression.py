#!/usr/bin/env python3
"""Gate a fresh bench JSON against a committed baseline.

Compares the derived *speedup ratios* (hpcp-bench-*/1 `speedups` block),
not absolute seconds: ratios like fit_hist_vs_exact or cache_hit_p50 are
mostly algorithmic, so they transfer between hosts far better than wall
times do. By default the gate is lower-bound only — a fresh ratio may be
faster than the baseline, but not more than `--tolerance` slower:

    fresh >= baseline * (1 - tolerance)

`--two-sided` additionally rejects ratios more than (1 + tolerance) above
the baseline (useful when chasing a specific optimisation, noisy on shared
runners). `--require KEY>=VALUE` adds absolute floors on top — e.g. the
serve acceptance bar `--require cache_hit_p50>=5`. `--require-max
KEY<=VALUE` is the mirror-image absolute ceiling, for ratios where larger
is *worse* — e.g. the observability tax `--require-max
obs_on_vs_off<=1.01` (metrics on must cost at most 1% of replay
wall-clock).

Both files must carry the same `schema` and `short_mode` (a short-mode
baseline must never be compared against a full-mode run), and every
determinism flag that is true in the baseline must still be true in the
fresh output.

Some ratios only exist on real parallel hardware: thread- and
connection-scaling speedups are ~1.0x on a single-core runner no matter
how good the code is. The bench JSONs carry a `scaling` block mapping
such keys to their precondition ({"min_cores": N}); when the fresh run's
`config` shows it unmet (hardware_concurrency < min_cores), both the
ratio gate and any --require floor for that key are skipped with a
printed reason instead of failing spuriously.

Exit codes: 0 = within tolerance, 1 = regression or contract violation,
2 = bad invocation / unreadable input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def parse_requirement(text, op=">="):
    if op not in text:
        flag = "--require" if op == ">=" else "--require-max"
        print(f"error: {flag} expects KEY{op}VALUE, got {text!r}",
              file=sys.stderr)
        sys.exit(2)
    key, _, value = text.partition(op)
    try:
        return key.strip(), float(value)
    except ValueError:
        flag = "--require" if op == ">=" else "--require-max"
        print(f"error: {flag} value is not a number: {text!r}",
              file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed bench JSON (bench/baselines/)")
    parser.add_argument("--fresh", required=True,
                        help="bench JSON produced by this run")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25)")
    parser.add_argument("--two-sided", action="store_true",
                        help="also reject ratios above baseline*(1+tol)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="KEY>=VALUE",
                        help="absolute floor on a fresh speedup")
    parser.add_argument("--require-max", action="append", default=[],
                        metavar="KEY<=VALUE",
                        help="absolute ceiling on a fresh speedup (for "
                             "ratios where larger is worse, e.g. overhead)")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        print("error: --tolerance must be in [0, 1)", file=sys.stderr)
        sys.exit(2)

    base = load(args.baseline)
    fresh = load(args.fresh)
    failures = []

    # Scaling preconditions: the baseline's block is authoritative (it is
    # committed), the fresh block fills in keys the baseline predates.
    scaling = dict(fresh.get("scaling") or {})
    scaling.update(base.get("scaling") or {})
    fresh_config = fresh.get("config") or {}
    hw = fresh_config.get("hardware_concurrency")

    def skip_reason(key):
        rule = scaling.get(key)
        if not isinstance(rule, dict):
            return None
        min_cores = rule.get("min_cores")
        if isinstance(min_cores, (int, float)) and \
                isinstance(hw, (int, float)) and hw < min_cores:
            return (f"runner has {hw:g} core(s) < min_cores "
                    f"{min_cores:g}")
        return None

    if base.get("schema") != fresh.get("schema"):
        failures.append(
            f"schema mismatch: baseline {base.get('schema')!r} vs "
            f"fresh {fresh.get('schema')!r}")
    if base.get("short_mode") != fresh.get("short_mode"):
        failures.append(
            f"short_mode mismatch: baseline {base.get('short_mode')} vs "
            f"fresh {fresh.get('short_mode')} — comparing different "
            "workload sizes")

    # Key *presence* is checked before any scaling skip: a key the fresh
    # run does not emit at all is a contract violation (renamed bench case,
    # stale binary), and a single-core runner must not be able to hide it.
    # skip_reason only ever excuses the value comparison.
    fresh_speedups = fresh.get("speedups") or {}
    base_speedups = base.get("speedups") or {}
    missing = sorted(set(base_speedups) - set(fresh_speedups))
    if missing:
        failures.append(
            f"fresh output is missing baseline speedup key(s) "
            f"{missing} — fresh emits {sorted(fresh_speedups)}")
    for key, baseline_value in sorted(base_speedups.items()):
        fresh_value = fresh_speedups.get(key)
        if not isinstance(fresh_value, (int, float)):
            if key not in missing:
                failures.append(
                    f"speedup {key!r} is not a number in the fresh "
                    f"output: {fresh_value!r}")
            continue
        reason = skip_reason(key)
        if reason is not None:
            print(f"  {key}: skipped ({reason})")
            continue
        floor = baseline_value * (1.0 - args.tolerance)
        verdict = "ok"
        if fresh_value < floor:
            failures.append(
                f"speedup {key}: {fresh_value:.3f}x fell below "
                f"{floor:.3f}x (baseline {baseline_value:.3f}x "
                f"- {args.tolerance:.0%})")
            verdict = "REGRESSED"
        elif args.two_sided and \
                fresh_value > baseline_value * (1.0 + args.tolerance):
            failures.append(
                f"speedup {key}: {fresh_value:.3f}x exceeds two-sided "
                f"band around baseline {baseline_value:.3f}x")
            verdict = "OUT OF BAND"
        print(f"  {key}: baseline {baseline_value:.3f}x, "
              f"fresh {fresh_value:.3f}x [{verdict}]")

    for key, floor in map(parse_requirement, args.require):
        fresh_value = fresh_speedups.get(key)
        if not isinstance(fresh_value, (int, float)):
            failures.append(
                f"fresh output missing required speedup {key!r} "
                f"(got {fresh_value!r}; fresh emits "
                f"{sorted(fresh_speedups)})")
            continue
        reason = skip_reason(key)
        if reason is not None:
            print(f"  {key}: required floor skipped ({reason})")
            continue
        if fresh_value < floor:
            failures.append(
                f"required floor {key} >= {floor:g} not met: "
                f"{fresh_value:.3f}")
        else:
            print(f"  {key}: {fresh_value:.3f} >= required {floor:g} [ok]")

    for key, ceiling in (parse_requirement(t, op="<=")
                         for t in args.require_max):
        fresh_value = fresh_speedups.get(key)
        if not isinstance(fresh_value, (int, float)):
            failures.append(
                f"fresh output missing required speedup {key!r} "
                f"(got {fresh_value!r}; fresh emits "
                f"{sorted(fresh_speedups)})")
            continue
        reason = skip_reason(key)
        if reason is not None:
            print(f"  {key}: required ceiling skipped ({reason})")
            continue
        if fresh_value > ceiling:
            failures.append(
                f"required ceiling {key} <= {ceiling:g} exceeded: "
                f"{fresh_value:.3f}")
        else:
            print(f"  {key}: {fresh_value:.3f} <= required {ceiling:g} [ok]")

    fresh_determinism = fresh.get("determinism") or {}
    for key, flag in sorted((base.get("determinism") or {}).items()):
        if flag is True and fresh_determinism.get(key) is not True:
            failures.append(f"determinism flag {key} is no longer true")

    name = fresh.get("schema", "bench")
    if failures:
        print(f"{name}: {len(failures)} regression check(s) failed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        sys.exit(1)
    print(f"{name}: within tolerance of {args.baseline}")


if __name__ == "__main__":
    main()
