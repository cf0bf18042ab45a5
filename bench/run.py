"""recipro benchmark: one workload per invocation, timed end to end or traced per layer.

    python3 bench/run.py --workload sweep-200 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh child process
(bench/workload.py) with RECIPRO_MAX_BUDGET removed from its environment, so
the default caps apply.  This process prints provenance, every metric with
its unit and sample count, and as its last line one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  It
exits 1 when the oracle rejects any output or a traced count does not
repeat, and 2 (printing no result) when the workload cannot run at all.
See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

WORKLOADS = ("sweep-200", "pairs-cap", "lemma-suites")
CHILD_TIMEOUT_S = 175
HELDOUT_SEED_OFFSET = 1_000_003

# Spans reported as a share of the traced pass wall time.
SHARES = (
    "reciprocity_pipeline.verify_pair",
    "reciprocity_pipeline.build_transversal",
    "reciprocity_pipeline.verify_transversal",
    "reciprocity_pipeline.product_over_transversal",
    "reciprocity_pipeline.closed_form_product",
    "reciprocity_pipeline.qr_identity",
    "residue_arith.is_prime",
    "residue_arith.legendre_euler",
    "residue_arith.factorial_mod",
    "residue_arith.euler_criterion_check",
    "quotient_rank.rank2_quotient_enumerated",
    "quotient_rank.corollary_rank_for_primes",
    "abelian_core.sum_all_elements",
    "abelian_core.two_torsion_subgroup",
    "suites.run_suite.lemma1",
    "suites.run_suite.lemma2",
    "suites.run_suite.euler",
    "suites.run_suite.wilson",
    "suites.generate",
    "cli_report.main",
    "cli_report.render_csv",
)


def git_revision() -> str:
    """HEAD's commit id read from .git without starting git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latencies(passes: list[dict]) -> list[list[float]]:
    """Per pass, each call's latency at the reference speed (divided by its slowdown)."""
    return [[t / k for t, k in zip(p["latency_s"], p["slowdown"])] for p in passes]


def walls(passes: list[dict]) -> list[float]:
    """Pass wall times at the reference speed: the sum of its call latencies."""
    return [sum(calls) for calls in latencies(passes)]


def end_to_end(raw: dict) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    passes = [p for p in raw["passes"] if not p["traced"]]
    untraced = walls(passes)
    calls = [t for pass_calls in latencies(passes) for t in pass_calls]
    setups = [t / k for t, k in zip(raw["setup_s"], raw["setup_slowdown"])]
    wall = statistics.median(untraced)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (wall, "s", len(untraced)),
        "ksteps_per_s": (raw["items_per_pass"] / wall, "k/s", len(untraced)),
        "verify_p50_ms": (statistics.median(calls) * 1e3, "ms", len(calls)),
        "verify_p90_ms": (percentile(calls, 90) * 1e3, "ms", len(calls)),
        "peak_rss_mib": (raw["peak_rss_kib"] / 1024, "MiB", 1),
    }


def per_layer(raw: dict) -> tuple[dict[str, tuple[float, str, int]], list[str]]:
    """(name -> (value, unit, traced passes), flags) from the traced passes."""
    passes = [p for p in raw["passes"] if p["traced"]]
    n = len(passes)
    traced_wall = sum(sum(p["latency_s"]) for p in passes)
    per_pass = []  # exact counts, which must repeat from one traced pass to the next
    for p in passes:
        spans, counts = p["spans"], p["counts"]
        pairs = spans.get("reciprocity_pipeline.verify_pair", [0])[0]
        per_pass.append({
            "reciprocity_pipeline.verify_pair.calls": pairs,
            "reciprocity_pipeline.ksteps": counts.get("reciprocity_pipeline.ksteps", 0),
            "reciprocity_pipeline.transversal_checked_ratio":
                counts.get("reciprocity_pipeline.transversal_checked", 0) / pairs if pairs else 0.0,
            "residue_arith.is_prime.calls": spans.get("residue_arith.is_prime", [0])[0],
            "residue_arith.legendre_euler.calls": spans.get("residue_arith.legendre_euler", [0])[0],
            "budget.effective_cap.calls": spans.get("budget.effective_cap", [0])[0],
            "quotient_rank.enumerated_elements": counts.get("quotient_rank.enumerated_elements", 0),
            "abelian_core.iter_coords.elements": counts.get("abelian_core.iter_coords.elements", 0),
            "cli_report.report_bytes": counts.get("cli_report.report_bytes", 0),
        })
    flags = [f"{key} differs between traced passes: {[c[key] for c in per_pass]}"
             for key in per_pass[0] if len({c[key] for c in per_pass}) > 1]
    if per_pass[0]["reciprocity_pipeline.verify_pair.calls"] != raw["pairs_per_pass"]:
        flags.append(f"verify_pair.calls is {per_pass[0]['reciprocity_pipeline.verify_pair.calls']}"
                     f" per pass, expected {raw['pairs_per_pass']}")

    def total(name: str, index: int = 1) -> float:
        return sum(p["spans"].get(name, [0, 0.0, 0.0])[index] for p in passes)

    metrics: dict[str, tuple[float, str, int]] = {}
    for key, value in per_pass[0].items():
        unit = "ratio" if key.endswith("_ratio") else "count"
        metrics[key] = (value, unit, n)
    busy = sum(p["spans"].get("reciprocity_pipeline.verify_pair", [0, 0.0])[1]
               * sum(scaled) / sum(p["latency_s"]) for p, scaled in zip(passes, latencies(passes)))
    ksteps = metrics["reciprocity_pipeline.ksteps"][0] * n
    metrics["reciprocity_pipeline.ksteps_per_busy_s"] = (ksteps / busy if busy else 0.0, "k/s", n)
    for name in SHARES:
        metrics[f"{name}.share"] = (total(name) / traced_wall, "frac", n)
    metrics["reciprocity_pipeline.verify_pair.self_share"] = (
        total("reciprocity_pipeline.verify_pair", 2) / traced_wall, "frac", n)
    metrics["cli_report.self_share"] = (total("cli_report.main", 2) / traced_wall, "frac", n)
    traced_median = statistics.median(walls(passes))
    untraced_median = statistics.median(walls([p for p in raw["passes"] if not p["traced"]]))
    metrics["traced_wall_s"] = (traced_median, "s", n)
    metrics["trace_overhead_frac"] = (traced_median / untraced_median - 1, "frac", n)
    return metrics, flags


def span_lines(raw: dict) -> list[str]:
    """calls / total_s / self_s per pass for every traced span, and absent names."""
    passes = [p for p in raw["passes"] if p["traced"]]
    names = sorted({name for p in passes for name in p["spans"]})
    lines = []
    for name in names:
        calls, total_s, self_s = (sum(p["spans"].get(name, [0, 0.0, 0.0])[i] for p in passes)
                                  / len(passes) for i in range(3))
        lines.append(f"  {name:<45} calls {calls:>10.0f}  total_s {total_s:9.4f}  self_s {self_s:9.4f}")
    lines += [f"  {name:<45} absent" for name in raw["absent"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    WORK.mkdir(exist_ok=True)
    raw_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.raw.json"
    raw_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "RECIPRO_MAX_BUDGET"}
    cmd = [sys.executable, str(BENCH / "workload.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(raw_path)]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 2
    if child.returncode != 0 or not raw_path.exists():
        sys.stderr.write(child.stderr[-4000:])
        print(f"error: workload {args.workload} exited with code {child.returncode}",
              file=sys.stderr)
        return 2
    raw = json.loads(raw_path.read_text(encoding="utf-8"))

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": args.seed + HELDOUT_SEED_OFFSET,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    print("provenance: " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    slowdowns = [k for p in raw["passes"] for k in p["slowdown"]]
    print(f"host slowdown per call {min(slowdowns):.3f}..{max(slowdowns):.3f}, "
          f"median {statistics.median(slowdowns):.3f}; times below are divided by it")
    flags: list[str] = []
    if args.trace:
        metrics, flags = per_layer(raw)
    else:
        metrics = end_to_end(raw)
    failed_frac = raw["failed"] / raw["attempted"]
    for name, (value, unit, samples) in {**metrics,
                                         "failed_frac": (failed_frac, "ratio", raw["attempted"])
                                         }.items():
        print(f"  {name:<52} {value:>16.6f} {unit:<6} n={samples}")
    if args.trace:
        print("traced spans, per pass, raw seconds:")
        print("\n".join(span_lines(raw)))
    for message in raw["messages"] + flags:
        print(f"FAIL {message}")

    correct = raw["failed"] == 0 and not flags
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"provenance": provenance, "metrics": metrics, "failed_frac": failed_frac,
         "flags": flags, "raw": raw}, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
