"""A/B benchmark: the working tree against a parent commit, run alternately.

    python tools/ab_bench.py --workload exact-ged --pairs 10 --seconds 25 \\
        --seed 0 --holdout-seed 1 --base HEAD~1 --out BENCH_16.json

Both sides are exported with ``git archive`` into one temporary directory:
the parent commit (``--base``) and the working tree, which is every tracked
or untracked file git does not ignore, staged into a throwaway index so the
real one is left alone.  Each pair runs ``perfbench/run.py --trace 0`` once
per side from that side's own root, the parent first in even pairs and the
change first in odd ones; ``--pairs`` must be even, so that each side runs
first equally often.  ``--holdout-seed`` adds one more pair at another
seed, reported apart from the rest.

The output file holds the environment, every run, each side's min,
quartiles and median per metric, and per end-to-end metric of
BENCHMARK.json how many pairs the change won and whether the gap between
the medians exceeds the parent's interquartile range (the gain check),
how far the change median is worse than the parent median against the
metric's ``bound`` and whether the runs spread too widely to tell (the
no-regression check), and whether each pair's two sides gave the same
distance sums and the same sweep outputs (each sweep's accuracy and tuned
weights).  Nothing is gated on these numbers; the exit code is 1 only when
a run fails its own checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
QUARTILES = "statistics.quantiles(n=4, method='inclusive')"


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True,
        env=env,
    ).stdout.strip()


def working_tree() -> str:
    """A git tree object of the working tree, built in a throwaway index."""
    with tempfile.TemporaryDirectory() as d:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(d) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(tree_ish: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", tree_ish], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {tree_ish} failed")


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run from ``root``; its result and details."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"perfbench/run.py printed no result in {root}:\n"
                           f"{proc.stdout}{proc.stderr}") from None
    details_path = root / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    details = json.loads(details_path.read_text())
    return {
        "exit": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: m["value"] for name, m in result["metrics"].items()},
        **details["detail"],
        "wall_s": wall,
        "distance_sums": {s["label"]: s["distance_sum"] for s in details["sweeps"]},
        "outputs": sweep_outputs(details["sweeps"]),
    }


def sweep_outputs(sweeps: list[dict]) -> dict:
    """Each sweep label's accuracy and tuned weights (None when the sweep
    tunes nothing), from the last sweep with that label."""
    return {s["label"]: {"accuracy": s["accuracy"], "weights": s["weights"]}
            for s in sweeps}


def compare_sides(pair: dict) -> None:
    """Mark whether the pair's two runs gave the same distance sums and the
    same sweep outputs."""
    parent, change = pair["parent"], pair["change"]
    pair["distance_sums_equal"] = parent["distance_sums"] == change["distance_sums"]
    pair["outputs_equal"] = parent["outputs"] == change["outputs"]


def summarize(values: list[float]) -> dict:
    """min, quartiles, median and max of ``values`` (quartiles: QUARTILES)."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3,
            "max": max(values), "n": len(values)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pairs the change won and its median gain against the parent's IQR;
    the change median's worsening against ``bound``.

    ``parent[n]`` and ``change[n]`` are pair n's runs; ``better`` is
    "higher" or "lower".  The gain is signed so that positive is better;
    the worsening is the loss part of it, 0 when the change is no worse.
    ``unresolved`` marks runs too spread to tell: the parent's IQR exceeds
    ``bound`` times its median, and not every change run beats every
    parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = summarize(parent), summarize(change)
    gain = sign * (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    worsening_frac = max(0.0, -gain) / p["median"] if p["median"] else None
    spread_frac = iqr / p["median"] if p["median"] else None
    beats_every_parent_run = min(sign * b for b in change) > max(sign * a for a in parent)
    return {
        "pairs_won_by_change": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_gain": gain,
        "median_gain_frac": gain / p["median"] if p["median"] else None,
        "parent_iqr": iqr,
        "gain_exceeds_parent_iqr": gain > iqr,
        "median_worsening_frac": worsening_frac,
        "bound": bound,
        "within_bound": worsening_frac is not None and worsening_frac <= bound,
        "parent_iqr_frac": spread_frac,
        "unresolved": (spread_frac is None or spread_frac > bound)
        and not beats_every_parent_run,
    }


def report(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-side summaries of every numeric metric of the runs, and a verdict
    per end-to-end metric (``end_to_end`` as in BENCHMARK.json)."""
    names = [k for k, v in pairs[0]["parent"].items()
             if isinstance(v, float) and k != "wall_s"]

    def values(side, name):
        return [pair[side][name] for pair in pairs]

    summary = {side: {name: summarize(values(side, name)) for name in names}
               for side in ("parent", "change")}
    verdicts = {m["name"]: verdict(values("parent", m["name"]),
                                   values("change", m["name"]), m["better"], m["bound"])
                for m in end_to_end}
    return {"summary": summary, "verdict": verdicts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--holdout-seed", type=int)
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2 or args.seconds <= 0:
        parser.error("--pairs must be even and >= 2, and --seconds > 0")
    if args.seed < 0 or (args.holdout_seed is not None and args.holdout_seed < 0):
        parser.error("--seed and --holdout-seed must be >= 0")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown --workload {args.workload!r} (one of {', '.join(workloads)})")

    end_to_end = declared["end_to_end"]
    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    tree = working_tree()
    schedule = [(n, args.seed) for n in range(args.pairs)]
    if args.holdout_seed is not None:
        schedule.append((args.pairs, args.holdout_seed))
    pairs, ok = [], True
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(base, roots["parent"])
        export(tree, roots["change"])
        for n, seed in schedule:
            order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
            pair = {"pair": n, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(roots[side], args.workload, seed, args.seconds)
                print(f"pair {n} seed {seed} {side}: "
                      f"pairs_per_s {pair[side]['pairs_per_s']}", file=sys.stderr)
            compare_sides(pair)
            ok &= all(pair[side]["exit"] == 0 and pair[side]["correct"] for side in order)
            pairs.append(pair)

    nproc = os.cpu_count()
    main_pairs = pairs[:args.pairs]
    out = {
        "workload": args.workload,
        "parent_commit": base,
        "change": f"working tree on {git('rev-parse', 'HEAD')} (git tree {tree})",
        "command": " ".join(["python", "tools/ab_bench.py", *(argv or sys.argv[1:])]),
        "per_run": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {args.seconds!r} --trace 0",
        "layout": "both sides exported with git archive into one temporary "
                  "directory and run from their own roots; pair n runs the "
                  "parent first when n is even and the change first when odd",
        "environment": {
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "note": f"{nproc}-core machine, shared and noisy: other jobs may run "
                    "beside these runs, so absolute rates move from run to run; "
                    "compare within pairs and across medians, never single runs",
        },
        "quartile_method": QUARTILES,
        "seed": args.seed,
        **report(main_pairs, end_to_end),
        "runs": main_pairs,
    }
    if args.holdout_seed is not None:
        out["holdout"] = {"seed": args.holdout_seed,
                          **report(pairs[args.pairs:], end_to_end),
                          "runs": pairs[args.pairs:]}
    out["all_runs_correct"] = ok
    out["distance_sums_equal_in_every_pair"] = all(
        pair["distance_sums_equal"] for pair in pairs
    )
    out["outputs_equal_in_every_pair"] = all(pair["outputs_equal"] for pair in pairs)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
