#!/usr/bin/env python3
"""Run the benchmark on two trees in alternating pairs and say whether one is better.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload majorant-sweep --seed 1 \\
        --pairs 10 --seconds 40 [--json runs.json]

PARENT and CHANGE are git checkouts.  The files git tracks under src/ and
perfbench/ and BENCHMARK.json are copied, as each working tree holds them,
into two fresh temporary directories whose paths have the same length, so
neither the place of a checkout nor the bytecode it holds moves a time.
Then perfbench/run.py runs there in pairs, the parent first in odd pairs,
each run a fresh process with PYTHONDONTWRITEBYTECODE=1 and no __pycache__.

Prints each pair's end-to-end metrics, then per metric both medians and
quartiles, the pairs the change won (a tie counts for neither side) and
whether a claim of a gain holds: the change better in at least 9 of every 10
pairs, and its median apart from the parent's by more than the parent's
quartile spread.  Exits 2 when PARENT or CHANGE is not a git work tree, 1
when a run fails, else 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True,
                   choices=("majorant-sweep", "verify-suite", "cli-session"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--json", type=Path, help="also write every run and the summary here")
    return p.parse_args(argv)


def copy_tree(src: Path, dst: Path) -> bool:
    """The files git tracks under src/ and perfbench/ and BENCHMARK.json, src to dst.

    False, with nothing copied, when src is not a git work tree.
    """
    listed = subprocess.run(["git", "-C", str(src), "ls-files", "-z", "--", "src", "perfbench",
                             "BENCHMARK.json"], capture_output=True, text=True)
    if listed.returncode != 0:
        return False
    for name in filter(None, listed.stdout.split("\0")):
        if (src / name).is_file():
            (dst / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src / name, dst / name)
    return True


def run_once(tree: Path, args) -> dict:
    """One perfbench/run.py process in tree: its last stdout line, parsed."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", "0"], cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles, the change's wins and the claim rule."""
    by_side = {s: [r for r in runs if r["side"] == s] for s in SIDES}
    pairs = len(by_side["parent"])
    out = {}
    for name, way in better.items():
        p, c = ([r["metrics"][name] for r in by_side[s]] for s in SIDES)
        sign = 1 if way == "lower" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        holds = 10 * wins >= 9 * pairs and sign * (pq[1] - cq[1]) > pq[2] - pq[0]
        out[name] = {"parent_quartiles": pq, "change_quartiles": cq, "pairs": pairs,
                     "change_better_in": wins, "claim_holds": holds}
    out["failed"] = {s: sum(r["failed"] for r in by_side[s]) for s in SIDES}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as root:
        trees = dict(zip(SIDES, (Path(root) / "a", Path(root) / "b")))
        for side in SIDES:
            checkout = getattr(args, side).resolve()
            if not copy_tree(checkout, trees[side]):
                print(f"error: {checkout} is not a git work tree", file=sys.stderr)
                return 2
        for pair in range(1, args.pairs + 1):
            for side in (SIDES if pair % 2 else SIDES[::-1]):
                try:
                    result = run_once(trees[side], args)
                except RuntimeError as exc:
                    print(f"error: {side}: {exc}", file=sys.stderr)
                    return 1
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                runs.append({"workload": args.workload, "seed": args.seed, "pair": pair,
                             "side": side, "failed": result["failed"],
                             "correct": result["correct"], "attempted": result["attempted"],
                             "metrics": metrics})
                print(f"pair {pair} {side}: failed={result['failed']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
    summary = summarize(runs, better)
    for name in better:
        s = summary[name]
        print(f"{name}: parent median {s['parent_quartiles'][1]:.6g} "
              f"(quartiles {s['parent_quartiles'][0]:.6g}-{s['parent_quartiles'][2]:.6g}), "
              f"change median {s['change_quartiles'][1]:.6g} "
              f"(quartiles {s['change_quartiles'][0]:.6g}-{s['change_quartiles'][2]:.6g}); "
              f"change better in {s['change_better_in']} of {s['pairs']}; "
              f"claim {'holds' if s['claim_holds'] else 'does not hold'}")
    print(f"failed operations: parent {summary['failed']['parent']}, "
          f"change {summary['failed']['change']}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "seconds": args.seconds, "summary": summary,
                                         "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
