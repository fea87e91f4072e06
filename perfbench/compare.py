"""Compare two traced runs layer by layer.

Usage::

    python3 perfbench/compare.py BASE.summary.json NEW.summary.json

Each file is the summary a ``--trace 1`` run writes next to its Chrome
trace.  For every layer the table gives the base self time and span count,
the new ones and the change, each change with its base; then the same for
every per-layer metric.  A change that claims a saving shows here in which
layer the saving appears.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List


def _delta(base: float, new: float) -> str:
    if base == 0:
        return "n/a" if new == 0 else "new"
    return f"{(new - base) / abs(base):+.1%}"


def compare(base: Dict, new: Dict) -> List[str]:
    lines = [f"base: {base['workload']} seed {base['seed']}, "
             f"operations {base['wall_s']:.4f} s",
             f"new:  {new['workload']} seed {new['seed']}, "
             f"operations {new['wall_s']:.4f} s "
             f"({_delta(base['wall_s'], new['wall_s'])})", ""]
    lines.append(f"{'layer':<34} {'base self_s':>12} {'new self_s':>12} "
                 f"{'change':>8} {'base spans':>11} {'new spans':>10}")
    layers = sorted(set(base["layers"]) | set(new["layers"]))
    empty = {"self_s": 0.0, "calls": 0}
    for layer in layers:
        b = base["layers"].get(layer, empty)
        n = new["layers"].get(layer, empty)
        lines.append(f"{layer:<34} {b['self_s']:>12.4f} {n['self_s']:>12.4f} "
                     f"{_delta(b['self_s'], n['self_s']):>8} "
                     f"{int(b['calls']):>11} {int(n['calls']):>10}")
    lines.append("")
    lines.append(f"{'metric':<38} {'base':>14} {'new':>14} {'change':>8}")
    for name in sorted(set(base["metrics"]) | set(new["metrics"])):
        b = float(base["metrics"].get(name, 0.0))
        n = float(new["metrics"].get(name, 0.0))
        lines.append(f"{name:<38} {b:>14.6g} {n:>14.6g} {_delta(b, n):>8}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    if base["workload"] != new["workload"]:
        print(f"error: comparing workload {base['workload']} with "
              f"{new['workload']}", file=sys.stderr)
        return 2
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
