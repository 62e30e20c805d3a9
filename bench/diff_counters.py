#!/usr/bin/env python3
"""Compares the simulated counters of two bench result files.

Usage: bench/diff_counters.py A.json B.json

Strips every `wall_ms` value (older result files carry one) and the
`meta` block (host- and build-dependent) wherever they occur. Prints each remaining path whose value
differs, or that only one file has, one per line. Values compare exactly:
the BENCH_* counters are deterministic per seed, so a refactor that claims
to change no behaviour must leave them bit-identical.

Exit status: 0 when the files match, 1 on any difference, 2 on bad input.

Example, checking that a fresh run reproduces the committed file:
  ./build-release/bench/bench_faults /tmp/faults.json
  bench/diff_counters.py BENCH_faults.json /tmp/faults.json
"""

import argparse
import json
import sys

STRIPPED = {"wall_ms", "meta"}


def diff(a, b, path, out):
    """Appends one line per differing path under `path` to `out`."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in STRIPPED:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in b:
                out.append(f"{sub}: only in A")
            elif key not in a:
                out.append(f"{sub}: only in B")
            else:
                diff(a[key], b[key], sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} entries != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif type(a) is not type(b) or a != b:
        out.append(f"{path}: {json.dumps(a)} != {json.dumps(b)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", help="reference result (A)")
    p.add_argument("b", help="result to check (B)")
    args = p.parse_args()
    docs = []
    for name in (args.a, args.b):
        try:
            with open(name) as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            print(f"diff_counters.py: {name}: {e}", file=sys.stderr)
            return 2
    out = []
    diff(docs[0], docs[1], "", out)
    for line in out:
        print(line)
    print(f"{len(out)} difference(s)" if out else "counters identical",
          file=sys.stderr)
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main())
