#!/usr/bin/env python3
"""Pin every scenario's output bytes at its defaults.

Usage: check_scenario_digests.py ERASMUS_RUN DIGESTS [--update]

For each scenario `ERASMUS_RUN list --names` prints, two runs:

* At its defaults, with a JSONL trace: the SHA-256 of the metrics JSON
  and of the trace, and the exit code, must equal the scenario's entry
  in DIGESTS. A scenario with no entry, or an entry with no scenario,
  fails by name.
* With every non-empty default that `describe` prints passed explicitly:
  the metrics must equal the default run's. A getter default that
  drifted from its ParamSpec runs a different experiment here.

--update rewrites DIGESTS from the default runs instead of comparing
(the explicit-default check still runs). Regenerate deliberately, from
the tree whose bytes are meant, with:

  python3 tools/check_scenario_digests.py build/erasmus_run \\
      tests/scenario_digests.json --update
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

REGENERATE = ("python3 tools/check_scenario_digests.py build/erasmus_run "
              "tests/scenario_digests.json --update")

# One parameter line of `describe`: "  key  (default value ) help". The
# CLI's own rows (out, --trace=PATH, --trace-filter=L) are not knobs.
PARAM_RE = re.compile(r"^  (\S+)\s+\(default (\S*)\s*\) ")
CLI_ROWS = {"out", "--trace=PATH", "--trace-filter=L"}


def sha256(path):
    """The file's digest; "missing" when the run wrote no such file."""
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def cli(exe, *args, cwd=None):
    return subprocess.run([exe, *args], cwd=cwd, capture_output=True,
                          text=True)


def explicit_defaults(exe, scenario):
    out = cli(exe, "describe", scenario)
    if out.returncode != 0:
        raise RuntimeError(f"describe {scenario} failed: {out.stderr}")
    knobs = []
    for line in out.stdout.splitlines():
        m = PARAM_RE.match(line)
        if m and m.group(1) not in CLI_ROWS and m.group(2):
            knobs.append(f"{m.group(1)}={m.group(2)}")
    return knobs


def run_scenario(exe, scenario, workdir):
    """Returns ({exit, metrics, trace}, [failures]) for one scenario."""
    metrics = os.path.join(workdir, f"{scenario}.json")
    trace = os.path.join(workdir, f"{scenario}.jsonl")
    base = cli(exe, "run", scenario, f"out={metrics}", f"--trace={trace}",
               cwd=workdir)
    digest = {"exit": base.returncode, "metrics": sha256(metrics),
              "trace": sha256(trace)}
    failures = []
    knobs = explicit_defaults(exe, scenario)
    again = os.path.join(workdir, f"{scenario}.explicit.json")
    rerun = cli(exe, "run", scenario, *knobs, f"out={again}", cwd=workdir)
    if rerun.returncode != base.returncode or \
            sha256(again) != digest["metrics"]:
        failures.append(
            f"{scenario}: explicit defaults ({' '.join(knobs)}) give other "
            f"metrics than the defaults (exit {rerun.returncode} vs "
            f"{base.returncode}): a getter default differs from its "
            f"ParamSpec\n{rerun.stderr}")
    return digest, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("erasmus_run")
    ap.add_argument("digests")
    ap.add_argument("--update", action="store_true",
                    help="rewrite DIGESTS from this build's default runs")
    args = ap.parse_args()
    exe = os.path.abspath(args.erasmus_run)

    names = cli(exe, "list", "--names").stdout.split()
    if not names:
        print(f"{exe} lists no scenarios", file=sys.stderr)
        return 1
    got = {}
    failures = []
    with tempfile.TemporaryDirectory(prefix="scenario_digests_") as work:
        for name in names:
            got[name], bad = run_scenario(exe, name, work)
            failures += bad

    if args.update:
        with open(args.digests, "w", encoding="utf-8") as f:
            json.dump({"regenerate": REGENERATE, "scenarios": got}, f,
                      indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(got)} scenario digests to {args.digests}")
    else:
        with open(args.digests, encoding="utf-8") as f:
            want = json.load(f)["scenarios"]
        for name in sorted(set(want) | set(got)):
            if name not in got:
                failures.append(f"{name}: pinned but not registered")
            elif name not in want:
                failures.append(f"{name}: registered but not pinned")
            else:
                for field in ("exit", "metrics", "trace"):
                    if got[name][field] != want[name][field]:
                        failures.append(
                            f"{name}: {field} {got[name][field]} != pinned "
                            f"{want[name][field]}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} failure(s). If the new bytes are meant, "
              f"regenerate: {REGENERATE}", file=sys.stderr)
        return 1
    print(f"{len(got)} scenarios: digests and explicit defaults match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
