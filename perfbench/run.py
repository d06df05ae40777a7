#!/usr/bin/env python3
"""Builds and runs the Paragraph benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A/result.json B/result.json

The first form builds the release `paragraph` binary and the benchmark
`perfbench` binary from source (into $CARGO_TARGET_DIR, default `.bench_build`),
runs one workload, and passes its output through: the last stdout line
is the JSON result. Per-run files go to `.perfbench/<workload>-s<seed>-t<trace>/`.

The second form compares two `result.json` files metric by metric. Results
from machines with different `nproc` are flagged and not compared, the same
rule `paragraph profile --bench-compare` applies to bench rows.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def flag(argv, name):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    fail(f"missing {name}")


def commit_stamp():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "vendor", HERE]
    for root in roots:
        paths = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
        for path in paths:
            if "target" in path.relative_to(ROOT).parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def rustc_stamp():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "paragraph-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)


def run(argv):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli" / "Cargo.toml").is_file():
        fail("the Paragraph sources are missing; run from the repository root")
    workload = flag(argv, "--workload")
    seed = flag(argv, "--seed")
    trace = flag(argv, "--trace")
    flag(argv, "--seconds")
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target)
    work = ROOT / ".perfbench" / f"{workload}-s{seed}-t{trace}"
    cmd = [
        str(target / "release" / "perfbench"),
        *argv,
        "--paragraph", str(target / "release" / "paragraph"),
        "--work", str(work),
        "--commit", commit_stamp(),
        "--rustc", rustc_stamp(),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


def compare(paths):
    if len(paths) != 2:
        fail("--compare needs two result.json files")
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in paths)
    for key in ("workload", "trace", "seed", "commit", "rustc"):
        if a.get(key) != b.get(key):
            print(f"note: {key} differs: {a.get(key)} vs {b.get(key)}")
    if a.get("nproc") != b.get("nproc"):
        print(f"NOT COMPARABLE: nproc differs ({a.get('nproc')} vs {b.get('nproc')}); "
              "results from different core counts are not compared")
        return 3
    print(f"{'metric':<44} {'A':>16} {'B':>16} {'B/A':>8}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None or ma["value"] is None or mb["value"] is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:<44} {ma['value']:>16.6g} {mb['value']:>16.6g} {ratio:>8.3f}  {ma['unit']}")
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        return compare(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
