"""Cold-start figures of `delta2d` for two or more source trees.

    python tools/bench_cold.py [--runs N] [--repeat M] SRC [SRC ...]

SRC is the root of a delta2d checkout (its src/ goes on PYTHONPATH).  For
`import delta2d` and each timed subcommand below, every tree reports

  - `cold_s`: the wall time of a fresh `python -m delta2d.cli ...` (or
    `python -c "import delta2d"`) process, the minimum over N rounds.  In
    each round the trees run one after the other, alternating which goes
    first, after one untimed run per tree that writes the bytecode caches;
  - `loads`: which of numpy and scipy the process imports, read from
    `python -X importtime`;
  - `output`: a digest of the exit code, stdout and stderr, with the
    tree's own path (which warnings print) replaced by `SRC`.

Further commands, refusal paths among them, are run once per tree and
only compared.  `identical` lists, per command, whether every tree gave
the same exit code and bytes.  `k0_per_call_us` times `k0(1.3)` and `k0` on
a (17, 9) array in process, the minimum over M calls, in a fresh process
per tree per round.  Prints JSON.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

TIMED = {
    "import delta2d": ("-c", "import delta2d"),
    "spectrum": ("spectrum", "--format", "json"),
    "verify --suite rewrite": ("verify", "--suite", "rewrite", "--format", "json"),
    "pair --expr log_r": ("pair", "--expr", "log_r", "--format", "json"),
    "k0": ("k0", "--x", "1.0", "--format", "json"),
    "pair --expr K0(1.0*r)": ("pair", "--expr", "K0(1.0*r)", "--format", "json"),
    "verify --suite all": ("verify", "--suite", "all", "--format", "json"),
}
COMPARED = {
    "spectrum --L range": ("spectrum", "--L", "0.5:2:4", "--alpha", "4pi", "--format", "csv"),
    "spectrum collapse point": ("spectrum", "--hbar", "1.4142135623730951", "--format", "text"),
    "k0 --grid": ("k0", "--grid", "1e-6:50:17", "--format", "csv"),
    "verify --suite identities": ("verify", "--suite", "identities", "--format", "json"),
    "pair products": ("pair", "--expr", "K0(1.0*r)*delta + log_r", "--format", "json"),
    "pair at (0.4, 0)": ("pair", "--expr", "K0(1.0*r)*delta + log_r", "--phi-center", "0.4,0"),
    "pair at (1e6, 0)": ("pair", "--expr", "log_r + K0(1.0*r)", "--phi-center", "1e6,0",
                         "--phi-radius", "1e-4", "--format", "json"),
    "refused: spectrum --alpha 0.001": ("spectrum", "--alpha", "0.001"),
    "refused: k0 underflow": ("k0", "--x", "800"),
    "refused: k0 --x 0": ("k0", "--x", "0"),
    "refused: pair syntax": ("pair", "--expr", "log_r +"),
    "refused: pair K0(1e-300*r)": ("pair", "--expr", "K0(1e-300*r)"),
    "refused: unknown suite": ("verify", "--suite", "nope"),
    "failed: pair --phi-amplitude 1e308": ("pair", "--expr", "log_r", "--phi-amplitude", "1e308"),
}


def _env(src):
    return dict(os.environ, PYTHONPATH=str(Path(src).resolve() / "src"))


def _run(src, args, extra=()):
    entry = () if args[0] == "-c" else ("-m", "delta2d.cli")
    return subprocess.run([sys.executable, *extra, *entry, *args], env=_env(src),
                          cwd=str(src), capture_output=True)


def _digest(src, done):
    h = hashlib.sha256()
    root = str(Path(src).resolve()).encode()
    for part in (str(done.returncode).encode(), done.stdout, done.stderr):
        h.update(hashlib.sha256(part.replace(root, b"SRC")).digest())
    return "exit %d sha256 %s" % (done.returncode, h.hexdigest()[:16])


def _loads(src, args):
    """Top-level array libraries named in the -X importtime log."""
    log = _run(src, args, ("-X", "importtime")).stderr.decode()
    names = {line.rsplit("|", 1)[-1].strip() for line in log.splitlines() if "|" in line}
    return [lib for lib in ("numpy", "scipy")
            if any(n == lib or n.startswith(lib + ".") for n in names)]


def _timed_bare():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def k0_worker(repeat):
    import numpy as np
    from delta2d import k0

    grid = np.linspace(0.1, 5.0, 17 * 9).reshape(17, 9)
    out = {}
    for name, x in (("scalar k0(1.3)", 1.3), ("array k0 (17, 9)", grid)):
        k0(x)
        best = math.inf
        for _ in range(repeat):
            start = time.perf_counter()
            k0(x)
            best = min(best, time.perf_counter() - start)
        out[name] = best * 1e6
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+")
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--repeat", type=int, default=20000)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        json.dump(k0_worker(args.repeat), sys.stdout)
        return
    trees = args.src
    result = {src: {"commands": {}, "k0_per_call_us": {}} for src in trees}
    for src in trees:
        for name, cmd in TIMED.items():
            done = _run(src, cmd)  # untimed: writes the bytecode caches
            result[src]["commands"][name] = {"cold_s": math.inf, "loads": _loads(src, cmd),
                                             "output": _digest(src, done)}
    for k in range(args.runs):
        for name, cmd in TIMED.items():
            for src in (trees if k % 2 == 0 else trees[::-1]):
                start = time.perf_counter()
                _run(src, cmd)
                row = result[src]["commands"][name]
                row["cold_s"] = min(row["cold_s"], time.perf_counter() - start)
        for src in (trees if k % 2 == 0 else trees[::-1]):
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                                   "--repeat", str(args.repeat), src], env=_env(src),
                                  capture_output=True, text=True, check=True)
            per_call = result[src]["k0_per_call_us"]
            for name, us in json.loads(done.stdout).items():
                per_call[name] = min(per_call.get(name, math.inf), us)
    identical = {name: len({result[src]["commands"][name]["output"] for src in trees}) == 1
                 for name in TIMED}
    for name, cmd in COMPARED.items():
        identical[name] = len({_digest(src, _run(src, cmd)) for src in trees}) == 1
    for src in trees:
        result[src]["src_lines"] = sum(len(p.read_text().splitlines())
                                       for p in (Path(src) / "src" / "delta2d").glob("*.py"))
    bare = min(_timed_bare() for _ in range(args.runs))
    json.dump({"bare_interpreter_s": bare, "identical": identical, "trees": result},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
