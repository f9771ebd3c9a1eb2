#!/usr/bin/env python3
"""Print a digest of the CLI's output on the benchmark's `cli-mix` commands.

    python scripts/cli_digest.py [SEED ...]

For each seed (default 1) the argvs are those of `cli-mix`, read from
`make_manifest` in `bench/run.py`. Each argv runs as the console script does,
in a fresh interpreter with the benchmark's child environment (`PYTHONPATH` set
to this checkout's `src`). One line per argv: 12 hex digits of the sha256 of
stdout, stderr and exit code, then the argv. Two checkouts print the same
lines exactly when their CLIs give the same bytes and codes on these argvs, so
diffing the output of each is a byte-identity check of a change.
"""

import hashlib
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# bench/run.py and bench/worker.py import their sibling `speed`; reading them leaves no
# bytecode cache in bench/
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True
import run
import worker


def digest(argv: list[str], env: dict) -> str:
    proc = subprocess.run([sys.executable, "-c", worker.CLI_ENTRY, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    h = hashlib.sha256()
    for part in (proc.stdout, proc.stderr, str(proc.returncode).encode()):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()[:12]


def main(seeds: list[int]) -> None:
    env = run.child_env()
    for seed in seeds:
        for cmd in run.make_manifest("cli-mix", seed, trace=False)["commands"]:
            print(digest(cmd["argv"], env), shlex.join(cmd["argv"]), flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1])
