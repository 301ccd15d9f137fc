#!/usr/bin/env python3
"""SHA-256 digests of the CLI's artifacts on fixed seeds.

Runs a fixed list of `mrwpflood` commands, each into its own directory
under a temporary directory, with the package imported from this
checkout's `src/`.  Prints, for every command, its exit code and one
`sha256  path` line for its standard output, its standard error and each
file it wrote, paths relative to the temporary directory (which is
written as `<out>` wherever it appears in an output stream).

Two checkouts give byte-identical artifacts when their listings match:

    python3 scripts/artifact_digests.py > new.txt
    python3 /path/to/other/checkout/scripts/artifact_digests.py > old.txt
    diff old.txt new.txt

The whole list takes about 20 s on a 2-core host.  To inspect an
artifact, run its command with `--output-dir`.

One command covers the sparse regime:
`flood --set n=64000 --set R=0.98 --set max_steps=30` has L / R = 258, so
its neighbour index has more than 2^16 bucket codes and sorts them by the
int64 key (the denser commands all use the 16-bit key).  One covers fast
agents: `flood --set R=2 --set v=9` floods in T = 6 steps at seed 0, and
about half the agents cross at least one way-point each step, so the
listing covers the way-point passes after the first, whole-array mobility
pass.  One covers slow agents far below the connectivity radius:
`flood --set n=8000 --set R=1.5 --set v=0.02 --source in_suburb --set
max_steps=300` spreads for all 300 steps (7994 of 8000 agents informed at
seed 0), on an exchange lattice of two cells a bucket side where the
denser commands use eight.  One covers an exchange with few senders:
`flood --set R=0.5 --set max_steps=40` informs 25 of 2000 agents in its 40
steps, so each step's neighbour index holds between 1 and 24 agents; 37
of its 40 exchanges have at most 2^15 (target, sender) pairs and are
answered by the direct distance check, the last three on the lattice.  One
covers the corner trials at a seed of two 32-bit words: `lower-bound
--trials 1000 --flood-cap 2 --set seed=4294967297` (about 0.8 s) derives
every trial's seed and stream from a seed whose high word is 1.  One covers
slow agents: `simulate --set v=0.005 --steps 3000 --agents 20` steps agents
whose legs last thousands of steps, so their way-point countdowns run long
and expire mid-run.  One covers agents that meet several way-points a
step: `simulate --set v=9 --steps 200 --agents 50` (about 0.6 s) moves
each agent a fifth of the arena side a step, and pins the per-step
positions, headings and legs of the 50 dumped agents, which take an elbow
and its destination, or an arrival and the elbow of the fresh trip, in
about 860 of their 10 000 steps, and three or four way-points in about 140.  One covers a long warm-up: `flood --set init=warmup
--set v=0.05 --set max_steps=50` warms up for 8945 steps, one block whose
countdowns run to hundreds of steps.  One covers an empty central zone:
`expansion-check --set n=200 --set R=0.5` has |CZ| = 0, so no subset is
checked and its worst margin, infinite, is written as `null`.  One covers
a lower-bound world with one value set: `lower-bound --trials 200
--flood-cap 2 --set v=0.05` keeps the corner scenario's L and R = 0.9 d
and moves its agents at v = 0.05.  Two more, near the end, cover the
rest of the lower-bound world: `lower-bound-side` (`--set n=1000 --set
L=40`) scales the corner side with the set side, d = 0.23 * 40 / 10, and
`lower-bound-constants` (`--set constants.c1=3 --set constants.c2=20
--set eta=0.5`) carries the config's constants into the world, with
v = R / 20.  Then `lower-bound-n20` (`--trials 300 --flood-cap 1
--set n=20`, about 0.3 s) draws each corner trial from a first batch at
its minimum of 64 proposals (twice the 20 agents would be 40), and reads
8 corner events and one flood, T = 25, at seed 0.  The last,
`flood-cz-400` (`flood --set n=400 --set constants.c1=1.2`), counts
central cells in a world with more zone-cell bins than agents: m = 16, so
2 m^2 = 512 > 400, with |CZ| = 16; at seed 0 it floods in T = 9 steps and
writes the per-step central-cell counts.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (name, arguments); every command runs at the default config (n = 2000,
# seed 0) unless its arguments say otherwise.
COMMANDS = [
    ("simulate", ["simulate"]),
    (
        "simulate-slow",
        ["simulate", "--set", "v=0.005", "--steps", "3000", "--agents", "20"],
    ),
    (
        "simulate-fast",
        ["simulate", "--set", "v=9", "--steps", "200", "--agents", "50"],
    ),
    ("flood", ["flood"]),
    ("flood-stability", ["flood", "--check-stability"]),
    ("flood-stability-eta0", ["flood", "--check-stability", "--set", "eta=0"]),
    ("flood-warmup", ["flood", "--set", "init=warmup"]),
    (
        "flood-warmup-slow",
        ["flood", "--set", "init=warmup", "--set", "v=0.05", "--set", "max_steps=50"],
    ),
    ("flood-suburb", ["flood", "--source", "in_suburb"]),
    ("flood-in-cz-32k", ["flood", "--source", "in_cz", "--set", "n=32000"]),
    ("flood-fast", ["flood", "--set", "R=2", "--set", "v=9"]),
    (
        "flood-slow-8k",
        [
            "flood", "--set", "n=8000", "--set", "R=1.5", "--set", "v=0.02",
            "--source", "in_suburb", "--set", "max_steps=300",
        ],
    ),
    ("flood-few-senders", ["flood", "--set", "R=0.5", "--set", "max_steps=40"]),
    (
        "flood-sparse-64k",
        ["flood", "--set", "n=64000", "--set", "R=0.98", "--set", "max_steps=30"],
    ),
    ("validate-stationary", ["validate-stationary", "--snapshots", "20"]),
    ("zones", ["zones"]),
    ("expansion-check", ["expansion-check"]),
    (
        "expansion-check-empty-cz",
        ["expansion-check", "--set", "n=200", "--set", "R=0.5"],
    ),
    ("lemma-sweep", ["lemma-sweep", "--skip-expansion", "--skip-density"]),
    ("scaling", ["scaling", "--scales", "1000", "--replicas", "2"]),
    ("lower-bound", ["lower-bound", "--trials", "200", "--flood-cap", "3"]),
    (
        "lower-bound-2word",
        [
            "lower-bound", "--trials", "1000", "--flood-cap", "2",
            "--set", "seed=4294967297",
        ],
    ),
    (
        "lower-bound-v",
        ["lower-bound", "--trials", "200", "--flood-cap", "2", "--set", "v=0.05"],
    ),
    ("heatmap", ["heatmap"]),
    ("heatmap-origin", ["heatmap", "--origin", "2,7", "--bins", "30"]),
    (
        "lower-bound-side",
        [
            "lower-bound", "--trials", "200", "--flood-cap", "2",
            "--set", "n=1000", "--set", "L=40",
        ],
    ),
    (
        "lower-bound-constants",
        [
            "lower-bound", "--trials", "200", "--flood-cap", "2",
            "--set", "constants.c1=3", "--set", "constants.c2=20", "--set", "eta=0.5",
        ],
    ),
    (
        "lower-bound-n20",
        ["lower-bound", "--trials", "300", "--flood-cap", "1", "--set", "n=20"],
    ),
    ("flood-cz-400", ["flood", "--set", "n=400", "--set", "constants.c1=1.2"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name: str, arguments: list[str], root: Path) -> list[str]:
    """Run one command into ``root / name``; its listing lines."""
    out = root / name
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "mrwpflood", *arguments, "--output-dir", str(out)],
        env=env,
        capture_output=True,
    )
    lines = [f"# {name}: mrwpflood {' '.join(arguments)}", f"exit {done.returncode}"]
    for stream, data in (("stdout", done.stdout), ("stderr", done.stderr)):
        data = data.replace(str(root).encode(), b"<out>")
        lines.append(f"{sha256(data)}  {name}/<{stream}>")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"{sha256(path.read_bytes())}  {path.relative_to(root)}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for name, arguments in COMMANDS:
            print("\n".join(run(name, arguments, root)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
