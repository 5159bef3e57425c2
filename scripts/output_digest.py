"""Digests of every output file of fig2-fig5, two sweeps and validate.

    PYTHONPATH=src python3 scripts/output_digest.py --seed 7 --baseline OTHER/src

Runs `fama-lab fig2`, `fig3`, `fig4`, `fig5`, the benchmark's 32-point
sweep (`sweep`: `--realizations 20000 --sweep-M 4,8 --sweep-U 2,4
--sweep-N 2,8 --sweep-W 0.25,4 --sweep-scheme MRT,ZF`) and a 14-point sweep
in external mode (`sweep-external`: `--realizations 20000 --sweep-M 2,4
--sweep-U 2,4 --sweep-N 2,5 --sweep-W 0.5 --sweep-scheme MRT,ZF
--reference-mode external`), whose M = 2, U = 4 group holds MRT points
only, and the acceptance suite (`validate`), at one seed, each in a fresh
process with FAMA_LAB_WORKERS set to each of --workers (default 1,2,8),
into temporary directories.  Prints the sha256 of each CSV, of each
manifest.txt with its `wall_seconds` line removed and of
validate_report.txt with its timings removed (the `(  x.xs)` column and
each `runtime ...s` phrase), one line per file:
`<sha256>  <tree> <run> w<workers> <file>`.

Exits 1 if a CSV or the validate report differs between worker counts, or
if a manifest lists other outputs in another order.  With --baseline, the
fama_lab package under that src/ directory is run the same way, and any
file whose digest differs between the two trees at the same worker count
also exits 1: so every criterion reading is compared, not only the CSVs.
A manifest.txt or validate_report.txt that differs is shown too: its
differing lines, timings and `wall_seconds` removed, go to stderr as a
unified diff without context.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE_SRC = Path(__file__).resolve().parent.parent / "src"

# Run name -> fama-lab arguments.
COMMANDS = {
    "fig2": ["fig2"],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "fig5": ["fig5"],
    "sweep": ["sweep", "--realizations", "20000", "--sweep-M", "4,8",
              "--sweep-U", "2,4", "--sweep-N", "2,8", "--sweep-W", "0.25,4",
              "--sweep-scheme", "MRT,ZF"],
    "sweep-external": ["sweep", "--realizations", "20000", "--sweep-M", "2,4",
                       "--sweep-U", "2,4", "--sweep-N", "2,5", "--sweep-W",
                       "0.5", "--sweep-scheme", "MRT,ZF",
                       "--reference-mode", "external"],
    "validate": ["validate"],
}

# The timing fields of validate_report.txt: the per-criterion seconds
# column and the `runtime 1.4s` phrases of the timed criteria.
_REPORT_TIMINGS = re.compile(rb"\(\s*[0-9.]+s\)|runtime [0-9.]+s")
# The outputs whose differing lines are shown, not only flagged.
_TEXT_OUTPUTS = ("manifest.txt", "validate_report.txt")


def run_tree(src: Path, seed: int, workers: int, command: str, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), FAMA_LAB_WORKERS=str(workers),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "fama_lab.cli", *COMMANDS[command], "--seed",
            str(seed), "--out", str(out)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {command} with {workers} workers exited "
                         f"{proc.returncode}")


def digests(out: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    """sha256 of each output, the manifest's without its wall_seconds line
    and the validate report's without its timings, and the lines of those
    two as digested."""
    found, texts = {}, {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"wall_seconds: "))
        elif path.name == "validate_report.txt":
            data = _REPORT_TIMINGS.sub(b"", data)
        found[path.name] = hashlib.sha256(data).hexdigest()
        if path.name in _TEXT_OUTPUTS:
            texts[path.name] = data.decode("utf-8", "replace").splitlines()
    return found, texts


def differing_lines(name: str, old_label: str, old: dict, new_label: str,
                    new: dict) -> str:
    """The lines by which text output `name` differs between two runs, as
    a unified diff without context; empty for any other output."""
    if name not in _TEXT_OUTPUTS:
        return ""
    diff = difflib.unified_diff(old.get(name, []), new.get(name, []),
                                f"{old_label} {name}", f"{new_label} {name}",
                                n=0, lineterm="")
    return "".join(f"\n{line}" for line in diff)


def manifest_outputs(out: Path) -> str:
    """The manifest's outputs line; validate writes no manifest."""
    manifest = out / "manifest.txt"
    if not manifest.exists():
        return ""
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if line.startswith("outputs: "):
            return line
    return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", default="1,2,8",
                        help="comma list of FAMA_LAB_WORKERS values")
    parser.add_argument("--baseline", type=Path,
                        help="src/ directory of another fama_lab tree")
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help="comma list of runs (names above) to run")
    args = parser.parse_args(argv)
    worker_counts = [int(w) for w in args.workers.split(",")]
    commands = args.commands.split(",")
    trees = {"this": HERE_SRC}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()
    problems = []
    # table[tree][command][workers] = {file: digest}
    table: dict = {}
    with tempfile.TemporaryDirectory(prefix="fama_digest_") as tmp:
        for command in commands:
            for workers in worker_counts:
                for tree, src in trees.items():
                    out = Path(tmp) / tree / command / f"w{workers}"
                    run_tree(src, args.seed, workers, command, out)
                    found, texts = digests(out)
                    table.setdefault(tree, {}).setdefault(command, {})[workers] = (
                        found, manifest_outputs(out), texts)
                    for name, digest in found.items():
                        print(f"{digest}  {tree} {command} w{workers} {name}")
    for tree, by_command in table.items():
        for command, by_workers in by_command.items():
            (_, (first, first_outputs, first_texts)), *rest = by_workers.items()
            for workers, (found, outputs, texts) in rest:
                csvs = {n for n in {**first, **found}
                        if n.endswith(".csv") or n == "validate_report.txt"}
                for name in sorted(csvs):
                    if first.get(name) != found.get(name):
                        problems.append(
                            f"{tree} {command}: {name} differs between "
                            f"w{worker_counts[0]} and w{workers}"
                            + differing_lines(name, f"w{worker_counts[0]}",
                                              first_texts, f"w{workers}", texts))
                if outputs != first_outputs:
                    problems.append(f"{tree} {command}: manifest outputs differ "
                                    f"between w{worker_counts[0]} and w{workers}")
    if "baseline" in table:
        for command in commands:
            for workers in worker_counts:
                mine, _, my_texts = table["this"][command][workers]
                theirs, _, their_texts = table["baseline"][command][workers]
                for name in sorted({**mine, **theirs}):
                    if mine.get(name) != theirs.get(name):
                        problems.append(
                            f"{command} w{workers}: {name} differs from the "
                            "baseline" + differing_lines(
                                name, "baseline", their_texts, "this", my_texts))
    for problem in problems:
        print(f"DIFFERENT: {problem}", file=sys.stderr)
    print(f"{'no' if not problems else len(problems)} difference(s)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
