"""Acceptance criteria over a range of seeds: each criterion's false-alarm rate.

    PYTHONPATH=src python3 scripts/criteria_over_seeds.py --criteria 3-6 --seeds 1-20

Runs each chosen criterion of the acceptance suite (`fama-lab validate`) at
each seed through acceptance.run_criterion, so at the tolerance, sample size
and runtime budget it has there, and prints one line per (criterion, seed):
`<index> <seed> PASS|FAIL <detail>`.  Each criterion then gets one summary
line with its pass count and the seeds where it failed.  Both options take a
comma list of integers and a-b ranges.  No criterion is changed; the
package is the one on PYTHONPATH, so another tree's src/ can be run the same
way.  Exits 0 whatever the verdicts, and 2 on an unknown criterion.
"""

from __future__ import annotations

import argparse

from fama_lab.acceptance import _CRITERIA, run_criterion


def int_list(raw: str) -> list[int]:
    """'3-6,9' -> [3, 4, 5, 6, 9]."""
    out: list[int] = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--criteria", type=int_list, default=int_list("1-10"),
                        help="criterion indices, e.g. 3-6 (default 1-10)")
    parser.add_argument("--seeds", type=int_list, default=int_list("1-20"),
                        help="seeds, e.g. 1-20 (default 1-20)")
    args = parser.parse_args()
    unknown = sorted(set(args.criteria) - {index for index, *_ in _CRITERIA})
    if unknown:
        parser.error(f"no criterion {unknown}")
    for index in args.criteria:
        failed = []
        for seed in args.seeds:
            result = run_criterion(index, seed)
            if not result.passed:
                failed.append(seed)
            print(f"{index} {seed} {'PASS' if result.passed else 'FAIL'} "
                  f"{result.detail}", flush=True)
        print(f"criterion {index}: {len(args.seeds) - len(failed)}/"
              f"{len(args.seeds)} passed; failed at seeds {failed}", flush=True)


if __name__ == "__main__":
    main()
