"""Shared utilities for the figure-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper as an aligned
text table, printed to stdout and written to ``benchmarks/results/``, and
asserts the paper's shape on it.  The modules run as one pytest suite
(README, "Tests and benchmarks"); each module's sweep runs once, in a
module-scoped fixture, so ``--dist loadfile`` keeps it in one worker.

Every randomised benchmark runs each point on the same :data:`SEEDS`.  A
claim about a mean (latency, throughput, fidelity) is asserted on the
mean over the seeds; a claim about every run is asserted on each seed.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import mean

RESULTS_DIR = Path(__file__).parent / "results"

#: The seeds every randomised figure benchmark runs.
SEEDS = (1, 2, 3)


def seed_mean(runs: list[dict]) -> dict:
    """Key-wise mean of one result dict per seed."""
    return {key: mean([run[key] for run in runs]) for key in runs[0]}


def write_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)
