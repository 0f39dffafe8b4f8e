"""The paper's claims as a suite (``examples/paper.suite.yaml``).

CI runs the whole suite (every experiment at seeds 2000, 7, 42, 1, 99,
12345, 31337 and 424242).  Here, Tier-1 checks the file's shape and
runs the slice of cells that each finish in about a second or less, at
seeds 7 and 42, so a regression in one of those claims fails the
ordinary test run.
"""

import os

import pytest

from repro.bench.experiments import EXPERIMENTS, SEEDED_EXPERIMENTS
from repro.suites import load_suite, run_cell

SUITE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "examples", "paper.suite.yaml")
SUITE = load_suite(SUITE_PATH)

#: Experiments whose cells each take about a second or less.
FAST_IDS = {"A1", "D1", "E1", "E4", "E5", "F3", "F5", "G1", "M1",
            "R1", "R2", "R3"}
FAST_SEEDS = {7, 42}

FAST_CELLS = [
    cell for cell in SUITE.cells
    if cell.params_dict()["id"] in FAST_IDS
    and (cell.explicit_seed in FAST_SEEDS
         or cell.params_dict()["id"] not in SEEDED_EXPERIMENTS)
]


PAPER_SEEDS = {2000, 7, 42, 1, 99, 12345, 31337, 424242}


def test_suite_covers_every_experiment_at_eight_seeds():
    seen = {}
    for cell in SUITE.cells:
        seen.setdefault(cell.params_dict()["id"], set()).add(
            cell.explicit_seed)
    assert set(seen) == set(EXPERIMENTS)
    for experiment_id, seeds in seen.items():
        if experiment_id in SEEDED_EXPERIMENTS:
            assert seeds == PAPER_SEEDS, experiment_id
        else:
            assert seeds == {None}, experiment_id
    assert len(SUITE.cells) == 105


def test_fast_slice_size():
    # Eleven seeded experiments at two seeds, plus the unseeded F5.
    assert len(FAST_CELLS) == 23


@pytest.mark.parametrize("cell", FAST_CELLS, ids=lambda c: c.cell_id)
def test_paper_claim_holds(cell):
    envelope = run_cell(cell, SUITE.seed, include_document=False)
    assert envelope["status"] == "passed", envelope["checks"]
