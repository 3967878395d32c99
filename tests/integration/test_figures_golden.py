"""The micro experiment matrix's figure payload, pinned byte for byte.

All 19 benchmarks x B/P/C/W at the micro scale, through the experiment
pipeline, must reproduce ``tests/goldens/figures_micro.json`` exactly:
any change to simulated behaviour anywhere in the matrix shows up here.
Refresh through ``scripts/refresh_goldens.py`` only when behaviour
changes on purpose.
"""

import json
import os

import pytest

pytestmark = pytest.mark.slow

from repro.analysis.experiments import ExperimentSettings, figure_payload, run_config_matrix

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "goldens", "figures_micro.json"
)


def test_micro_matrix_matches_golden():
    matrix = run_config_matrix(ExperimentSettings.micro())
    # Round-trip through JSON so tuples/sets collapse exactly as they
    # do in the stored golden.
    payload = json.loads(json.dumps(figure_payload(matrix)))
    with open(GOLDEN_PATH) as handle:
        assert payload == json.load(handle)
