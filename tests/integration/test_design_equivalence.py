"""Every spelling of a design yields the same config and the same run.

A design reaches the simulator along several canonical routes: the
``SimConfig(design=...)`` constructor, ``SimConfig.for_design``,
``replaced(design=...)``, a JSON payload read back by ``from_dict``,
and ``api.simulate`` given the bare design name. All of them must
normalize to the same config (same fingerprint, hence the same cache
key) and, run for run, produce byte-identical result JSON. The paper's
four designs keep their B/P/C/W letters only as figure column keys
(``design_name``). The full micro-matrix figure golden is pinned by
``test_figures_golden``; this file proves the routes agree.
"""

import json
import warnings

import pytest

from repro import api
from repro.htm.design import DESIGN_REGISTRY, LEGACY_LETTER_DESIGNS, design_name
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload

DESIGNS = sorted(DESIGN_REGISTRY)
PAPER_LETTERS = {design: letter for letter, design in LEGACY_LETTER_DESIGNS.items()}


def run_json(config, workload="mwobject", seed=1):
    machine = Machine(
        config, make_workload(workload, ops_per_thread=4), seed=seed
    )
    stats = machine.run()
    return json.dumps(stats.to_dict(), sort_keys=True)


def from_payload(config):
    return SimConfig.from_dict(json.loads(json.dumps(config.to_dict())))


class TestSpellingEquivalence:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_configs_normalize_identically(self, design):
        canonical = SimConfig.for_design(design, num_cores=4)
        spellings = [
            SimConfig(design=design, num_cores=4),
            SimConfig(num_cores=4).replaced(design=design),
            from_payload(canonical),
        ]
        for config in spellings:
            assert config == canonical
            assert config.fingerprint() == canonical.fingerprint()

    @pytest.mark.parametrize("design", DESIGNS)
    def test_runs_byte_identical(self, design):
        canonical = SimConfig.for_design(design, num_cores=4)
        assert run_json(from_payload(canonical)) == run_json(canonical)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_api_name_matches_config(self, design):
        named = api.simulate("mwobject", design, seeds=1, ops_per_thread=2)
        configured = api.simulate(
            "mwobject", SimConfig.for_design(design), seeds=1,
            ops_per_thread=2,
        )
        assert named.run.config == configured.run.config
        assert json.dumps(named.stats.to_dict(), sort_keys=True) \
            == json.dumps(configured.stats.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_column_key(self, design):
        # The figures key their columns by the paper letter where the
        # paper has one, and by the design name otherwise; design_name
        # maps a column key back to the design.
        key = SimConfig.for_design(design).config_letter
        assert key == PAPER_LETTERS.get(design, design)
        assert design_name(key) == design
        assert design_name(design) == design

    def test_design_name_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = api.simulate("mwobject", "clear", seeds=1,
                                  ops_per_thread=3)
        assert report.run.config.design == "clear"
