"""Retired spellings fail with a typed error instead of warning.

The boolean ``powertm``/``clear`` design flags, the boolean ``oracle``,
the paper letters as configuration specs, the pre-v6 payload keys and
the ``repro.sim.runner`` delegates were all removed rather than kept
behind deprecation warnings. Each old spelling must now fail loudly,
with an error a caller can catch by type, never run with a silently
different meaning.
"""

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import SimConfig
from repro.sim.engine import SCHEMA_VERSION


def payload_with(key, value):
    data = SimConfig.for_design("baseline", num_cores=4).to_dict()
    data[key] = value
    return data


def import_runner_name(name):
    exec("from repro.sim.runner import {}".format(name), {})


CASES = [
    pytest.param(lambda: SimConfig(powertm=True), TypeError, "powertm",
                 id="constructor-powertm-flag"),
    pytest.param(lambda: SimConfig(clear=True), TypeError, "clear",
                 id="constructor-clear-flag"),
    pytest.param(lambda: SimConfig().replaced(clear=True), TypeError,
                 "clear", id="replaced-clear-flag"),
    pytest.param(lambda: SimConfig(oracle=True), ConfigurationError,
                 "oracle must be one of", id="constructor-oracle-bool"),
    pytest.param(
        lambda: api.simulate("mwobject", "baseline", seeds=1,
                             ops_per_thread=2, oracle=False),
        ConfigurationError, "oracle must be one of", id="simulate-oracle-bool",
    ),
    pytest.param(
        lambda: api.simulate("mwobject", "W", seeds=1, ops_per_thread=2),
        ConfigurationError, "registered design", id="simulate-paper-letter",
    ),
    pytest.param(
        lambda: api.sweep_retry_threshold("mwobject", "C", thresholds=(1,),
                                          seeds=(1,), ops_per_thread=2),
        ConfigurationError, "registered design", id="sweep-paper-letter",
    ),
    pytest.param(lambda: SimConfig.for_design("B"), ConfigurationError,
                 "unknown design", id="for-design-paper-letter"),
    pytest.param(lambda: SimConfig.from_dict(payload_with("powertm", True)),
                 ConfigurationError, "unknown SimConfig fields",
                 id="payload-powertm-key"),
    pytest.param(lambda: SimConfig.from_dict(payload_with("clear", False)),
                 ConfigurationError, "unknown SimConfig fields",
                 id="payload-clear-key"),
    pytest.param(lambda: SimConfig.from_dict(payload_with("backend", "batch")),
                 ConfigurationError, "unknown SimConfig fields",
                 id="payload-backend-key"),
    pytest.param(
        lambda: SimConfig.from_dict(payload_with("debug_conflict_check",
                                                 False)),
        ConfigurationError, "unknown SimConfig fields",
        id="payload-debug-conflict-check-key",
    ),
    pytest.param(lambda: SimConfig.from_dict(payload_with("oracle", True)),
                 ConfigurationError, "oracle must be one of",
                 id="payload-oracle-bool"),
    pytest.param(lambda: import_runner_name("run_workload"), ImportError,
                 "run_workload", id="runner-run-workload"),
    pytest.param(lambda: import_runner_name("run_seeds"), ImportError,
                 "run_seeds", id="runner-run-seeds"),
    pytest.param(lambda: import_runner_name("sweep_retry_threshold"),
                 ImportError, "sweep_retry_threshold",
                 id="runner-sweep-retry-threshold"),
]


@pytest.mark.parametrize("call, error, match", CASES)
def test_retired_spelling_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_letter_error_names_every_registered_design():
    with pytest.raises(ConfigurationError) as excinfo:
        api.simulate("mwobject", "W", seeds=1, ops_per_thread=2)
    for name in DESIGN_REGISTRY:
        assert name in str(excinfo.value)


def test_payload_migration_removal_bumped_the_schema():
    # Payloads are no longer migrated, so every entry written before the
    # removal (v5 and older, some spelling powertm/clear, a boolean
    # oracle, backend or debug_conflict_check) must miss the cache and
    # be refused by a journal instead of failing to deserialize.
    assert SCHEMA_VERSION >= 6
