"""Each library rule that rejects a value raises a ValueError that says why."""

import numpy as np
import pytest

from zenocool import CoefficientTable, PhysicalParams, PopulationDistribution
from zenocool.protocol import effective_temperature

PARAMS = PhysicalParams(g_m=1e-3, tau=10.0)


@pytest.mark.parametrize("build, message", [
    (lambda: CoefficientTable("driven", np.ones((2, 2)), PARAMS), "nonempty 1-d"),
    (lambda: CoefficientTable("driven", [], PARAMS), "nonempty 1-d"),
    (lambda: CoefficientTable("driven", [0.5, 0.1], PARAMS), "exactly 1"),
    (lambda: PopulationDistribution(np.array([])), "nonempty 1-d"),
    (lambda: PopulationDistribution(np.zeros((2, 2))), "nonempty 1-d"),
    (lambda: PopulationDistribution.from_probabilities([0.5, -0.1]), "nonnegative"),
    (lambda: PARAMS.to_si(), "omega_m"),
    (lambda: effective_temperature(1.0, 0.0), "omega_m must be positive"),
], ids=["table-2d", "table-empty", "table-c0", "weights-empty", "weights-2d",
        "negative-probability", "si-without-omega_m", "temperature-without-omega_m"])
def test_a_value_that_breaks_a_rule_is_a_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
