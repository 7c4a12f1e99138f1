"""The problem-family table: one entry per servable kind, each entry
consistent with the system it builds."""

import numpy as np
import pytest

from repro.families import FAMILIES
from repro.runtime import ProblemSpec

SPECS = {
    "burgers": ProblemSpec.burgers(3, 2.0, seed=1),
    "quadratic": ProblemSpec.quadratic(1.0, 2.0),
}


def test_served_kinds():
    assert set(FAMILIES) == set(SPECS)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_independent_residual_agrees_with_the_solver_residual(kind):
    # Written apart from the solver's assembly, but the same equations.
    spec = SPECS[kind]
    system, guess = spec.build()
    point = guess + 0.1 * np.arange(system.dimension) / system.dimension
    independent = spec.family.independent_residual(system, point)
    np.testing.assert_allclose(independent, system.residual(point), rtol=1e-12, atol=1e-12)


def test_burgers_ring_covers_the_nodes_next_to_the_wall():
    system, _ = SPECS["burgers"].build()
    mask = FAMILIES["burgers"].boundary_ring(system)
    assert mask.shape == (system.dimension,)
    # A 3x3 grid: every node but the centre, in both fields.
    assert int(mask.sum()) == 2 * 8


def test_unknown_kind_is_rejected_on_construction():
    with pytest.raises(ValueError, match="unknown problem kind"):
        ProblemSpec(kind="bratu")
