import dataclasses
import inspect

import pytest

import graphsimplex as gs

# the functions that read only fixed gates, never the sign dead-band
FIXED_GATE_READERS = [
    "pinv_kernel_u", "verify_identity_general", "check_metric", "schur_complement",
    "kron_reduce_single", "schur_via_pinv", "check_quotient",
    "check_resistance_preservation", "canonical_gram", "gram_pair_from_pinv", "face_gram",
]


def takes_tol(f) -> bool:
    return "tol" in inspect.signature(f).parameters


def test_the_dead_band_is_the_one_field():
    assert [f.name for f in dataclasses.fields(gs.Tolerances)] == ["validation"]
    assert gs.Tolerances(1e-6) == gs.Tolerances(validation=1e-6)
    assert gs.DEFAULT.validation == 1e-9


@pytest.mark.parametrize("gate", ["zero_eigenvalue", "residual", "metric_slack", "clamp"])
def test_a_fixed_gate_cannot_be_set(gate):
    with pytest.raises(TypeError):
        gs.Tolerances(**{gate: 1e-13})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(gs.DEFAULT, gate, 1e-13)


def test_fixed_gate_values():
    d = gs.DEFAULT
    assert (d.zero_eigenvalue, d.residual, d.metric_slack, d.clamp) == (1e-10, 1e-8, 1e-12, 1e-12)
    assert gs.Tolerances(1e-3).clamp == 1e-12


@pytest.mark.parametrize("name", FIXED_GATE_READERS)
def test_fixed_gate_readers_take_no_tol(name):
    assert not takes_tol(getattr(gs, name))


def test_tol_is_taken_where_the_dead_band_is_read():
    public = {name for name in gs.__all__
              if inspect.isfunction(getattr(gs, name)) and takes_tol(getattr(gs, name))}
    assert public == {"validate_laplacian", "graph_from_laplacian", "dihedral_angles",
                      "is_hyperacute"}
    assert takes_tol(gs.LaplacianMatrix.from_matrix)
