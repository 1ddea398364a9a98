import numpy as np
import pytest

from conftest import (
    embed_state,
    random_mixed_state,
    random_pure_state,
    random_symplectic,
    symplectic_eigenvalues,
    vacuum_state,
)
from gaussfisher.qfi import probe_state
from gaussfisher.states import GaussianState, symplectic_form


def test_symplectic_form_structure():
    for n in (1, 2, 5):
        omega = symplectic_form(n)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))
        assert np.array_equal(omega.T, -omega)
    with pytest.raises(ValueError):
        symplectic_form(0)


def test_vacuum_examples():
    one = vacuum_state(1)
    assert np.array_equal(one.first_moments, np.zeros(2))
    assert np.array_equal(one.covariance, np.eye(2))
    assert np.allclose(symplectic_eigenvalues(vacuum_state(2)), [1.0, 1.0])
    assert np.isclose(np.linalg.det(vacuum_state(3).covariance), 1.0)
    with pytest.raises(ValueError):
        vacuum_state(0)


def test_squeezed_displaced_examples():
    trivial = embed_state(2, (1,), probe_state("single_squeezed_displaced", 0.0, 0.0))
    assert np.array_equal(trivial.covariance, vacuum_state(2).covariance)
    assert np.array_equal(trivial.first_moments, np.zeros(4))

    squeezed = probe_state("single_squeezed_displaced", 1.0, 0.0)
    assert np.allclose(squeezed.covariance, np.diag([np.e, 1.0 / np.e]))
    assert np.isclose(np.linalg.det(squeezed.covariance), 1.0)

    displaced = probe_state("single_squeezed_displaced", 0.0, 2.0)
    assert np.allclose(displaced.first_moments, [2.0 * np.sqrt(2.0), 0.0])

    # the product probe is the single-mode probe on each of two modes
    product = probe_state("two_product_squeezed_displaced", 0.7, 0.4)
    one = probe_state("single_squeezed_displaced", 0.7, 0.4)
    assert np.array_equal(product.covariance, np.kron(np.eye(2), one.covariance))
    assert np.array_equal(product.first_moments, np.tile(one.first_moments, 2))

    with pytest.raises(ValueError):
        embed_state(2, (3,), squeezed)


def test_two_mode_squeezed_examples():
    assert np.array_equal(probe_state("two_mode_squeezed", 0.0, 0.0).covariance, np.eye(4))
    tms = probe_state("two_mode_squeezed", 1.0, 0.0)
    assert np.allclose(symplectic_eigenvalues(tms), [1.0, 1.0])

    # partial trace by explicit row/column deletion of the 4x4 matrix
    kept = tms.covariance[:2, :2]
    assert np.allclose(kept, np.cosh(1.0) * np.eye(2))
    assert np.allclose(symplectic_eigenvalues(kept), [np.cosh(1.0)])

    with pytest.raises(ValueError):
        embed_state(2, (1, 1), tms)


def test_constructor_validation():
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), 0.1 * np.eye(2))  # below vacuum noise
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(3), np.eye(2))
    state = vacuum_state(1)
    assert not state.covariance.flags.writeable
    assert not state.first_moments.flags.writeable


def test_random_pure_states_pure_detector(rng):
    # |det Sigma - 1| <= 1e-9 if and only if every symplectic eigenvalue is
    # within 1e-9 of one; both sides hold on pure states, both fail on
    # slightly thermal ones
    for _ in range(100):
        state = random_pure_state(2, rng)
        cov = state.covariance
        assert np.max(np.abs(cov - cov.T)) == 0.0
        omega = symplectic_form(2)
        assert np.min(np.linalg.eigvalsh(cov + 1j * omega)) >= -1e-10
        assert abs(np.linalg.det(cov) - 1.0) <= 1e-9
        assert np.max(np.abs(symplectic_eigenvalues(state) - 1.0)) <= 1e-9
    for _ in range(20):
        s = random_symplectic(2, rng)
        nu = 1.0 + rng.uniform(1e-6, 1e-3)
        thermal = s @ np.diag([nu, nu, 1.0, 1.0]) @ s.T
        assert abs(np.linalg.det(thermal) - 1.0) > 1e-9
        assert np.max(np.abs(symplectic_eigenvalues(thermal) - 1.0)) > 1e-9


def test_symplectic_eigenvalues_flags_unphysical():
    with pytest.raises(ValueError):
        symplectic_eigenvalues(0.5 * np.eye(2))


def test_embed_and_reduce_roundtrip(rng):
    inner = random_mixed_state(2, rng)
    outer = embed_state(5, (2, 4), inner)
    idx = [2, 3, 6, 7]  # quadratures of modes 2 and 4
    assert np.array_equal(outer.covariance[np.ix_(idx, idx)], inner.covariance)
    assert np.array_equal(outer.first_moments[idx], inner.first_moments)
    assert np.array_equal(outer.covariance[:2, :], np.eye(10)[:2, :])

