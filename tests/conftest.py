"""Shared test configuration.

The ``loewner`` hypothesis profile is derandomized and keeps no example
database, so every run tries the same cases; tests take it with
``settings(settings.get_profile("loewner"), max_examples=...)``.
"""

import numpy as np
import pytest
from hypothesis import settings

from loewner import PencilRealization, SymMatrix, jsonio

settings.register_profile("loewner", derandomize=True, database=None, deadline=None)


def legacy_realization_payload(r) -> dict:
    """``r`` in the dense layout that realization files had before coefficients
    were stored as their nonzero entries: every coefficient as full hex rows."""
    return {"k": r.k, "m": r.m, "e": list(map(float.hex, r.e.tolist())),
            "e_decimal": r.e.tolist(), "A0": jsonio.matrix_to_json(r.a0),
            "A": [jsonio.matrix_to_json(c) for c in r.coeffs]}


def complex_gram_realization():
    """A valid two-variable pencil with complex Hermitian coefficients:
    e = e1 and each of A0, A1, A2 is ``g g* / 3`` for a complex Gaussian 3 x 3
    g.  Its coefficients are dense, so its complex points take the dense
    path; F(conj X) is not conj F(X) here, only F(X*) = F(X)* holds."""
    rng = np.random.default_rng(3)
    coefficients = []
    for _ in range(3):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        coefficients.append(SymMatrix(g @ g.conj().T / 3))
    return PencilRealization(np.eye(3)[0], coefficients[0], tuple(coefficients[1:]))


@pytest.fixture
def silent_fds(capfd):
    """Fail the test if anything reaches file descriptor 1 or 2.

    LAPACK reports an illegal argument (such as a NaN scaling factor) by
    printing to fd 1 itself, past Python's ``sys.stdout``, so ``capsys``
    misses it; ``capfd`` captures the descriptors.
    """
    yield
    out, err = capfd.readouterr()
    if out or err:
        pytest.fail(f"written to fd 1: {out!r}; to fd 2: {err!r}")


@pytest.fixture
def linalg_calls(monkeypatch):
    """The name and first argument's shape of each ``np.linalg`` cholesky,
    eigvalsh, eigh, solve and inv call the test makes, in order."""
    seen = []
    for name in ("cholesky", "eigvalsh", "eigh", "solve", "inv"):
        def spy(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append((_name, args[0].shape))
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return seen
