"""Reference chart coordinates in another ordered basis, for the tests of
``padicdist.groupmodel.basis_chart``.

``basis_chart`` checks the basis and inverts its coordinate matrix once,
then runs its Newton iteration on int coordinate tuples with ``model.law``.
``coords_in_basis`` here is the loop it replaced: the matrix inverted for
every point, and each step rebuilt through the checked ``gmul``, ``gpow``
and ``ginv``, one GroupElement per result.  The tests require the same
residues from both.
"""

from padicdist.groupmodel import ModelError, _basis_matrix, _matinv_mod
from padicdist.padic import ppow


def coords_in_basis(model, basis, g):
    """Chart coordinates of the GroupElement g in the chart of basis, as
    residues mod p**elem_prec: g = b_1^{y_1} ... b_d^{y_d} solved by a
    Hensel/Newton iteration on the coordinate linearization at the
    identity."""
    W = model.elem_prec
    p, d = model.p, model.d
    m = ppow(p, W)
    ainv = _matinv_mod(_basis_matrix(model, basis, W), p, W)
    y = [0] * d
    for _ in range(W + 4):
        cur = model.identity()
        for j in range(d):
            cur = model.gmul(cur, model.gpow(basis[j], y[j]))
        c = model.gmul(model.ginv(cur), g).key()
        if not any(c):
            break
        for j in range(d):
            y[j] = (y[j] + sum(ainv[j][k] * c[k] for k in range(d))) % m
    else:
        raise ModelError("basis coordinate iteration did not converge")
    return tuple(y)
