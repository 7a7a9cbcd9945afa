"""Cartan matrices and root data, validated, with their JSON form.

A Cartan matrix follows the convention A[i][j] = <alpha_i, alpha_j^vee>:
an integer square matrix with 2 on the diagonal, off-diagonal entries
<= 0 and a symmetric zero pattern. Whether it is of finite type is
`classify`'s check, the one its reports need.
"""

from __future__ import annotations

from .digits import ArgumentError, record


def _validate_cartan(cartan):
    if not isinstance(cartan, (list, tuple)) or not cartan:
        raise ArgumentError("a Cartan matrix is a nonempty square matrix")
    n = len(cartan)
    for row in cartan:
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise ArgumentError("Cartan matrix must be square")
        for a in row:
            if not isinstance(a, int) or isinstance(a, bool):
                raise ArgumentError("Cartan entries must be integers")
    for i in range(n):
        if cartan[i][i] != 2:
            raise ArgumentError("Cartan diagonal entries must equal 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise ArgumentError("off-diagonal Cartan entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise ArgumentError("Cartan zero pattern must be symmetric")
    return tuple(tuple(row) for row in cartan)


@record
class RootDatum:
    cartan: tuple[tuple[int, ...], ...]
    simply_connected: bool = True

    def __post_init__(self):
        object.__setattr__(self, "cartan", _validate_cartan(self.cartan))

    @property
    def rank(self) -> int:
        return len(self.cartan)


def datum_from_json(obj) -> RootDatum:
    if not isinstance(obj, dict):
        raise ArgumentError("a root datum is an object with a 'cartan' field")
    cartan = obj.get("cartan")
    sc = obj.get("simply_connected", True)
    if not isinstance(sc, bool):
        raise ArgumentError("'simply_connected' must be a boolean")
    return RootDatum(cartan, sc)


def datum_to_json(datum: RootDatum) -> dict:
    return {
        "cartan": [list(r) for r in datum.cartan],
        "simply_connected": datum.simply_connected,
    }

