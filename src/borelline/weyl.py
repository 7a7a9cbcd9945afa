"""Root systems from Cartan matrices, and their Weyl groups.

Roots are integer coordinate vectors in the simple-root basis, generated by
closing the simple roots under simple reflections. Pairings use the
convention A[i][j] = <alpha_i, alpha_j^vee>, so the reflection s_j sends a
root with coordinates c to c - (sum_k c_k A[k][j]) e_j. Weyl group elements
are canonicalized by their action on the simple roots.
"""

from __future__ import annotations

from collections import deque

from .digits import ArgumentError, RelationError, record
from .towers import CapabilityError

ROOT_GENERATION_CAP = 4096
WEYL_ORDER_CAP = 10 ** 4


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


class RootSystem:
    """All roots of a finite-type datum, with coroots generated in parallel."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        n = datum.rank
        A = datum.cartan
        simple = [
            (
                tuple(1 if k == i else 0 for k in range(n)),
                tuple(1 if k == i else 0 for k in range(n)),
            )
            for i in range(n)
        ]
        seen = {pair[0]: pair[1] for pair in simple}
        queue = deque(simple)
        while queue:
            root, coroot = queue.popleft()
            for j in range(n):
                pair_r = sum(c * A[k][j] for k, c in enumerate(root))
                pair_c = sum(d * A[j][k] for k, d in enumerate(coroot))
                new_root = tuple(
                    c - (pair_r if k == j else 0) for k, c in enumerate(root)
                )
                new_coroot = tuple(
                    d - (pair_c if k == j else 0) for k, d in enumerate(coroot)
                )
                if new_root not in seen:
                    seen[new_root] = new_coroot
                    queue.append((new_root, new_coroot))
                    if len(seen) > ROOT_GENERATION_CAP:
                        raise CapabilityError(
                            "root generation did not close; datum is not finite type"
                        )
        self.coroot_of = seen
        self.all_roots = tuple(sorted(seen))
        pos = [r for r in self.all_roots if all(c >= 0 for c in r)]
        neg = [r for r in self.all_roots if all(c <= 0 for c in r)]
        if len(pos) + len(neg) != len(self.all_roots):
            raise CapabilityError("generated vectors are not split by sign; not finite type")
        self.positive_roots = tuple(sorted(pos, key=lambda r: (sum(r), r)))

    def reflect(self, root, j):
        A = self.datum.cartan
        pairing = sum(c * A[k][j] for k, c in enumerate(root))
        return tuple(c - (pairing if k == j else 0) for k, c in enumerate(root))


class WeylElement:
    """Canonical form: the tuple of images of the simple roots."""

    __slots__ = ("system", "images", "word", "length")

    def __init__(self, system, images, word, length):
        self.system = system
        self.images = images
        self.word = word
        self.length = length

    def act(self, root):
        n = len(self.images)
        out = [0] * n
        for c, img in zip(root, self.images):
            if c:
                for k in range(n):
                    out[k] += c * img[k]
        return tuple(out)

    def inversion_set(self):
        """Positive roots sent negative; its size equals the length."""
        return tuple(
            r
            for r in self.system.positive_roots
            if all(c <= 0 for c in self.act(r)) and any(self.act(r))
        )

    def __mul__(self, other):
        if other.system is not self.system:
            raise ArgumentError("elements of different Weyl groups")
        images = tuple(self.act(img) for img in other.images)
        return self.system.group._by_images(images)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.system is other.system and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"WeylElement(word={self.word})"


class WeylGroup:
    def __init__(self, system: RootSystem):
        self.system = system
        system.group = self
        n = system.datum.rank
        simple = tuple(
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
        )
        identity = WeylElement(system, simple, (), 0)
        elements = {simple: identity}
        queue = deque([identity])
        while queue:
            w = queue.popleft()
            for j in range(n):
                # right multiplication by s_j permutes the images through s_j first
                images = tuple(
                    w.act(system.reflect(simple[i], j)) for i in range(n)
                )
                if images not in elements:
                    nxt = WeylElement(system, images, w.word + (j,), w.length + 1)
                    elements[images] = nxt
                    queue.append(nxt)
                    if len(elements) > WEYL_ORDER_CAP:
                        raise CapabilityError("Weyl group exceeds the order cap")
        self._by_key = elements
        self.elements = tuple(
            sorted(elements.values(), key=lambda w: (w.length, w.word))
        )
        for w in self.elements:
            if len(w.inversion_set()) != w.length:
                raise RelationError("word length disagrees with inversion count")
        longest = [w for w in self.elements if w.length == self.elements[-1].length]
        if len(longest) != 1:
            raise RelationError("longest element is not unique")
        self.longest = longest[0]
        self.identity = identity

    def _by_images(self, images):
        return self._by_key[images]

    @property
    def order(self) -> int:
        return len(self.elements)

    def simple_reflection(self, i):
        n = self.system.datum.rank
        simple = tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))
        images = tuple(self.system.reflect(simple[j], i) for j in range(n))
        return self._by_key[images]

    def subgroup_elements(self, subset):
        """The parabolic subgroup generated by the chosen simple reflections."""
        gens = [self.simple_reflection(i) for i in subset]
        out = {self.identity}
        queue = deque([self.identity])
        while queue:
            w = queue.popleft()
            for g in gens:
                nxt = w * g
                if nxt not in out:
                    out.add(nxt)
                    queue.append(nxt)
        return frozenset(out)

    def min_coset_reps(self, subset):
        """Elements whose inversion set avoids the positive roots of the subset."""
        sub = set(subset)
        sub_pos = {
            r
            for r in self.system.positive_roots
            if all(c == 0 for i, c in enumerate(r) if i not in sub)
        }
        return tuple(
            w
            for w in self.elements
            if not (set(w.inversion_set()) & sub_pos)
        )

    def poincare_coefficients(self) -> tuple[int, ...]:
        """Coefficients of sum_w t^len(w)."""
        top = self.longest.length
        coeffs = [0] * (top + 1)
        for w in self.elements:
            coeffs[w.length] += 1
        return tuple(coeffs)


def weyl_group(datum: RootDatum) -> WeylGroup:
    return WeylGroup(RootSystem(datum))


def poincare_product(degrees) -> tuple[int, ...]:
    """Expand prod_i (1 + t + ... + t^(d_i - 1)) as coefficients."""
    coeffs = [1]
    for d in degrees:
        block = [1] * d
        out = [0] * (len(coeffs) + d - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(block):
                out[i + j] += a * b
        coeffs = out
    return tuple(coeffs)


CLASSICAL_DEGREES = {
    "A1": (2,),
    "A2": (2, 3),
    "B2": (2, 4),
    "A3": (2, 3, 4),
}
