"""Congruences on semimodules and quotient construction.

Congruences are stored as flattened partitions (class id per element),
renumbered canonically: class ids follow the order of each class's smallest
member, which keeps the class of zero at id 0. Congruence checks
compatibility with + on both sides and with the action, which makes
quotient tables independent of the representatives (x ~ a, y ~ b give
x + y ~ a + y ~ a + b), so quotient does not check them. A Bourne
congruence names each class by its least member, read off the reach sets
{m + l | l in L}.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Semimodule, Subsemimodule, Value, subtractive_closure_set
from .errors import StructureError


def canonical_partition(class_ids):
    """Renumber so ids appear in first-occurrence order (0, 1, 2, ...)."""
    remap = {}
    out = []
    for c in class_ids:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return tuple(out)


class Congruence(Value):
    module: Semimodule
    classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "classes", canonical_partition(self.classes))
        M = self.module
        if len(self.classes) != M.size:
            raise StructureError(f"congruence on {M.name}: wrong partition length")
        cls = self.classes
        for a in M.elements():
            for b in range(a + 1, M.size):  # (b, a) fails where (a, b) does
                if cls[a] != cls[b]:
                    continue
                for c in M.elements():
                    if cls[M.add[a][c]] != cls[M.add[b][c]] or \
                       cls[M.add[c][a]] != cls[M.add[c][b]]:
                        raise StructureError(
                            f"congruence on {M.name}: not compatible with add "
                            f"(a={a},b={b},c={c})")
                for s in range(M.semiring.size):
                    if cls[M.action[a][s]] != cls[M.action[b][s]]:
                        raise StructureError(
                            f"congruence on {M.name}: not compatible with action "
                            f"(a={a},b={b},s={s})")

    @property
    def class_count(self):
        return max(self.classes) + 1

    def class_members(self):
        out = [[] for _ in range(self.class_count)]
        for m, c in enumerate(self.classes):
            out[c].append(m)
        return [tuple(ms) for ms in out]

    def related(self, a, b):
        return self.classes[a] == self.classes[b]


def bourne_congruence(L: Subsemimodule) -> Congruence:
    """m1 ~ m2 iff m1 + l1 = m2 + l2 for some l1, l2 in L.

    The relation is already an equivalence, as 0 is in L and L is closed
    under addition, so each element's class is named by its least member:
    the least a <= m whose reach set {a + l} meets m's.
    """
    M = L.parent
    reach = [{M.add[m][l] for l in L.members} for m in M.elements()]
    return Congruence(M, tuple(next(a for a in M.elements() if not reach[a].isdisjoint(r))
                               for r in reach))


def kernel_pair_congruence(f) -> Congruence:
    """Partition of the domain by equal images, a congruence by linearity:
    f(a) = f(b) gives f(a+c) = f(b+c), f(c+a) = f(c+b) and f(as) = f(bs)."""
    return Congruence._trusted(f.domain, canonical_partition(f.map))


class QuotientModule(NamedTuple):
    base: Semimodule
    congruence: Congruence
    quotient: Semimodule
    projection: object  # Morphism base -> quotient


def quotient(M: Semimodule, rho: Congruence, name=None) -> QuotientModule:
    """Quotient module by a validated congruence, with its projection.

    Tables are induced on smallest-member representatives: every entry is a
    class id, and by rho's compatibility they do not depend on the choice,
    so the projection is linear.
    """
    from .morphisms import Morphism

    if rho.module != M:
        raise StructureError("congruence does not live on the module being quotiented")
    members = rho.class_members()
    reps = [ms[0] for ms in members]
    cls = rho.classes
    add = tuple(tuple(cls[M.add[a][b]] for b in reps) for a in reps)
    action = tuple(tuple(cls[M.action[a][s]] for s in range(M.semiring.size)) for a in reps)
    if name is None:
        zero_class = ",".join(map(str, members[cls[M.zero]]))
        name = f"{M.name}/{{{zero_class}}}"
    Q = Semimodule._trusted(name, M.semiring, len(reps), add, action, cls[M.zero])
    pi = Morphism._trusted(f"pi[{name}]", M, Q, cls)
    return QuotientModule(M, rho, Q, pi)


def projection_kernel_is_closure(L: Subsemimodule) -> bool:
    """Kernel of the Bourne projection equals the subtractive closure of L."""
    M = L.parent
    rho = bourne_congruence(L)
    kernel = {m for m in M.elements() if rho.classes[m] == rho.classes[M.zero]}
    return kernel == set(subtractive_closure_set(M, L.members))
