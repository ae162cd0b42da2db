"""Linear maps between semimodules and their derived objects.

Every value of the Morphism type is a genuine map of semimodules. The public
constructor, which the parser and user code call, validates linearity;
maps that are linear by construction (identities, hom-set members,
composites, inclusions, projections and maps factored through an injection
or a surjection) and images, which linearity closes, are built by
Value._trusted, so a derived value is not checked again (see core).
classify() evaluates the raw defining condition of each flag; the
lemma-level equivalences these flags satisfy live in the test suite,
keeping implementation and oracle apart.

Induced maps are built in one place: factor_through_injection lifts a map
through an injection (kernels, restrictions, the left vertical of a
square) and factor_through_surjection descends one through a surjection
(cokernels, quotient rows, the right vertical of a square). _table(g, f)
is the table of g∘f without building the Morphism, for callers that only
compare tables.

The hom search, _hom_tables, completes a map's table by the search engine of
core (_completions), with the linearity laws as its laws.

No result depends on names, so the caches are lru_caches on name-free
arguments (Semimodule.unnamed, a table, a member tuple), and a result is
named per call; only enumerate_hom caches named maps, per pair of named
modules. The caches:
- _hom_tables per pair of modules;
- _classified per (domain, codomain, table): a MorphismClassification,
  whose flags are computed when first read and kept;
- _k_uniform_witness per (domain, codomain zero, table);
- _cancellables per module, which classify and is_cancellative_morphism
  read;
- _substructures per (module, members): the subsemimodule as a module
  (kernel_module, image_module, submodule_as_module and the harness's
  kernel structures) and the Bourne quotient it gives, checked by
  Congruence (cokernel, bourne_quotient and the harness's quotient row),
  each built when first read, with the last naming submodule_as_module
  and bourne_quotient gave each.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .core import Semimodule, Subsemimodule, Value, _cancellable, _completions, _validates, \
    generators, subtractive_closure_set
from .errors import LemmaRefuted, PreconditionError, StructureError
from .quotients import Congruence, QuotientModule, bourne_congruence, kernel_pair_congruence, \
    quotient


class Morphism(Value):
    name: str
    domain: Semimodule
    codomain: Semimodule
    map: tuple

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(int(x) for x in self.map))
        dom, cod = self.domain, self.codomain
        if dom.semiring != cod.semiring:
            raise StructureError(f"morphism {self.name}: domain and codomain semirings differ")
        if len(self.map) != dom.size:
            raise StructureError(f"morphism {self.name}: map has {len(self.map)} entries, "
                                 f"expected {dom.size}")
        for v in self.map:
            if not 0 <= v < cod.size:
                raise StructureError(f"morphism {self.name}: value {v} out of range")
        problem = _linearity_problem(dom, cod, self.map)
        if problem is not None:
            raise StructureError(f"morphism {self.name}: {problem}")

    def __call__(self, m):
        return self.map[m]

    def __repr__(self):
        return f"Morphism({self.name!r}: {self.domain.name} -> {self.codomain.name})"


def _linearity_problem(dom: Semimodule, cod: Semimodule, f):
    """Why the table f from dom to cod is not linear, the first law it breaks
    in the order zero, additivity, equivariance at every s in S; None when it
    is linear."""
    if f[dom.zero] != cod.zero:
        return "does not preserve zero"
    for a in dom.elements():
        add_a, add_fa = dom.add[a], cod.add[f[a]]
        for b in dom.elements():
            if f[add_a[b]] != add_fa[f[b]]:
                return f"not additive at ({a},{b})"
    for a in dom.elements():
        act_a, act_fa = dom.action[a], cod.action[f[a]]
        for s in range(dom.semiring.size):
            if f[act_a[s]] != act_fa[s]:
                return f"not equivariant at ({a},s={s})"
    return None


def identity_morphism(M: Semimodule) -> Morphism:
    return Morphism._trusted(f"id[{M.name}]", M, M, tuple(range(M.size)))


def zero_morphism(M: Semimodule, N: Semimodule) -> Morphism:
    return Morphism(f"0[{M.name}->{N.name}]", M, N, (N.zero,) * M.size)


def compose(g: Morphism, f: Morphism) -> Morphism:
    if f.codomain != g.domain:
        raise PreconditionError(f"cannot compose {g.name} after {f.name}: objects differ")
    return Morphism._trusted(f"{g.name}*{f.name}", f.domain, g.codomain, _table(g, f))


def _table(g, f):
    """The table of g∘f, without building (and re-validating) the Morphism."""
    return tuple(map(g.map.__getitem__, f.map))


def hom_add(f: Morphism, g: Morphism) -> Morphism:
    """Pointwise sum; Hom(M, N) is a commutative monoid under this."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise PreconditionError("hom_add: mismatched hom-set")
    cod = f.codomain
    return Morphism(f"({f.name}+{g.name})", f.domain, cod,
                    tuple(cod.add[a][b] for a, b in zip(f.map, g.map)))


def is_injective(f: Morphism) -> bool:
    return len(set(f.map)) == f.domain.size


def is_surjective(f: Morphism) -> bool:
    return len(set(f.map)) == f.codomain.size


def is_isomorphism(f: Morphism) -> bool:
    return is_injective(f) and is_surjective(f)


def is_cancellative_morphism(f: Morphism) -> bool:
    """Every image element is cancellable in the codomain."""
    return image_set(f) <= _cancellables(f.codomain.unnamed)


def factor_through_injection(i: Morphism, values, domain: Semimodule, name):
    """The k: domain -> i.domain with i∘k = values, or None when a value lies
    outside image(i); PreconditionError when i is not injective.

    `values` must be the table of a linear map domain -> i.codomain; then k is
    linear: i is injective, so i(k(a + b)) = values(a + b) = i(k(a) + k(b))
    forces k(a + b) = k(a) + k(b), and likewise for the action. So k is built
    by Morphism._trusted, without validation.
    """
    if not is_injective(i):
        raise PreconditionError(f"cannot factor through {i.name}: it is not injective")
    table = _lift(i, values)
    return None if table is None else Morphism._trusted(name, domain, i.domain, table)


def _lift(i, values):
    """The table of i's preimages of `values`, or None when one lies outside
    image(i); i must be injective."""
    pos = {v: x for x, v in enumerate(i.map)}
    if not pos.keys() >= set(values):
        return None
    return tuple(map(pos.__getitem__, values))


def factor_through_surjection(p: Morphism, values, codomain: Semimodule, name):
    """The k: p.codomain -> codomain with k∘p = values, or None when p misses
    an element or `values` is not constant on some fibre of p;
    PreconditionError unless `values` has one entry per element of p.domain.

    `values` must be the table of a linear map p.domain -> codomain; then k
    is linear: p is onto, so every pair of elements is p(x), p(y), and
    k(p(x) + p(y)) = k(p(x + y)) = values(x + y) = k(p(x)) + k(p(y)),
    likewise for the action. So k is built by Morphism._trusted, without
    validation.
    """
    if len(values) != p.domain.size:
        raise PreconditionError(f"cannot factor through {p.name}: {len(values)} values "
                                f"for {p.domain.size} elements")
    table = [None] * p.codomain.size
    for c, v in zip(p.map, values):
        if table[c] is None:
            table[c] = v
        elif table[c] != v:
            return None
    if None in table:
        return None
    return Morphism._trusted(name, p.codomain, codomain, tuple(table))


def submodule_as_module(X: Subsemimodule, name=None) -> tuple[Semimodule, Morphism]:
    """A subsemimodule reindexed as a module in its own right, with inclusion:
    the tables are _substructures', and the last naming is kept there too,
    as the snake asks for the same kernel again and again."""
    M, members = X.parent, X.members
    structures = _substructures(M.unnamed, members)
    if structures.named_module[0] != (M, name):
        label = f"{M.name}|{{{','.join(map(str, members))}}}" if name is None else name
        sub = _named(structures.module, label)
        incl = Morphism._trusted(f"incl[{label}]", sub, M, members)
        structures.named_module = (M, name), (sub, incl)
    return structures.named_module[1]


def _named(M: Semimodule, name) -> Semimodule:
    return Semimodule._trusted(name, *M._key(M)[1:])


@lru_cache(maxsize=None)
def _substructures(M: Semimodule, members):
    return _Substructures(M, members)


class _Substructures:
    """What the subsemimodule `members`, sorted, of the name-free module M
    gives, each value built when first read and named "": the one cache of
    kernels, images and cokernels, by _substructures, once per (module
    table, members)."""

    def __init__(self, M, members):
        self._M, self._members = M, members
        # the last ((M named, name), value) of submodule_as_module and bourne_quotient
        self.named_module = self.named_quotient = (None, None)

    @cached_property
    def module(self) -> Semimodule:
        """The subsemimodule, its closure checked, as a module: every table
        entry is a position, and the tables restrict M's through it."""
        M, members = self._M, Subsemimodule(self._M, self._members).members
        pos = {m: i for i, m in enumerate(members)}
        add = tuple(tuple(pos[M.add[a][b]] for b in members) for a in members)
        action = tuple(tuple(pos[M.action[a][s]] for s in range(M.semiring.size))
                       for a in members)
        return Semimodule._trusted("", M.semiring, len(members), add, action, pos[M.zero])

    @cached_property
    def quotient(self) -> QuotientModule:
        """M modulo the Bourne congruence of the subsemimodule, checked by
        Congruence (bourne_quotient's callers pass images, kernels and
        checked subsemimodules)."""
        return quotient(self._M, bourne_congruence(Subsemimodule._trusted(self._M, self._members)))


def kernel_set(f: Morphism) -> frozenset:
    return frozenset(m for m in f.domain.elements() if f.map[m] == f.codomain.zero)


def kernel(f: Morphism) -> Subsemimodule:
    """{m | f(m) = 0} exactly as defined; no closure is applied."""
    return Subsemimodule(f.domain, tuple(sorted(kernel_set(f))))


def kernel_module(f: Morphism) -> tuple[Semimodule, Morphism]:
    """Ker(f) as a module, with inclusion; its closure is checked by
    _substructures once per (domain table, kernel)."""
    members = tuple(sorted(kernel_set(f)))
    return submodule_as_module(Subsemimodule._trusted(f.domain, members), f"Ker({f.name})")


def image_set(f: Morphism) -> frozenset:
    return frozenset(f.map)


def image(f: Morphism) -> Subsemimodule:
    """f(X), closed by linearity: f(a) + f(b) = f(a + b), f(a)s = f(as), f(0) = 0."""
    return Subsemimodule._trusted(f.codomain, tuple(sorted(image_set(f))))


def image_module(f: Morphism) -> tuple[Semimodule, Morphism]:
    return submodule_as_module(image(f), name=f"Im({f.name})")


def cokernel(f: Morphism) -> QuotientModule:
    """Codomain modulo the Bourne congruence of the image."""
    return bourne_quotient(f.codomain, tuple(sorted(image_set(f))), f"Coker({f.name})")


def bourne_quotient(M: Semimodule, members, name=None) -> QuotientModule:
    """M modulo the Bourne congruence of its subsemimodule `members`, sorted,
    named as quotient names it: the congruence, checked once, and the tables
    are _substructures', and the last naming is kept there too, as the 3x3
    quotient row asks for the same quotient again and again."""
    structures = _substructures(M.unnamed, members)
    if structures.named_quotient[0] != (M, name):
        _, rho, Q, _ = structures.quotient
        Q = _named(Q, M.name + Q.name if name is None else name)  # quotient's M.name/{zero class}
        structures.named_quotient = (M, name), QuotientModule(
            M, Congruence._trusted(M, rho.classes), Q,
            Morphism._trusted(f"pi[{Q.name}]", M, Q, rho.classes))
    return structures.named_quotient[1]


def coimage(f: Morphism) -> QuotientModule:
    """Domain modulo the equal-image congruence."""
    return quotient(f.domain, kernel_pair_congruence(f), name=f"Coim({f.name})")


def canonical_iso(f: Morphism) -> Morphism:
    """The canonical map Coim(f) -> Im(f), [x] |-> f(x); always bijective."""
    co = coimage(f)
    img, incl = image_module(f)
    d = factor_through_surjection(co.projection, _lift(incl, f.map), img, f"d[{f.name}]")
    if d is None or not is_isomorphism(d):
        raise LemmaRefuted(f"canonical map of {f.name} failed to be bijective")
    return d


def is_k_uniform(f: Morphism, witness=False):
    """Equal images are explained by kernel elements:
    f(x1) = f(x2) implies x1 + k1 = x2 + k2 with k1, k2 in the kernel."""
    pair = _k_uniform_witness(f.domain.unnamed, f.codomain.zero, f.map)
    ok = pair is None
    return (ok, pair) if witness else ok


@lru_cache(maxsize=None)
def _k_uniform_witness(dom: Semimodule, zero, table):
    """is_k_uniform on the table of a map from dom to a module whose zero is
    `zero`: None when it holds, else a pair (x1, x2) it fails on."""
    ker = [x for x in dom.elements() if table[x] == zero]
    by_value = {}
    for x in dom.elements():
        by_value.setdefault(table[x], []).append(x)
    for xs in by_value.values():
        for i, x1 in enumerate(xs):
            reach1 = {dom.add[x1][k] for k in ker}
            for x2 in xs[i + 1:]:
                if not any(dom.add[x2][k] in reach1 for k in ker):
                    return x1, x2
    return None


_FLAGS = ("injective", "surjective", "k_uniform", "i_uniform", "uniform", "semi_mono",
          "semi_epi", "semi_iso", "cancellative", "epimorphism_in_cs")


def classify(f: Morphism) -> MorphismClassification:
    """All flags from their raw defining conditions, with witnesses for failures."""
    return _classified(f.domain.unnamed, f.codomain.unnamed, f.map)


@lru_cache(maxsize=None)
def _classified(dom: Semimodule, cod: Semimodule, table) -> MorphismClassification:
    """classify on the table of a map from dom to cod."""
    return MorphismClassification(dom, cod, table)


@lru_cache(maxsize=None)
def _cancellables(M: Semimodule) -> frozenset:
    """The cancellable elements of the name-free module M."""
    return frozenset(m for m in M.elements() if _cancellable(M, m))


class MorphismClassification:
    """classify's flags on the table of a map from dom to cod, each computed
    when first read and kept, with a witness for each that fails
    (witnesses). epimorphism_in_cs is a bool when both modules are
    cancellative, else None. Equal when every flag and witness is."""

    def __init__(self, dom: Semimodule, cod: Semimodule, table):
        self._dom, self._cod, self._table, self._image = dom, cod, table, frozenset(table)
        self._failed = {}  # flag -> witness, for each false flag read so far

    def _fails(self, flag, witness):
        self._failed[flag] = witness
        return False

    @cached_property
    def injective(self):
        seen = {}
        for x, v in enumerate(self._table):
            if v in seen:
                return self._fails("injective", f"f({seen[v]})=f({x})={v}")
            seen[v] = x
        return True

    @cached_property
    def surjective(self):
        missing = set(self._cod.elements()) - self._image
        return not missing or self._fails("surjective", f"{min(missing)} not in image")

    @cached_property
    def k_uniform(self):
        pair = _k_uniform_witness(self._dom, self._cod.zero, self._table)
        return pair is None or self._fails("k_uniform", f"pair ({pair[0]},{pair[1]})")

    @cached_property
    def _closure(self):
        return subtractive_closure_set(self._cod, self._image)

    @cached_property
    def i_uniform(self):  # the image equals its subtractive closure
        extra = self._closure - self._image
        return not extra or self._fails("i_uniform", f"{min(extra)} in closure(image) only")

    @cached_property
    def uniform(self):
        return self.k_uniform and self.i_uniform

    @cached_property
    def semi_mono(self):
        zero, ker = self._dom.zero, {x for x, v in enumerate(self._table) if v == self._cod.zero}
        return ker == {zero} or self._fails("semi_mono", f"kernel contains {min(ker - {zero})}")

    @cached_property
    def semi_epi(self):
        outside = set(self._cod.elements()) - self._closure
        return not outside or self._fails("semi_epi", f"{min(outside)} outside closure(image)")

    @cached_property
    def semi_iso(self):
        return self.semi_mono and self.semi_epi

    @cached_property
    def cancellative(self):
        bad = self._image - _cancellables(self._cod)
        return not bad or self._fails("cancellative", f"f-image {min(bad)} not cancellable")

    @cached_property
    def epimorphism_in_cs(self):
        both_cs = all(len(_cancellables(M)) == M.size for M in (self._dom, self._cod))
        return self.semi_epi if both_cs else None

    @cached_property
    def witnesses(self):
        """(flag, witness-string) pairs for the false flags, by flag."""
        self.flags()
        return tuple(sorted(self._failed.items()))

    def flags(self):
        return {flag: getattr(self, flag) for flag in _FLAGS}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.flags() == other.flags() and self.witnesses == other.witnesses

    def __repr__(self):
        return f"MorphismClassification({self.flags()}, witnesses={self.witnesses})"


def induced_to_kernel(f: Morphism, g: Morphism, name=None) -> Morphism:
    """f': L -> Ker(g) with the same values as f; requires g∘f = 0."""
    if f.codomain != g.domain:
        raise PreconditionError("induced_to_kernel: f and g do not compose")
    if not image_set(f) <= kernel_set(g):
        raise PreconditionError("induced_to_kernel: g∘f is not the zero morphism")
    _, incl = kernel_module(g)
    return factor_through_injection(incl, f.map, f.domain, name or f"{f.name}'")


def induced_from_cokernel(f: Morphism, g: Morphism, name=None) -> tuple[Morphism, QuotientModule]:
    """g'': Coker(f) -> N, [m] |-> g(m); requires g∘f = 0.

    Well-definedness over all representatives is re-verified even though
    g∘f = 0 guarantees it.
    """
    if f.codomain != g.domain:
        raise PreconditionError("induced_from_cokernel: f and g do not compose")
    if not image_set(f) <= kernel_set(g):
        raise PreconditionError("induced_from_cokernel: g∘f is not the zero morphism")
    coker = cokernel(f)
    induced = factor_through_surjection(coker.projection, g.map, g.codomain,
                                        name or f"{g.name}''")
    if induced is None:
        raise LemmaRefuted(f"induced map from {coker.quotient.name} not well-defined")
    return induced, coker


@lru_cache(maxsize=None)
def enumerate_hom(M: Semimodule, N: Semimodule) -> tuple:
    """Every linear map M -> N, named h<i>[M->N]; cached, as is its search."""
    if M.semiring != N.semiring:
        raise PreconditionError("enumerate_hom: modules over different semirings")
    return tuple(Morphism._trusted(f"h{i}[{M.name}->{N.name}]", M, N, t)
                 for i, t in enumerate(_hom_tables(M.unnamed, N.unnamed)))


@lru_cache(maxsize=None)
def _hom_tables(M: Semimodule, N: Semimodule) -> tuple:
    """The sorted tables of every linear map M -> N, completed from
    f(0) = 0 by core._completions. The laws of a known f(a) set f(a+b) =
    f(a)+f(b) at every known f(b) and f(a.s) = f(a).s. When both modules
    validate, + commutes, so every sum law runs from whichever of a and b is
    known last, and equivariance at the generators G of S implies it at all
    of S (core.generators): the laws are the maps' only validation.
    Otherwise equivariance runs at all of S, and a completed table is kept
    only when _linearity_problem finds no broken law."""
    spans = generators(M.semiring)
    checked = spans and _validates(M) and _validates(N)
    scalars = spans[1] if checked else range(M.semiring.size)
    madd, mact, add, act = M.add, M.action, N.add, N.action

    def laws(t, a, put):
        fa = t[a]
        row, out = madd[a], add[fa]
        for b, fb in enumerate(t):  # f(a+b) = f(a)+f(b)
            if fb is not None:
                c, f = row[b], out[fb]
                if t[c] is None:
                    put(c, f)
                elif t[c] != f:
                    return False
        row, out = mact[a], act[fa]
        for s in scalars:  # f(a.s) = f(a).s
            c, f = row[s], out[s]
            if t[c] is None:
                put(c, f)
            elif t[c] != f:
                return False
        return True

    table = [None] * M.size
    table[M.zero] = N.zero
    return tuple(t for t in _completions(table, M.elements(), N.elements(), laws, (M.zero,))
                 if checked or _linearity_problem(M, N, t) is None)
