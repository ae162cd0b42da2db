"""Sequences of semimodules and the exactness taxonomy.

A three-term stretch X -f-> Y -g-> Z is
  chain-complex  iff g∘f = 0,
  semi-exact     iff closure(f(X)) = Ker(g),
  proper-exact   iff f(X) = Ker(g),
  exact          iff proper-exact and g is k-uniform.
morphisms.exact_at decides every exactness claim (diagram clauses, declared
tags, snake certificates), through exact_row and short_exact_row, so the lemma
layers never load this module; analyze is the four-flag report. Verdicts keep a witness element for every flag that fails, since
counterexample mining is a first-class use of this package.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Subsemimodule, Value, subtractive_closure_set, zero_module
from .errors import LemmaRefuted, StructureError
from .morphisms import (Morphism, bourne_quotient, classify, cokernel, exact_row,
                        factor_through_injection, image_set, induced_from_cokernel,
                        induced_to_kernel, is_injective, is_isomorphism, is_k_uniform,
                        is_surjective, kernel, kernel_module, kernel_set, submodule_as_module,
                        zero_morphism)


class Sequence(Value):
    name: str
    arrows: tuple

    def __post_init__(self):
        if not self.arrows:
            raise StructureError(f"sequence {self.name}: needs at least one arrow")
        for a, b in zip(self.arrows, self.arrows[1:]):
            if a.codomain != b.domain:
                raise StructureError(
                    f"sequence {self.name}: {a.name} and {b.name} do not chain")

    @property
    def objects(self):
        return (self.arrows[0].domain,) + tuple(a.codomain for a in self.arrows)

    def __repr__(self):
        return f"Sequence({self.name!r}: {' -> '.join(o.name for o in self.objects)})"


class PositionVerdict(NamedTuple):
    position: int
    object_name: str
    chain_complex: bool
    semi_exact: bool
    proper_exact: bool
    exact: bool
    witness: str


class ArrowVerdict(NamedTuple):
    position: int
    arrow_name: str
    k_uniform: bool
    i_uniform: bool
    uniform: bool
    witness: str


class ExactnessVerdict(NamedTuple):
    positions: tuple
    arrows: tuple

    def flag(self, kind):
        return all(getattr(p, kind) for p in self.positions)

    @property
    def chain_complex(self):
        return self.flag("chain_complex")

    @property
    def semi_exact(self):
        return self.flag("semi_exact")

    @property
    def proper_exact(self):
        return self.flag("proper_exact")

    @property
    def exact(self):
        return self.flag("exact")


def analyze(seq: Sequence) -> ExactnessVerdict:
    """Evaluate every flag at every interior object from raw definitions."""
    positions = []
    for i in range(len(seq.arrows) - 1):
        f, g = seq.arrows[i], seq.arrows[i + 1]
        img = image_set(f)
        ker = kernel_set(g)
        closure = subtractive_closure_set(g.domain, img)
        chain = img <= ker
        proper = img == ker
        semi = closure == ker
        k_ok, k_wit = is_k_uniform(g, witness=True)
        exact = proper and k_ok
        wit = "-"
        if not chain:
            bad = min(img - ker)
            wit = f"image element {bad} not in kernel"
        elif not proper:
            bad = min(ker ^ img)
            wit = f"element {bad} separates image from kernel"
        elif not exact:
            wit = f"{g.name} not k-uniform at pair {k_wit}"
        positions.append(PositionVerdict(i + 1, g.domain.name, chain, semi, proper, exact, wit))
    arrows = []
    for i, f in enumerate(seq.arrows):
        c = classify(f)
        wit = "; ".join(f"{k}: {v}" for k, v in c.witnesses
                        if k in ("k_uniform", "i_uniform")) or "-"
        arrows.append(ArrowVerdict(i, f.name, c.k_uniform, c.i_uniform, c.uniform, wit))
    return ExactnessVerdict(tuple(positions), tuple(arrows))


def short_sequence(f: Morphism, g: Morphism, name=None) -> Sequence:
    """0 -> L -f-> M -g-> N -> 0 with cached zero modules at the ends."""
    z = zero_module(f.domain.semiring)
    return Sequence(name or f"short({f.name},{g.name})",
                    (zero_morphism(z, f.domain), f, g, zero_morphism(g.codomain, z)))


class ShortExactResult(NamedTuple):
    ok: bool
    conditions: tuple  # (condition-id, ok, witness) triples
    clause2_ok: bool   # L ~ Ker(g) and Coker(f) ~ N via the induced maps

    @property
    def diagnosis(self):
        return tuple(c for c in self.conditions if not c[1])


def is_short_exact(seq: Sequence) -> ShortExactResult:
    """f injective, f(L) = Ker(g), g surjective and k-uniform.

    Cross-checked against the kernel/cokernel comparison maps: when g∘f = 0,
    the verdict must agree with [L -> Ker(g) iso and Coker(f) -> N iso].
    """
    objs = seq.objects
    if len(objs) != 5 or objs[0].size != 1 or objs[4].size != 1:
        raise StructureError("is_short_exact: expected 0 -> L -> M -> N -> 0")
    f, g = seq.arrows[1], seq.arrows[2]
    conds = []
    inj = is_injective(f)
    conds.append(("f injective", inj, "-" if inj else "two domain elements share an image"))
    img, ker = image_set(f), kernel_set(g)
    mid = img == ker
    conds.append(("f(L) = Ker(g)", mid,
                  "-" if mid else f"element {min(img ^ ker)} separates them"))
    surj = is_surjective(g)
    conds.append(("g surjective", surj, "-" if surj else "image of g misses the codomain"))
    k_ok, k_wit = is_k_uniform(g, witness=True)
    conds.append(("g k-uniform", k_ok, "-" if k_ok else f"pair {k_wit}"))
    ok = all(c[1] for c in conds)

    clause2 = False
    if img <= ker:
        f_prime = induced_to_kernel(f, g)
        g_second, _ = induced_from_cokernel(f, g)
        clause2 = is_isomorphism(f_prime) and is_isomorphism(g_second)
    if clause2 != ok:
        raise LemmaRefuted(
            "short-exactness clause disagreement: induced-map comparison vs direct conditions")
    return ShortExactResult(ok, tuple(conds), clause2)


class KerCokerResult(NamedTuple):
    sequence: Sequence
    verdict: ExactnessVerdict
    image_sequence: Sequence    # 0 -> closure(im) -> Y -> Y/im -> 0, always exact
    kernel_sequence: Sequence   # 0 -> Ker -> X -> X/Ker -> 0, always exact


def ker_coker_sequence(gamma: Morphism) -> KerCokerResult:
    """0 -> Ker -> X -> Y -> Coker -> 0; semi-exact always, exact iff gamma uniform."""
    z = zero_module(gamma.domain.semiring)
    kmod, kincl = kernel_module(gamma)
    coker = cokernel(gamma)
    seq = Sequence(f"kercoker({gamma.name})",
                   (zero_morphism(z, kmod), kincl, gamma, coker.projection,
                    zero_morphism(coker.quotient, z)))
    verdict = analyze(seq)
    if not verdict.semi_exact:
        raise LemmaRefuted(f"kernel-cokernel sequence of {gamma.name} not semi-exact")
    if verdict.exact != classify(gamma).uniform:
        raise LemmaRefuted(
            f"kernel-cokernel exactness of {gamma.name} disagrees with uniformity")

    closure = subtractive_closure_set(gamma.codomain, image_set(gamma))
    cmod, cincl = submodule_as_module(
        Subsemimodule(gamma.codomain, tuple(sorted(closure))), name=f"ImCl({gamma.name})")
    image_seq = short_sequence(cincl, coker.projection, name=f"imageseq({gamma.name})")
    dom_q = bourne_quotient(gamma.domain, kincl.map, f"{gamma.domain.name}/Ker({gamma.name})")
    kernel_seq = short_sequence(kincl, dom_q.projection, name=f"kernelseq({gamma.name})")
    for kind, s in (("image", image_seq), ("kernel", kernel_seq)):
        if not is_short_exact(s).ok:
            raise LemmaRefuted(f"{kind} sequence of {gamma.name} not exact")
    return KerCokerResult(seq, verdict, image_seq, kernel_seq)


class SubobjectCharacter(NamedTuple):
    semi_exact: bool          # 0 -> L -> M -> M/L -> 0 semi-exact (always true)
    exact_with_closure: bool  # 0 -> closure(L) -> M -> M/L -> 0 exact (always true)
    normal: bool              # L equals the kernel of its own projection
    uniform: bool             # the embedding L -> M is a uniform morphism
    equivalent: bool          # the five characterizations agreed


def subobject_character(L: Subsemimodule) -> SubobjectCharacter:
    """Evaluate the subobject characterizations independently and check that
    the five equivalent conditions agree."""
    M = L.parent
    q = bourne_quotient(M, L.members)
    lmod, lincl = submodule_as_module(L)

    v = analyze(short_sequence(lincl, q.projection, name=f"sub({lmod.name})"))
    semi = v.semi_exact
    if not semi:
        raise LemmaRefuted(f"0 -> L -> M -> M/L -> 0 failed semi-exactness for {lmod.name}")

    closure = sorted(subtractive_closure_set(M, L.members))
    cmod, cincl = submodule_as_module(Subsemimodule(M, tuple(closure)))
    exact_cl = is_short_exact(short_sequence(cincl, q.projection, name="cl")).ok
    if not exact_cl:
        raise LemmaRefuted(
            f"0 -> closure(L) -> M -> M/L -> 0 failed exactness for {lmod.name}")

    c1 = is_short_exact(short_sequence(lincl, q.projection, name="c1")).ok
    ker_pi = kernel_set(q.projection)
    c2 = set(L.members) == ker_pi  # finite carriers: abstract iso forces equality
    z = zero_module(M.semiring)
    to_closure = factor_through_injection(cincl, lincl.map, lmod, f"{lmod.name}->cl")
    c3 = exact_row((zero_morphism(z, lmod), to_closure, zero_morphism(cmod, z)))[0]
    c4 = classify(lincl).uniform
    c5 = set(L.members) == set(kernel(q.projection).members)
    if not c1 == c2 == c3 == c4 == c5:
        raise LemmaRefuted(
            f"subobject characterizations disagree for {lmod.name}: {(c1, c2, c3, c4, c5)}")
    return SubobjectCharacter(semi, exact_cl, c5, c4, True)
