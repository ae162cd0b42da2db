"""The law scans validate_semiring and validate_semimodule made before they
checked laws on generators of S: every law over all of S, one witness each,
the first in loop order. Kept as the oracle their reports must equal. The
table rows each loop reads are looked up once per outer value, outside the
loops they do not depend on; the loops, their order and the witnesses are
the original ones.
"""

from semiexact.core import ValidationReport, Violation


def _witness(**kv):
    return ",".join(f"{k}={v}" for k, v in kv.items())


def _monoid_violations(size, add, zero, label):
    """Commutative-monoid laws with one witness per violated law."""
    found = []
    rng = range(size)
    for a in rng:
        ra = add[a]
        for b in rng:
            if ra[b] != add[b][a]:
                found.append(Violation(f"{label} addition not commutative", _witness(a=a, b=b)))
                break
        else:
            continue
        break
    done = False
    for a in rng:
        ra = add[a]
        for b in rng:
            rab, rb = add[ra[b]], add[b]
            for c in rng:
                if rab[c] != ra[rb[c]]:
                    found.append(Violation(f"{label} addition not associative",
                                           _witness(a=a, b=b, c=c)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    for a in rng:
        if add[a][zero] != a or add[zero][a] != a:
            found.append(Violation(f"{label} zero not neutral for addition", _witness(a=a)))
            break
    return found


def full_scan_semiring(s) -> ValidationReport:
    """Check every semiring law, returning all violated laws with witnesses."""
    found = list(_monoid_violations(s.size, s.add, s.zero, "semiring"))
    add, mul = s.add, s.mul
    rng = range(s.size)
    done = False
    for a in rng:
        ma = mul[a]
        for b in rng:
            mab, mb = mul[ma[b]], mul[b]
            for c in rng:
                if mab[c] != ma[mb[c]]:
                    found.append(Violation("multiplication not associative",
                                           _witness(a=a, b=b, c=c)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    for a in rng:
        if mul[a][s.one] != a or mul[s.one][a] != a:
            found.append(Violation("one not neutral for multiplication", _witness(a=a)))
            break
    done = False
    for a in rng:
        ma = mul[a]
        for b in rng:
            rb, amab = add[b], add[ma[b]]
            for c in rng:
                if ma[rb[c]] != amab[ma[c]]:
                    found.append(Violation("left distributivity fails", _witness(a=a, b=b, c=c)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    done = False
    for a in rng:
        times_a = [mul[x][a] for x in rng]
        for b in rng:
            rb, abma = add[b], add[times_a[b]]
            for c in rng:
                if times_a[rb[c]] != abma[times_a[c]]:
                    found.append(Violation("right distributivity fails", _witness(a=a, b=b, c=c)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    for a in rng:
        if mul[s.zero][a] != s.zero or mul[a][s.zero] != s.zero:
            found.append(Violation("zero not absorbing", _witness(a=a)))
            break
    if s.zero == s.one:
        found.append(Violation("zero equals one", _witness(zero=s.zero)))
    return ValidationReport(f"semiring {s.name}", tuple(found))


def full_scan_semimodule(m) -> ValidationReport:
    """Check every right-semimodule law over the module's semiring."""
    s = m.semiring
    found = list(_monoid_violations(m.size, m.add, m.zero, "module"))
    add, act = m.add, m.action
    mrng = range(m.size)
    srng = range(s.size)
    done = False
    for a in mrng:
        ra = act[a]
        for x in srng:
            rax, mx = act[ra[x]], s.mul[x]
            for y in srng:
                if rax[y] != ra[mx[y]]:
                    found.append(Violation("(ms)s' != m(ss')", _witness(m=a, s=x, t=y)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    done = False
    for a in mrng:
        ra, aa = act[a], add[a]
        for b in mrng:
            rab, rb = act[aa[b]], act[b]
            for x in srng:
                if rab[x] != add[ra[x]][rb[x]]:
                    found.append(Violation("(m+m')s != ms+m's", _witness(m=a, n=b, s=x)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    done = False
    for a in mrng:
        ra = act[a]
        for x in srng:
            sx, arax = s.add[x], add[ra[x]]
            for y in srng:
                if ra[sx[y]] != arax[ra[y]]:
                    found.append(Violation("m(s+s') != ms+ms'", _witness(m=a, s=x, t=y)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    for a in mrng:
        if act[a][s.one] != a:
            found.append(Violation("m.1 != m", _witness(m=a)))
            break
    for a in mrng:
        if act[a][s.zero] != m.zero:
            found.append(Violation("m.0_S != 0_M", _witness(m=a)))
            break
    for x in srng:
        if act[m.zero][x] != m.zero:
            found.append(Violation("0_M.s != 0_M", _witness(s=x)))
            break
    return ValidationReport(f"module {m.name}", tuple(found))
