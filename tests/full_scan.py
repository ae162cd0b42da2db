"""The law scans validate_semiring and validate_semimodule made before they
checked laws on generators of S: every law over all of S, one witness each,
the first in loop order. Kept as the oracle their reports must equal.
"""

from semiexact.core import ValidationReport, Violation


def _witness(**kv):
    return ",".join(f"{k}={v}" for k, v in kv.items())


def _monoid_violations(size, add, zero, label):
    """Commutative-monoid laws with one witness per violated law."""
    found = []
    rng = range(size)
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                found.append(Violation(f"{label} addition not commutative", _witness(a=a, b=b)))
                break
        else:
            continue
        break
    done = False
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
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
    rng = range(s.size)
    done = False
    for a in rng:
        for b in rng:
            for c in rng:
                if s.mul[s.mul[a][b]][c] != s.mul[a][s.mul[b][c]]:
                    found.append(Violation("multiplication not associative",
                                           _witness(a=a, b=b, c=c)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    for a in rng:
        if s.mul[a][s.one] != a or s.mul[s.one][a] != a:
            found.append(Violation("one not neutral for multiplication", _witness(a=a)))
            break
    done = False
    for a in rng:
        for b in rng:
            for c in rng:
                if s.mul[a][s.add[b][c]] != s.add[s.mul[a][b]][s.mul[a][c]]:
                    found.append(Violation("left distributivity fails", _witness(a=a, b=b, c=c)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    done = False
    for a in rng:
        for b in rng:
            for c in rng:
                if s.mul[s.add[b][c]][a] != s.add[s.mul[b][a]][s.mul[c][a]]:
                    found.append(Violation("right distributivity fails", _witness(a=a, b=b, c=c)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    for a in rng:
        if s.mul[s.zero][a] != s.zero or s.mul[a][s.zero] != s.zero:
            found.append(Violation("zero not absorbing", _witness(a=a)))
            break
    if s.zero == s.one:
        found.append(Violation("zero equals one", _witness(zero=s.zero)))
    return ValidationReport(f"semiring {s.name}", tuple(found))


def full_scan_semimodule(m) -> ValidationReport:
    """Check every right-semimodule law over the module's semiring."""
    s = m.semiring
    found = list(_monoid_violations(m.size, m.add, m.zero, "module"))
    mrng = range(m.size)
    srng = range(s.size)
    done = False
    for a in mrng:
        for x in srng:
            for y in srng:
                if m.action[m.action[a][x]][y] != m.action[a][s.mul[x][y]]:
                    found.append(Violation("(ms)s' != m(ss')", _witness(m=a, s=x, t=y)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    done = False
    for a in mrng:
        for b in mrng:
            for x in srng:
                if m.action[m.add[a][b]][x] != m.add[m.action[a][x]][m.action[b][x]]:
                    found.append(Violation("(m+m')s != ms+m's", _witness(m=a, n=b, s=x)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    done = False
    for a in mrng:
        for x in srng:
            for y in srng:
                if m.action[a][s.add[x][y]] != m.add[m.action[a][x]][m.action[a][y]]:
                    found.append(Violation("m(s+s') != ms+ms'", _witness(m=a, s=x, t=y)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    for a in mrng:
        if m.action[a][s.one] != a:
            found.append(Violation("m.1 != m", _witness(m=a)))
            break
    for a in mrng:
        if m.action[a][s.zero] != m.zero:
            found.append(Violation("m.0_S != 0_M", _witness(m=a)))
            break
    for x in srng:
        if m.action[m.zero][x] != m.zero:
            found.append(Violation("0_M.s != 0_M", _witness(s=x)))
            break
    return ValidationReport(f"module {m.name}", tuple(found))
