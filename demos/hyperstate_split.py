"""A hyperstate taken apart and put back together.

Hyperstates take values in the dual-rational interval and satisfy the
untruncated additivity law s(x + y) + s(x * y) = s(x) + s(y), computed
before clamping.  On a perfect algebra every hyperstate is a probability
measure on the Boolean skeleton plus an infinitesimal correction driven by
a state of the radical, and the two layers can be read off independently.
"""

from fractions import Fraction

from ellstates.corpus import chang_algebra, hyperstate_product_corpus, state_family
from ellstates.ibp0 import boolean_skeleton, radical
from ellstates.semihoop import ConeState
from ellstates.states import (
    ProbabilityMeasure,
    cancellative_form,
    join_hyperstate,
    split_hyperstate,
)


def main() -> None:
    A = chang_algebra(2)
    sk = boolean_skeleton(A, 4)
    rad = radical(A, 4)
    print(f"rank-2 perfect algebra: skeleton atoms {[A.token(a) for a in sk.atoms]},")
    print(f"radical = cone hoop of rank {rad.hoop.rank}")

    p = ProbabilityMeasure(sk, [Fraction(1)])
    w = ConeState((1, Fraction(1, 2)))
    s, report = join_hyperstate(A, p, w, window=4)
    print(f"joined hyperstate from p = point mass, w = ConeState (1, 1/2); valid: {report.ok}")

    print()
    print("values on a few elements (std part from p, eps part from w):")
    for a in [("pos", (0, 0)), ("pos", (2, 1)), ("neg", (0, 0)), ("neg", (1, 3))]:
        print(f"  s({A.token(a):12s}) = {s.value(a)}")

    print()
    split = split_hyperstate(A, s, window=4)
    print("split recovers the layers exactly:")
    print(f"  p: atom weights {[str(split.p.value(x)) for x in sk.atoms]}")
    print(f"  w: lam = {split.w.lam}")
    print(f"  residuals all zero: {split.scanned == len(A.carrier(4))}")

    print()
    print("the radical is cancellative, so the infinitesimal layer also")
    print("lives on the envelope group Z^2:")
    _, sigma = cancellative_form(A, s, window=4)
    for a in [("pos", (2, 1)), ("neg", (1, 3))]:
        eps = s.raw_value(a)[1]
        print(f"  eps part of s({A.token(a)}) = {eps} = sigma on its bracket")

    print()
    print("not every measure/state pair joins to a hyperstate.  on the")
    print("product of Boolean 4 with the rank-1 perfect algebra, a measure")
    print("concentrated away from the radical lets the correction push a")
    print("value out of the interval:")
    P = hyperstate_product_corpus()["boolean-4*chang-1"]
    skp = boolean_skeleton(P, 4)
    away = next(a for a in skp.atoms if a[1] != ("pos", (0,)))
    q = ProbabilityMeasure(skp, {skp.atoms.index(away): Fraction(1)})
    (w1,) = state_family(radical(P, 4).hoop, lambdas=(Fraction(1),))
    bad, verdict = join_hyperstate(P, q, w1, window=4)
    failed = [c.axiom for c in verdict.failures()]
    print(f"  valid: {verdict.ok}, failing check: {failed}")
    for x in P.carrier(4):
        std, inf = bad.raw_value(x)
        if std == 0 and inf < 0:
            print(f"  first escape: raw value at {P.token(x)} is ({std}, {inf})")
            break


if __name__ == "__main__":
    main()
