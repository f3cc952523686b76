"""Grothendieck envelope of a lattice-ordered monoid, finite and symbolic.

A non-cancellative monoid can collapse dramatically: the envelope of
truncated addition on {0..3} is the trivial group.  A cancellative one
embeds: difference pairs over the free commutative monoid on two
generators form the lattice group Z^2 with componentwise order.
"""

from ellstates.corpus import trunc_monoid
from ellstates.lmonoid import (
    KElement,
    SymbolicCancellativeMonoid,
    envelope_summary,
    h_is_injective,
    image_bound,
    is_cancellative,
    k_envelope,
)
from ellstates.semihoop import SymbolicConeHoop


def main() -> None:
    print("truncated addition on {0, 1, 2, 3}")
    M = trunc_monoid(4)
    K, h = k_envelope(M)
    print(f"  cancellative: {is_cancellative(M)}")
    print(f"  summary: {envelope_summary(K)}")
    print("  3 + 1 = 3 + 2 forces [1] = [2], and the collapse cascades:")
    e1, e2 = h(1), h(2)
    print(f"  h(1) ~ h(2): {K.row(e1) == K.row(e2)}")
    print(f"  h injective: {h_is_injective(K)}")

    print()
    print("free commutative monoid on two generators (exponent vectors)")
    N = SymbolicCancellativeMonoid(rank=2)
    K, h = k_envelope(N)
    print(f"  summary: {envelope_summary(K)}")
    a = KElement(pos=(3, 1), neg=(1, 2))
    b = KElement(pos=(0, 4), neg=(2, 1))
    print(f"  [a] = [{a.pos} - {a.neg}] has canonical form {K.canonical(a)}")
    print(f"  [b] = [{b.pos} - {b.neg}] has canonical form {K.canonical(b)}")
    j = K.join(a, b)
    m = K.meet(a, b)
    print(f"  join {K.canonical(j)}, meet {K.canonical(m)} (componentwise)")
    print(f"  a <= join: {K.leq(a, j)}, meet <= b: {K.leq(m, b)}")

    print()
    print("every envelope element sits above an element of the image:")
    print("h applied to the meet of the two coordinates works as the bound.")
    print("(here on the cone orientation, where larger exponents sit lower,")
    print("so the meet is the componentwise max)")
    cone = SymbolicConeHoop(rank=2)
    K, h = k_envelope(cone)
    e = KElement(pos=(1, 0), neg=(4, 2))
    bound = image_bound(K, h, e)
    print(f"  e = [{e.pos} - {e.neg}], canonical {K.canonical(e)}")
    print(f"  bound = h({cone.meet(e.pos, e.neg)}), canonical {K.canonical(bound)}")
    print(f"  bound <= e: {K.leq(bound, e)}")


if __name__ == "__main__":
    main()
