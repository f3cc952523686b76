"""Anatomy of a rotated hoop: skeleton, radical, coradical, coordinates.

Gluing a hoop to its mirror image below a new midpoint-free center gives a
bounded involutive algebra where squaring detects the halves: everything
above the fixpoint-free boundary squares to itself eventually, everything
below squares to the bottom.  The complemented elements form a Boolean
skeleton, the elements above their own negation form the radical, and
every element is rebuilt from one coordinate of each.
"""

from ellstates._scan import tables
from ellstates.corpus import chang_algebra, godel_hoop, rotated_hoop
from ellstates.ibp0 import boolean_skeleton, coradical, decompose, radical, validate_ibp0


def anatomy(title: str, A, window: int = 6) -> None:
    print(title)
    report = validate_ibp0(A, window)
    print(f"  valid: {report.ok}")
    sk = boolean_skeleton(A, window)
    rad = radical(A, window)
    corad = coradical(A, window)
    print(f"  skeleton: {[A.token(x) for x in sk.elements]} (atoms {[A.token(x) for x in sk.atoms]})")
    print(f"  radical:  {[A.token(x) for x in rad.elements]}")
    print(f"  coradical: {[A.token(x) for x in corad]}")
    print("  element = (b join neg c) meet (neg b join c), per element:")
    o, elems = tables(A), A.carrier(window)
    b, c = decompose(A, elems, o)
    for a, x, y in zip(elems, o.decode(b), o.decode(c)):
        print(f"    {A.token(a):10s} b = {A.token(x):8s} c = {A.token(y)}")
    print()


def main() -> None:
    anatomy("rotation of the Godel 3-chain", rotated_hoop(godel_hoop(3)))
    print("the same picture over an infinite radical: the rank-1 perfect")
    print("algebra, whose radical is the cone hoop on one exponent")
    anatomy("perfect algebra of rank 1", chang_algebra(1), window=3)


if __name__ == "__main__":
    main()
