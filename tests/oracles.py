"""Brute-force reference implementations used to cross-check the library.

Everything here works by exhaustive tuple enumeration straight from the
definitions, sharing no search code with the package.
"""

from itertools import combinations, permutations


def tuple_matches(tup, q) -> bool:
    m = q.size
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            below = tup[a] != tup[b] and tup[a] & tup[b] == tup[a]
            if q.less[a][b] != below:
                return False
    return True


def naive_witnesses(bits, q):
    """Every injective assignment (as a tuple of masks) realising q."""
    for tup in permutations(bits, q.size):
        if tuple_matches(tup, q):
            yield tup


def naive_has_copy(bits, q) -> bool:
    return next(naive_witnesses(bits, q), None) is not None


def naive_has_copy_up_to_twins(bits, q, required=()) -> bool:
    """Whether some injective assignment of ``bits`` realises q with every
    member of ``required`` in its image. Twins, elements with the same
    strict relations to every element, relate to the rest alike and to each
    other not at all, so reordering the images within a class of twins
    keeps a copy a copy: per class this tries each set of images once, in
    one order, and so stays fast for posets with large classes of twins."""
    m = q.size
    rows = [(q.less[x], tuple(row[x] for row in q.less)) for x in range(m)]
    classes = {}
    for x in range(m):
        classes.setdefault(rows[x], []).append(x)
    classes = list(classes.values())

    def extend(k, used, tup):
        if k == len(classes):
            return tuple_matches(tup, q) and set(required) <= set(tup)
        free = [b for b in bits if b not in used]
        for images in combinations(free, len(classes[k])):
            placed = list(tup)
            for x, b in zip(classes[k], images):
                placed[x] = b
            if extend(k + 1, used | set(images), placed):
                return True
        return False

    return extend(0, set(), [None] * m)


def naive_is_saturated(bits, n, q) -> bool:
    """Definition check: free, and every missing subset creates a copy."""
    members = sorted(set(bits))
    if naive_has_copy(members, q):
        return False
    for s in range(1 << n):
        if s in members:
            continue
        if not naive_has_copy(members + [s], q):
            return False
    return True


def naive_unsaturated_sets(bits, n, q):
    """Every missing subset, ascending, whose addition creates no copy."""
    members = sorted(set(bits))
    return [
        s for s in range(1 << n)
        if s not in members and not naive_has_copy(members + [s], q)
    ]


def naive_orbit_representatives(q):
    """Least element of each automorphism orbit, over every permutation of
    the elements that preserves the strict order."""
    m = q.size
    low = list(range(m))
    for perm in permutations(range(m)):
        if all(q.less[a][b] == q.less[perm[a]][perm[b]] for a in range(m) for b in range(m)):
            for x in range(m):
                low[x] = min(low[x], perm[x])
    return tuple(sorted(set(low)))


def naive_cover_edges(bits):
    """Every index pair (i, j) into ``bits`` with bits[i] a proper subset of
    bits[j] and no member strictly between them, ascending."""
    def proper(a, b):
        return a != b and a & b == a

    return [
        (i, j)
        for i, a in enumerate(bits)
        for j, b in enumerate(bits)
        if proper(a, b) and not any(proper(a, c) and proper(c, b) for c in bits)
    ]


def naive_strong_difference(bits, n):
    """The first member F (in the order of ``bits``) and least element i of
    F with no members A, B such that A lies inside F and A minus B = {i}, as
    ``(F, i)``; None when there is none."""
    for f in bits:
        for i in range(1, n + 1):
            single = 1 << (i - 1)
            if f & single and not any(
                a & f == a and a & ~b == single for a in bits for b in bits
            ):
                return f, i
    return None
