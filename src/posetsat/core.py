"""Ground sets, subsets as bitmasks, set families, and finite poset specs.

Elements of the ground set are 1-indexed in every public interface; bit i-1
of a mask encodes membership of element i. Families keep their members in
canonical order: ascending cardinality, then ascending mask value. All types
are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import PosetValidationError, UsageError

MAX_GROUND_SIZE = 24
# posets are built and closed as dense matrices, in cubic time, so their size
# is checked before any of that work
MAX_POSET_SIZE = 64


def mask_key(bits: int) -> tuple[int, int]:
    """Canonical sort key for subset masks: cardinality, then value."""
    return (bits.bit_count(), bits)


@dataclass(frozen=True)
class GroundSet:
    """The base set {1, ..., n}; its subsets are n-bit masks."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_GROUND_SIZE:
            raise UsageError(
                f"ground set size must be an integer in 1..{MAX_GROUND_SIZE}, got {self.n!r}"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def all_masks(self) -> list[int]:
        """Every subset mask, in canonical order."""
        return sorted(range(1 << self.n), key=mask_key)


@dataclass(frozen=True)
class SubsetMask:
    """One subset of the ground set, stored as a bitmask."""

    bits: int
    ground: GroundSet

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.ground.n:
            raise UsageError(
                f"mask {self.bits:#x} has bits outside ground set of size {self.ground.n}"
            )

    @classmethod
    def from_elements(cls, ground: GroundSet, elements: Iterable[int]) -> "SubsetMask":
        bits = 0
        for e in elements:
            if not 1 <= e <= ground.n:
                raise UsageError(f"element {e} outside ground set 1..{ground.n}")
            bits |= 1 << (e - 1)
        return cls(bits, ground)

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.ground.n) if self.bits >> i & 1)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.ground.n and bool(self.bits >> (element - 1) & 1)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "}"


@dataclass(frozen=True)
class SetFamily:
    """Duplicate-free collection of subsets over one ground set.

    Members are normalised to canonical order on construction, so any
    permutation of the same input produces an identical family.
    """

    ground: GroundSet
    members: tuple[SubsetMask, ...]
    bit_list: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _bit_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        first: dict[int, SubsetMask] = {}  # the first member given per mask
        for m in self.members:
            if m.ground != self.ground:
                raise UsageError("family member over a different ground set")
            first.setdefault(m.bits, m)
        bits = sorted(first, key=mask_key)
        object.__setattr__(self, "bit_list", tuple(bits))
        object.__setattr__(self, "_bit_set", frozenset(bits))
        object.__setattr__(self, "members", tuple(first[b] for b in bits))

    def __hash__(self) -> int:
        # equal families have equal masks, and a tuple of ints hashes without
        # a Python-level call per member
        return hash((self.ground.n, self.bit_list))

    @classmethod
    def from_masks(cls, ground: GroundSet, masks: Iterable[int]) -> "SetFamily":
        return cls(ground, tuple(SubsetMask(b, ground) for b in masks))

    @classmethod
    def from_sets(cls, ground: GroundSet, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(ground, tuple(SubsetMask.from_elements(ground, s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item) -> bool:
        bits = item.bits if isinstance(item, SubsetMask) else item
        return bits in self._bit_set

    def has_mask(self, bits: int) -> bool:
        return bits in self._bit_set


@dataclass(frozen=True)
class PosetSpec:
    """Finite abstract poset given by its full strict-order matrix.

    ``less[a][b]`` is True iff element a lies strictly below element b. The
    matrix is the complete strict order (transitively closed), so relation
    queries are O(1).

    The hash is computed once, from the size and the matrix: the search
    and walk caches look a spec up on every pass. Labels are left out, so
    the value is the same in every process and survives pickling; specs
    that differ only in their labels still compare unequal.
    """

    size: int
    less: tuple[tuple[bool, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        # an empty poset would reach the copy search with no element to place
        if self.size < 1:
            raise UsageError("poset needs at least one element")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"e{i}" for i in range(self.size))
            )
        if len(self.labels) != self.size:
            raise UsageError("label count must equal poset size")
        object.__setattr__(self, "_hash", hash((self.size, self.less)))

    def __hash__(self) -> int:
        return self._hash

    def strict_pairs(self) -> list[tuple[int, int]]:
        return [
            (a, b)
            for a in range(self.size)
            for b in range(self.size)
            if self.less[a][b]
        ]

    def relation_count(self) -> int:
        return sum(row.count(True) for row in self.less)


def _transitive_closure(matrix: list[list[bool]]) -> list[list[bool]]:
    m = len(matrix)
    closed = [row[:] for row in matrix]
    for k in range(m):
        ck = closed[k]
        for a in range(m):
            if closed[a][k]:
                ca = closed[a]
                for b in range(m):
                    if ck[b]:
                        ca[b] = True
    return closed


def _clip(text: str, limit: int = 40) -> str:
    """``text`` for an error message: whole up to ``limit`` characters, else
    cut there and followed by its length, so no long input is echoed whole."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _check_poset_size(size: int) -> None:
    if size > MAX_POSET_SIZE:
        raise UsageError(
            f"poset size {_clip(str(size))} exceeds the limit of {MAX_POSET_SIZE} elements"
        )


def validate_poset(raw: Sequence[Sequence[bool]], labels: Sequence[str] = ()) -> PosetSpec:
    """Check a strict-order matrix and return the spec, or raise listing every
    violated axiom cell. Empty matrices and matrices above ``MAX_POSET_SIZE``
    rows are refused."""
    m = len(raw)
    _check_poset_size(m)
    for row in raw:
        if len(row) != m:
            raise UsageError(f"relation matrix must be square, got a row of length {len(row)}")
    violations = []
    for a in range(m):
        if raw[a][a]:
            violations.append(("reflexivity", a, a))
    for a in range(m):
        for b in range(a + 1, m):
            if raw[a][b] and raw[b][a]:
                violations.append(("antisymmetry", a, b))
    for a in range(m):
        for b in range(m):
            if not raw[a][b]:
                continue
            for c in range(m):
                if raw[b][c] and not raw[a][c]:
                    violations.append(("transitivity", a, c))
    if violations:
        raise PosetValidationError(sorted(set(violations)))
    less = tuple(tuple(bool(x) for x in row) for row in raw)
    return PosetSpec(m, less, tuple(labels))


def _build_poset(strict_pairs: Iterable[tuple[int, int]], size: int,
                 labels: Sequence[str] = ()) -> PosetSpec:
    _check_poset_size(size)
    matrix = [[False] * size for _ in range(size)]
    for a, b in strict_pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise UsageError(f"relation {_clip(f'({a},{b})')} outside 0..{size - 1}")
        matrix[a][b] = True
    return validate_poset(_transitive_closure(matrix), labels)


def complete_bipartite_poset(bottoms: int, tops: int) -> PosetSpec:
    """Poset with ``bottoms`` mutually incomparable minimal elements, all
    strictly below ``tops`` mutually incomparable maximal elements."""
    if bottoms < 1 or tops < 1:
        raise UsageError("complete bipartite poset needs at least one bottom and one top")
    _check_poset_size(bottoms + tops)
    pairs = [(a, bottoms + b) for a in range(bottoms) for b in range(tops)]
    labels = tuple(f"min{i + 1}" for i in range(bottoms)) + tuple(
        f"max{j + 1}" for j in range(tops)
    )
    return _build_poset(pairs, bottoms + tops, labels)


def butterfly_poset() -> PosetSpec:
    """The four-element butterfly: two incomparable bottoms under two
    incomparable tops."""
    return complete_bipartite_poset(2, 2)


def n_poset() -> PosetSpec:
    """Four elements a, b, c, d with exactly a<b, c<b, c<d."""
    return _build_poset([(0, 1), (2, 1), (2, 3)], 4, ("a", "b", "c", "d"))


def chain_poset(m: int) -> PosetSpec:
    if m < 1:
        raise UsageError("chain needs at least one element")
    return _build_poset([(i, i + 1) for i in range(m - 1)], m)


def antichain_poset(m: int) -> PosetSpec:
    if m < 1:
        raise UsageError("antichain needs at least one element")
    return _build_poset([], m)


@lru_cache(maxsize=None)
def _bipartite_shape(spec: PosetSpec) -> tuple[int, int] | None:
    """(bottoms, tops) if the poset is a complete bipartite order, else None."""
    m = spec.size
    mins = [x for x in range(m) if not any(spec.less[y][x] for y in range(m))]
    maxs = [x for x in range(m) if not any(spec.less[x][y] for y in range(m))]
    if sorted(mins + maxs) != list(range(m)):
        return None
    expected = {(a, b) for a in mins for b in maxs}
    if set(spec.strict_pairs()) != expected:
        return None
    return (len(mins), len(maxs))


def poset_isomorphic(p: PosetSpec, q: PosetSpec) -> bool:
    """Exact order-isomorphism test: a backtracking search for the first
    isomorphism. Each element of p maps only to an unused element of q with
    the same up- and down-degree, which every isomorphism keeps."""
    if p.size != q.size or p.relation_count() != q.relation_count():
        return False
    m = p.size

    def degrees(s: PosetSpec) -> list[tuple[int, int]]:
        return [(sum(s.less[x]), sum(row[x] for row in s.less)) for x in range(m)]

    p_deg, q_deg = degrees(p), degrees(q)
    image: list[int] = []
    used = [False] * m

    def extend(x: int) -> bool:
        if x == m:
            return True
        for y in range(m):
            if used[y] or p_deg[x] != q_deg[y]:
                continue
            if all(
                p.less[x][x2] == q.less[y][y2] and p.less[x2][x] == q.less[y2][y]
                for x2, y2 in enumerate(image)
            ):
                image.append(y)
                used[y] = True
                if extend(x + 1):
                    return True
                image.pop()
                used[y] = False
        return False

    found = extend(0)
    del extend  # it refers to itself; unbound, it leaves no garbage cycle
    return found


def poset_name(spec: PosetSpec) -> str:
    """Stable short name for a poset: B, N, K_{t,b}, chain-k, antichain-k,
    or a generic size/relations tag."""
    shape = _bipartite_shape(spec)
    if shape == (2, 2):
        return "B"
    if shape is not None:
        bottoms, tops = shape
        if bottoms == 1 and tops == 1:
            return "chain-2"
        return f"K_{{{tops},{bottoms}}}"
    if spec.relation_count() == 0:
        return f"antichain-{spec.size}"
    if poset_isomorphic(spec, chain_poset(spec.size)):
        return f"chain-{spec.size}"
    if spec.size == 4 and poset_isomorphic(spec, n_poset()):
        return "N"
    return f"poset-{spec.size}x{spec.relation_count()}"


# --- file formats -----------------------------------------------------------
#
# Family files: one set per line, either 1-indexed elements in optional braces
# ("{1,3,4}", "1 3 4", "1,3,4"), or a 0x-prefixed hex mask. "#" starts a
# comment; blank lines are skipped; the empty set is the literal "{}".
#
# Poset files: JSON {"size": m, "less": [[a,b], ...]} with 0-indexed strict
# pairs; the transitive closure is applied before validation.


def _parse_family_line(line: str, lineno: int) -> int | None:
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    if text.lower().startswith("0x"):
        try:
            return int(text, 16)
        except ValueError:
            raise UsageError(f"line {lineno}: bad hex mask {_clip(repr(text))}") from None
    if text.startswith("{"):
        if not text.endswith("}"):
            raise UsageError(f"line {lineno}: unterminated braces in {_clip(repr(text))}")
        text = text[1:-1]
    bits = 0
    for token in text.replace(",", " ").split():
        try:
            e = int(token)
        except ValueError:
            raise UsageError(f"line {lineno}: bad element {_clip(repr(token))}") from None
        if e < 1:
            raise UsageError(f"line {lineno}: elements are 1-indexed, got {_clip(str(e))}")
        if e > MAX_GROUND_SIZE:  # before the shift, whose cost grows with e
            raise UsageError(f"line {lineno}: element {_clip(str(e))} is above the "
                             f"largest ground size {MAX_GROUND_SIZE}")
        bits |= 1 << (e - 1)
    return bits


def parse_family(text: str, ground: GroundSet | None = None) -> SetFamily:
    """Parse the family file format; infer the ground set from the largest
    element when none is supplied."""
    masks = {}  # line number -> mask
    for lineno, line in enumerate(text.splitlines(), start=1):
        bits = _parse_family_line(line, lineno)
        if bits is not None:
            masks[lineno] = bits
    if ground is None:
        top = max((b.bit_length() for b in masks.values()), default=1)
        ground = GroundSet(max(top, 1))
    for lineno, b in masks.items():
        if b >> ground.n:
            raise UsageError(f"line {lineno}: element {b.bit_length()} does not fit "
                             f"in ground set of size {ground.n}")
    return SetFamily.from_masks(ground, masks.values())


def format_family(family: SetFamily) -> str:
    """Canonical family file text: one brace-form line per member."""
    return "".join(f"{m}\n" for m in family.members)


def _read_text(path) -> str:
    """Contents of a UTF-8 input file, without a leading byte-order mark;
    undecodable bytes are a usage error, at their offset in the file.
    ``OSError`` from opening or reading propagates."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def load_family(path, ground: GroundSet | None = None) -> SetFamily:
    return parse_family(_read_text(path), ground)


def parse_poset_json(text: str) -> PosetSpec:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # also an integer above Python's digit limit
        raise UsageError(f"bad poset JSON: {exc}") from None
    if not isinstance(obj, dict) or "size" not in obj or "less" not in obj:
        raise UsageError('poset JSON must be {"size": m, "less": [[a,b], ...]}')
    # only JSON integers count: a float is not truncated, and bool, a
    # subclass of int, is not read as 0 or 1
    size = obj["size"]
    if type(size) is not int or size < 1:
        raise UsageError(f"poset size must be a positive integer, got {_clip(repr(size))}")
    if not isinstance(obj["less"], list):
        raise UsageError(f"poset \"less\" must be a list of pairs, got {_clip(repr(obj['less']))}")
    pairs = []
    for item in obj["less"]:
        if not (isinstance(item, list) and len(item) == 2 and all(type(e) is int for e in item)):
            raise UsageError(f"bad strict pair {_clip(repr(item))}")
        pairs.append(tuple(item))
    labels = obj.get("labels", [])
    if not (isinstance(labels, list) and all(isinstance(e, str) for e in labels)):
        raise UsageError(f"poset labels must be a list of strings, got {_clip(repr(labels))}")
    return _build_poset(pairs, size, tuple(labels))


def load_poset(path) -> PosetSpec:
    return parse_poset_json(_read_text(path))
