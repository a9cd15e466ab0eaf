"""Finitely presented groups.

Words are tuples of nonzero signed integers: +i is the i-th generator
(1-based), -i its inverse.  Words are freely reduced on ingestion and the
empty word is never stored as a relator.

The module provides abelianization via integer Smith normal form, bounded
HLT-style Todd-Coxeter coset enumeration, Tietze-move simplification,
identification against finite permutation groups, and amalgamated
pushouts of presentations.  One enumeration has two readings: the index
(``coset_enumeration``) and, over the trivial subgroup, the presented
group as the permutation group of its complete coset table
(``regular_representation``), which ``identify_finite`` names by
``perm.find_isomorphism``, the program's one naming search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import CertificateError, CosetLimitExceeded, IllFormedMap, ParseError
from .perm import Perm, PermGroup, find_isomorphism

Word = tuple[int, ...]

DEFAULT_MAX_COSETS = 50000


# -- words ---------------------------------------------------------------


def free_reduce(word: Sequence[int]) -> Word:
    out: list[int] = []
    for x in word:
        if x == 0:
            raise ValueError("0 is not a generator index")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_word(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def cyclic_reduce(word: Sequence[int]) -> Word:
    w = free_reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i, j = i + 1, j - 1
    return w[i:j]


def canonical_relator(word: Sequence[int]) -> Word:
    """Least rotation of the cyclic reduction of the word or its inverse,
    letters ordered a < A < b < B < ...

    Rotations are compared as tuples of the letter codes 2x for x > 0 and
    1 - 2x for x < 0, which order letters that way; the inverse's codes
    are the word's reversed, each with its low bit flipped.  The least
    rotation starts with the least code, that of the least generator, so
    only those rotations are compared, and the one chosen is cut from the
    word or its inverse itself.
    """
    w = cyclic_reduce(word)
    if not w:
        return ()
    codes = tuple(2 * x if x > 0 else 1 - 2 * x for x in w)
    sides = (codes, tuple(c ^ 1 for c in reversed(codes)))
    first = min(codes) & ~1
    rotations = []
    for side, c in enumerate(sides):
        k = -1
        for _ in range(c.count(first)):
            k = c.index(first, k + 1)
            rotations.append((c[k:] + c[:k], side, k))
    _, side, k = min(rotations)
    v = inverse_word(w) if side else w
    return v[k:] + v[:k]


def substitute(word: Sequence[int], replacements: dict[int, Word]) -> Word:
    """Replace generators by words; replacement for g also handles -g."""
    out: list[int] = []
    for x in word:
        g = abs(x)
        if g in replacements:
            rep = replacements[g] if x > 0 else inverse_word(replacements[g])
            out.extend(rep)
        else:
            out.append(x)
    return free_reduce(out)


def word_to_text(word: Sequence[int]) -> str:
    chars = []
    for x in word:
        g = abs(x) - 1
        if g >= 26:
            raise ValueError("letter format supports at most 26 generators")
        c = chr(ord("a") + g)
        chars.append(c if x > 0 else c.upper())
    return "".join(chars)


def word_from_text(text: str) -> Word:
    out = []
    for c in text:
        if c.islower():
            out.append(ord(c) - ord("a") + 1)
        elif c.isupper():
            out.append(-(ord(c) - ord("A") + 1))
        else:
            raise ParseError(f"bad letter {c!r} in word {text!r}")
    return free_reduce(out)


# -- presentations --------------------------------------------------------


@dataclass(frozen=True)
class FpGroup:
    """A finitely presented group: generator count plus relator words."""

    ngens: int
    relators: tuple[Word, ...] = ()
    name: Optional[str] = None

    def __post_init__(self):
        reduced = []
        for r in self.relators:
            w = free_reduce(r)
            if w:
                if max(map(abs, w)) > self.ngens:
                    raise ValueError(f"relator {r!r} uses generator out of range")
                reduced.append(w)
        object.__setattr__(self, "relators", tuple(reduced))

    def __repr__(self) -> str:
        label = self.name or f"{self.ngens} gens, {len(self.relators)} relators"
        return f"FpGroup({label})"

    def spec_text(self) -> str:
        """Presentation in fp:<k>:<relators> text form.

        Uses letters for up to 26 generators and the fpx: signed-integer
        form beyond that.
        """
        if self.ngens <= 26:
            body = ",".join(word_to_text(r) for r in self.relators)
            return f"fp:{self.ngens}:{body}"
        body = ",".join(" ".join(str(x) for x in r) for r in self.relators)
        return f"fpx:{self.ngens}:{body}"


def parse_fp(text: str) -> FpGroup:
    """Parse fp:<k>:<relator>,<relator>,... (letters a..z, A..Z inverse)."""
    parts = text.strip().split(":", 2)
    if len(parts) != 3 or parts[0] not in ("fp", "fpx"):
        raise ParseError(f"bad presentation text {text!r}")
    try:
        k = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad generator count in {text!r}") from exc
    if k < 0:
        raise ParseError("generator count must be >= 0")
    relators = []
    for chunk in parts[2].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if parts[0] == "fp":
            w = word_from_text(chunk)
        else:
            try:
                w = free_reduce([int(tok) for tok in chunk.split()])
            except ValueError as exc:
                raise ParseError(f"bad integer word {chunk!r}") from exc
        if any(abs(x) > k for x in w):
            raise ParseError(f"relator {chunk!r} out of range for {k} generators")
        if w:
            relators.append(w)
    return FpGroup(k, tuple(relators))


# -- abelianization / Smith normal form -----------------------------------


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the full diagonal d_1 | d_2 | ... (nonnegative, possibly with
    trailing zeros), of length min(nrows, ncols).
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    t = 0
    while t < min(nr, nc):
        # find pivot of least absolute value in the remaining block
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        # clear row and column t by remainder division
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    for j in range(t, nc):
                        m[i][j] -= q * m[t][j]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for i in range(t, nr):
                        m[i][j] -= q * m[i][t]
                    if m[t][j] != 0:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        d = abs(m[t][t])
        for i in range(t + 1, nr):
            bad = next((j for j in range(t + 1, nc) if m[i][j] % d != 0), None)
            if bad is not None:
                for j in range(t, nc):
                    m[t][j] += m[i][j]
                break
        else:
            diag.append(d)
            t += 1
    while len(diag) < min(nr, nc):
        diag.append(0)
    return diag


def abelianization(F: FpGroup) -> list[int]:
    """Invariant factors of the abelianized group.

    Factors of 1 are dropped; a 0 denotes a free (infinite cyclic) factor.
    The nonzero factors form a divisibility chain d_1 | d_2 | ...
    """
    if F.ngens == 0:
        return []
    rows = [_exponent_vector(r, F.ngens) for r in F.relators]
    if not rows:
        return [0] * F.ngens
    diag = smith_normal_form(rows)
    rank = sum(1 for d in diag if d != 0)
    factors = [d for d in diag if d not in (0, 1)]
    factors.extend([0] * (F.ngens - rank))
    return factors


def _exponent_vector(word: Word, ngens: int) -> list[int]:
    v = [0] * ngens
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def in_integer_row_span(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """True iff vec lies in the integer lattice spanned by the rows."""
    base = [list(r) for r in rows]
    if all(x == 0 for x in vec):
        return True
    if not base:
        return False
    d1 = smith_normal_form(base)
    d2 = smith_normal_form(base + [list(vec)])
    nz1 = [d for d in d1 if d != 0]
    nz2 = [d for d in d2 if d != 0]
    return len(nz1) == len(nz2) and nz1 == nz2


# -- Todd-Coxeter coset enumeration ---------------------------------------


class _CosetTable:
    """HLT-style coset table with first-definition coset numbering."""

    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[Optional[int]]] = [[None] * self.ncols]
        self.p = [0]

    @staticmethod
    def col(x: int) -> int:
        return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1

    def rep(self, k: int) -> int:
        # union-find with path compression; the least coset survives
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != root:
            self.p[k], k = root, self.p[k]
        return root

    def define(self, alpha: int, c: int) -> None:
        if len(self.table) >= self.max_cosets:
            raise CosetLimitExceeded(
                f"coset table exceeded {self.max_cosets} cosets"
            )
        n = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(n)
        self.table[alpha][c] = n
        self.table[n][c ^ 1] = alpha

    def _merge(self, k: int, lam: int, queue: deque[int]) -> None:
        phi, psi = self.rep(k), self.rep(lam)
        if phi != psi:
            mu, nu = min(phi, psi), max(phi, psi)
            self.p[nu] = mu
            queue.append(nu)

    def coincidence(self, alpha: int, beta: int) -> None:
        queue: deque[int] = deque()
        self._merge(alpha, beta, queue)
        while queue:
            y = queue.popleft()
            for x in range(self.ncols):
                d = self.table[y][x]
                if d is None:
                    continue
                self.table[d][x ^ 1] = None
                mu, nu = self.rep(y), self.rep(d)
                t = self.table[mu][x]
                if t is not None:
                    self._merge(nu, t, queue)
                else:
                    t = self.table[nu][x ^ 1]
                    if t is not None:
                        self._merge(mu, t, queue)
                    else:
                        self.table[mu][x] = nu
                        self.table[nu][x ^ 1] = mu

    def scan_and_fill(self, alpha: int, word_cols: Sequence[int]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(word_cols) - 1
        while True:
            while i <= j and self.table[f][word_cols[i]] is not None:
                f = self.table[f][word_cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][word_cols[j] ^ 1] is not None:
                b = self.table[b][word_cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][word_cols[i]] = b
                self.table[b][word_cols[i] ^ 1] = f
                return
            self.define(f, word_cols[i])

    def live_count(self) -> int:
        return sum(1 for k in range(len(self.p)) if self.p[k] == k)


def _complete_table(
    F: FpGroup, subgroup_words: Sequence[Sequence[int]], max_cosets: int
) -> _CosetTable:
    """The HLT enumeration of the cosets of the subgroup generated by the
    words, run until every live coset's row is full."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    relators = sorted(
        {canonical_relator(r) for r in F.relators} - {()},
        key=lambda w: (len(w), w),
    )
    rel_cols = [[_CosetTable.col(x) for x in r] for r in relators]
    reduced_subs = [free_reduce(w) for w in subgroup_words]
    for w in reduced_subs:
        if any(abs(x) > F.ngens for x in w):
            raise ValueError(f"subgroup word {w!r} out of range")
    sub_cols = [[_CosetTable.col(x) for x in w] for w in reduced_subs if w]
    ct = _CosetTable(F.ngens, max_cosets)
    for w in sub_cols:
        ct.scan_and_fill(0, w)
    alpha = 0
    while alpha < len(ct.table):
        if ct.p[alpha] == alpha:
            for w in rel_cols:
                ct.scan_and_fill(alpha, w)
                if ct.p[alpha] != alpha:
                    break
            if ct.p[alpha] == alpha:
                for x in range(ct.ncols):
                    if ct.table[alpha][x] is None:
                        ct.define(alpha, x)
        alpha += 1
    return ct


def coset_enumeration(
    F: FpGroup,
    subgroup_words: Sequence[Sequence[int]] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> int:
    """Index of the subgroup generated by the given words (Todd-Coxeter).

    With no subgroup words this is the group order.  Raises
    CosetLimitExceeded if the table grows past max_cosets; the caller
    must treat that as inconclusive, never as a proof of infiniteness.
    """
    return _complete_table(F, subgroup_words, max_cosets).live_count()


def regular_representation(
    F: FpGroup, max_cosets: int = DEFAULT_MAX_COSETS
) -> tuple[PermGroup, tuple[Perm, ...]]:
    """The presented group as a permutation group Q, read off the complete
    coset table over the trivial subgroup, and the permutation of Q that
    each generator of F is.

    The live cosets, numbered 0..n-1 in definition order, are the points
    (a complete table's live rows hold only live cosets), so Q has degree
    n = |F|, the certified order.  Generator g acts by x -> x g^-1, the
    table's column for g^-1: a ``Perm`` product applies its right factor
    first, and with that action the product of the images of g and h is
    the image of gh, so g -> its permutation is a homomorphism (the
    column for g itself would give the image of hg).  Q is F acting
    regularly on itself (Neubüser, An elementary introduction to coset
    table methods, 1982).  Raises CosetLimitExceeded as
    ``coset_enumeration`` does.
    """
    ct = _complete_table(F, (), max_cosets)
    live = [k for k in range(len(ct.p)) if ct.p[k] == k]
    point = {k: i for i, k in enumerate(live)}
    images = tuple(
        Perm([point[ct.table[k][_CosetTable.col(-g)]] for k in live])
        for g in range(1, F.ngens + 1)
    )
    return PermGroup(len(live), images, max_order=len(live)), images


# -- Tietze simplification -------------------------------------------------


class _GenResolver:
    """Signed union-find over generators, with a 'dead' (trivial) state.

    Tracks the accumulated substitutions g := e or g := h^s coming from
    relators of length <= 2; higher-numbered generators are eliminated in
    favor of lower-numbered ones.
    """

    def __init__(self, ngens: int):
        # rep[g] = None (g is its own root), 0 (g := identity), or signed root
        self.rep: list[Optional[int]] = [None] * (ngens + 1)

    def resolve(self, g: int) -> int:
        """Return 0 if the generator dies, else the signed root generator."""
        sign = 1
        while True:
            r = self.rep[g]
            if r is None:
                return sign * g
            if r == 0:
                return 0
            sign = sign if r > 0 else -sign
            g = abs(r)

    def kill(self, g: int) -> bool:
        res = self.resolve(g)
        if res == 0:
            return False
        self.rep[abs(res)] = 0
        return True

    def identify(self, x: int, y: int) -> bool:
        """Record the relation x * y = e between signed generators."""
        rx, ry = self.resolve(abs(x)), self.resolve(abs(y))
        sx = (1 if x > 0 else -1) * (1 if rx > 0 else -1)
        sy = (1 if y > 0 else -1) * (1 if ry > 0 else -1)
        rx, ry = abs(rx) if rx else 0, abs(ry) if ry else 0
        if rx == 0 and ry == 0:
            return False
        if rx == 0:
            self.rep[ry] = 0
            return True
        if ry == 0:
            self.rep[rx] = 0
            return True
        if rx == ry:
            # x x^-1 = e is a tautology and x^2 = e eliminates nothing
            return False
        hi, lo = (rx, ry) if rx > ry else (ry, rx)
        # relation reads (sx rx)(sy ry) = e -> hi := lo^(-sx*sy)
        self.rep[hi] = -sx * sy * lo
        return True

    def images(self) -> list[int]:
        """The image of each signed generator x at index x (a negative x
        counts from the end): its signed root, or 0 if it dies."""
        n = len(self.rep) - 1
        out = [0] * (2 * n + 1)
        for g in range(1, n + 1):
            r = self.resolve(g)
            out[g], out[-g] = r, -r
        return out


def simplify(F: FpGroup) -> FpGroup:
    """Reduce a presentation by safe Tietze moves.

    Moves used: free and cyclic reduction of relators, deletion of empty
    and duplicate relators, and elimination of generators defined by
    relators of length <= 2.  Eliminations are batched through a signed
    union-find so large presentations reduce in few passes.  The result
    presents an isomorphic group.

    Relators are kept cyclically reduced, and only two kinds are put in
    canonical form: those of length <= 2, which drive each pass's
    eliminations in (length, canonical word) order, and the survivors,
    once, at the end.  A canonical form is the same for every rotation
    and the inverse of a cyclic word, and a substitution maps those to
    rotations and the inverse of its image, so canonicalizing before a
    rewrite or only after it gives the same words.
    """
    resolver = _GenResolver(F.ngens)
    # a nerve presentation repeats raw words: reduce each distinct one once
    relators = set(map(cyclic_reduce, dict.fromkeys(F.relators))) - {()}
    while True:
        progress = False
        short = {canonical_relator(w) for w in relators if len(w) <= 2}
        for w in sorted(short, key=lambda w: (len(w), w)):
            if len(w) == 1:
                progress |= resolver.kill(w[0])
            elif abs(w[0]) != abs(w[1]):
                progress |= resolver.identify(w[0], w[1])
        if not progress:
            break
        at = resolver.images().__getitem__
        rewritten = set()
        for w in relators:
            v = tuple(map(at, w))
            rewritten.add(v if v == w else cyclic_reduce(filter(None, v)))
        relators = rewritten - {()}
    survivors = [g for g in range(1, F.ngens + 1) if resolver.rep[g] is None]
    number = {g: i for i, g in enumerate(survivors, 1)}
    final = {
        canonical_relator([number[x] if x > 0 else -number[-x] for x in w])
        for w in relators
    }
    return FpGroup(
        len(survivors),
        tuple(sorted(final, key=lambda w: (len(w), w))),
        name=F.name,
    )


# -- identification against finite groups ----------------------------------


IDENTIFIED = "Identified"
INCONCLUSIVE = "Inconclusive"
ORDER_EXCEEDED = "OrderExceeded"
INFINITE = "Infinite"


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of matching a presentation against finite candidates.

    status is Identified with a witness when the presented group, of
    certified order, is isomorphic to a candidate;
    Inconclusive when the order could not be certified or no candidate
    matched; OrderExceeded when the certified order is larger than every
    candidate supplied; Infinite when a certificate proves the group
    infinite (``certified_order`` is then None).  ``identify_finite``
    never returns Infinite: only ``pipelines.van_kampen_pushout`` does,
    and its report names the certificate.
    """

    status: str
    match_name: Optional[str] = None
    witness: Optional[tuple[Perm, ...]] = None
    candidate: Optional[PermGroup] = None
    certified_order: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "match": None
            if self.match_name is None
            else {
                "name": self.match_name,
                "images": [list(p) for p in (self.witness or ())],
            },
            "certified_order": self.certified_order,
        }


def _evaluate_word(word: Word, images: Sequence[Perm], ident: Perm) -> Perm:
    out = ident
    for x in word:
        out = out * (images[x - 1] if x > 0 else images[-x - 1].inverse())
    return out


def identify_finite(
    F: FpGroup,
    candidates: Sequence[PermGroup],
    max_cosets: int = DEFAULT_MAX_COSETS,
    regular: Optional[tuple[PermGroup, tuple[Perm, ...]]] = None,
) -> IdentificationResult:
    """Certify the presented group as one of the finite candidates.

    One coset enumeration over the trivial subgroup gives Q and the
    generators' permutations (``regular_representation``), unless the
    caller has run it already on F and passes its result as ``regular``.
    F is identified as given: a caller that wants Tietze moves first calls
    ``simplify``.  Only candidates of order n = deg Q are tried, each by
    ``perm.find_isomorphism`` from Q on its generators, the generators'
    permutations; Q's element list is built only when such a candidate
    exists.

    Why that names F: a complete coset table over the trivial subgroup
    has n live cosets, the elements of F, and F acts on them by right
    multiplication, g sending x to x g^-1.  That action is faithful (only
    the identity fixes the trivial coset), so F is isomorphic to Q,
    generator to permutation.  An isomorphism Q -> candidate therefore
    names F, and the witness is the images of the generators'
    permutations: the first tuple, in product order over the candidate's
    sorted elements, that satisfies the relators and generates it, since
    those are exactly the tuples that define an isomorphism from Q on
    its generators.  The witness is checked again here, explicitly so
    that ``python -O`` keeps the checks: every relator vanishes at it, so
    it defines a homomorphism F -> candidate, and it generates the
    candidate, so with |F| = n = |candidate| that homomorphism is an
    isomorphism.
    """
    if regular is None:
        try:
            regular = regular_representation(F, max_cosets)
        except CosetLimitExceeded:
            return IdentificationResult(status=INCONCLUSIVE)
    Q, gens = regular
    order = Q.degree
    for cand in candidates:
        if cand.order != order:
            continue
        iso = find_isomorphism(Q, cand, Q.generators)
        if iso is None:
            continue
        witness = tuple(map(iso, gens))
        ident = cand.identity
        if any(_evaluate_word(r, witness, ident) != ident for r in F.relators):
            raise CertificateError("witness does not satisfy the relators")
        if cand.subgroup_from_generators(witness).order != cand.order:
            raise CertificateError("witness does not generate the candidate")
        return IdentificationResult(
            status=IDENTIFIED,
            match_name=cand.name or f"<order {cand.order}>",
            witness=witness,
            candidate=cand,
            certified_order=order,
        )
    if candidates and order > max(c.order for c in candidates):
        return IdentificationResult(status=ORDER_EXCEEDED, certified_order=order)
    return IdentificationResult(status=INCONCLUSIVE, certified_order=order)


# -- pushouts ---------------------------------------------------------------


@dataclass(frozen=True)
class FpMap:
    """A presentation map, given by an image word per source generator."""

    source: FpGroup
    target: FpGroup
    images: tuple[Word, ...] = field(default=())

    def __post_init__(self):
        if len(self.images) != self.source.ngens:
            raise IllFormedMap("need one image word per source generator")
        object.__setattr__(
            self, "images", tuple(free_reduce(w) for w in self.images)
        )
        for w in self.images:
            if any(abs(x) > self.target.ngens for x in w):
                raise IllFormedMap(f"image word {w!r} out of range in target")

    def apply(self, word: Word) -> Word:
        mapping = {g + 1: self.images[g] for g in range(self.source.ngens)}
        return substitute(word, mapping)


def pushout(left: FpMap, right: FpMap) -> FpGroup:
    """Amalgamated pushout of presentations along a common source.

    Generators are the disjoint union of the target generators; relators
    are both targets' plus one glue relator f(x) g(x)^-1 per source
    generator.  Compatibility of the maps with the source relators is
    verified at abelianization level only (full word-problem checking is
    undecidable); failure raises IllFormedMap.
    """
    if left.source is not right.source and left.source != right.source:
        raise IllFormedMap("pushout legs must share a source presentation")
    F0 = left.source
    for leg in (left, right):
        rows = [_exponent_vector(r, leg.target.ngens) for r in leg.target.relators]
        for r in F0.relators:
            vec = _exponent_vector(leg.apply(r), leg.target.ngens)
            if not in_integer_row_span(rows, vec):
                raise IllFormedMap(
                    "map does not kill a source relator at abelianization level"
                )
    k1 = left.target.ngens
    k2 = right.target.ngens
    relators: list[Word] = list(left.target.relators)
    shift = {g + 1: (k1 + g + 1,) for g in range(k2)}
    relators.extend(substitute(r, shift) for r in right.target.relators)
    for g in range(F0.ngens):
        glue = left.images[g] + inverse_word(substitute(right.images[g], shift))
        relators.append(free_reduce(glue))
    return FpGroup(k1 + k2, tuple(r for r in relators if r))
