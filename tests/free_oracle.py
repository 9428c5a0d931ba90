"""Independent brute-force oracle for PBW multiplication.

Works in the free associative algebra on the letters X, Y, Z: elements are
sparse maps word -> QLaurent, and normalization exhaustively applies the
rewriting rules

    YX -> XY - Z,    ZX -> XZ + 2X,    ZY -> YZ - 2Y

at the leftmost out-of-order adjacent pair until no word has one.  The
product of two elements reduces the concatenated words, and the coproduct
of a word is a sum over shuffles, since the generators are primitive.  This
never calls the package's PBW engine, so agreement between the two is
genuine confluence evidence.
"""

from homtwist.scalars import ONE, ZERO, QLaurent

REWRITES = {
    "YX": (("XY", 1), ("Z", -1)),
    "ZX": (("XZ", 1), ("X", 2)),
    "ZY": (("YZ", 1), ("Y", -2)),
}


def _first_inversion(word):
    for i in range(len(word) - 1):
        if word[i : i + 2] in REWRITES:
            return i
    return None


def reduce_word(word):
    """Normal form of a single word as {sorted_word: QLaurent}."""
    pending = {word: ONE}
    done = {}
    while pending:
        w, coeff = pending.popitem()
        pos = _first_inversion(w)
        if pos is None:
            acc = done.get(w, ZERO) + coeff
            if acc:
                done[w] = acc
            else:
                done.pop(w, None)
            continue
        for replacement, factor in REWRITES[w[pos : pos + 2]]:
            new_word = w[:pos] + replacement + w[pos + 2 :]
            acc = pending.get(new_word, ZERO) + coeff * QLaurent.of(factor)
            if acc:
                pending[new_word] = acc
            else:
                pending.pop(new_word, None)
    return done


def word_to_pbw(word):
    """An already-sorted word XX..YY..ZZ as a PBW exponent triple."""
    return (word.count("X"), word.count("Y"), word.count("Z"))


def pbw_word(mono):
    """The PBW monomial X^a Y^b Z^c as the word of its letters."""
    a, b, c = mono
    return "X" * a + "Y" * b + "Z" * c


def _add(out, key, coeff):
    acc = out.get(key, ZERO) + coeff
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def reduce_to_pbw(word):
    """Normal form of a word as {(a, b, c): QLaurent}."""
    out = {}
    for w, coeff in reduce_word(word).items():
        _add(out, word_to_pbw(w), coeff)
    return out


def mul(u, v):
    """The product of two elements {(a, b, c): QLaurent}, word by word."""
    out = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            for key, c in reduce_to_pbw(pbw_word(m1) + pbw_word(m2)).items():
                _add(out, key, c1 * c2 * c)
    return out


def comul(word):
    """Delta of a word as {(mono, mono): QLaurent}, by shuffles.

    Delta(g) = g x 1 + 1 x g for each letter and Delta is multiplicative, so
    Delta(w) is the sum over the subsets S of the positions of w of
    w|S x w|S^c, the letters at S and at the other positions in their order.
    Each side is reduced by reduce_to_pbw.
    """
    out = {}
    n = len(word)
    for mask in range(1 << n):
        left = "".join(word[i] for i in range(n) if mask >> i & 1)
        right = "".join(word[i] for i in range(n) if not mask >> i & 1)
        for k1, c1 in reduce_to_pbw(left).items():
            for k2, c2 in reduce_to_pbw(right).items():
                _add(out, (k1, k2), c1 * c2)
    return out


def all_words(max_length):
    words = [""]
    frontier = [""]
    for _ in range(max_length):
        frontier = [w + g for w in frontier for g in "XYZ"]
        words.extend(frontier)
    return words
