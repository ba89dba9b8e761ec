"""Finite words over explicit alphabets.

Letters are integer ids into an ordered alphabet; the alphabet order fixes
parsing, rendering, and the letter order used for shortlex enumeration
elsewhere.  Factor counting deliberately has two implementations: the
suffix-automaton fast path, and substring sets.  ``factor_count`` here is
the per-length substring-set count, the independent side of ``decompose
--n``; the whole-profile oracle, which the sweeps read, lives in
``wordlen.oracles``, and the test suite requires that they agree exactly.

The fast path reads every count off one list.  Let L_e be the length of
the longest suffix of the prefix w[:e+1] that also occurs ending earlier.
The new factors of w[:e+1] are exactly its suffixes longer than L_e, so
f(n) = #{e : L_e < n} - (n - 1) for 1 <= n <= l, the total complexity is
the sum of the counts, and the longest repeated factor has length
R = max(L_e).  With the dense histogram h[n] = #{e : L_e = n} for
n = 0..R + 1, that is f(n + 1) - f(n) = h[n] - 1 for 0 <= n < l, and
h[n] = 0 for every n > R.  ``repeat_histogram`` and ``profile_counts``
read the list alone, so the automaton's states are freed before any
count is built.  The automaton numbers each prefix state by its length and
keeps its transitions in list rows keyed by letter for words of at most 16
distinct letters, in per-state dicts above that (see ``SuffixAutomaton``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from operator import sub
from string import ascii_lowercase
from typing import Sequence


def tokenize(text: str) -> list[str]:
    """Split word text: comma-separated tokens if a comma appears, else one
    token per character.  Empty text is the empty word."""
    if "," in text:
        return text.split(",")
    return list(text)


@dataclass(frozen=True)
class Alphabet:
    """Ordered tuple of distinct tokens; the order defines letter ids 0..k-1."""

    symbols: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if any(not s for s in self.symbols):
            raise ValueError("alphabet tokens must be non-empty strings")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet tokens must be pairwise distinct")
        object.__setattr__(self, "_ids", {s: i for i, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def id_of(self, token: str) -> int | None:
        return self._ids.get(token)

    @classmethod
    def letters(cls, k: int) -> "Alphabet":
        """Canonical a, b, c, ... alphabet of size k (k <= 26)."""
        if not 1 <= k <= 26:
            raise ValueError("letters() supports sizes 1..26")
        return cls(tuple(ascii_lowercase[:k]))

    @classmethod
    def indices(cls, k: int) -> "Alphabet":
        """Digit-token alphabet 0, 1, ...; used for generator-index words."""
        if k < 1:
            raise ValueError("alphabet size must be >= 1")
        return cls(tuple(str(i) for i in range(k)))

    @classmethod
    def from_spec(cls, spec: str) -> "Alphabet":
        """Explicit alphabet text: comma-separated tokens, else one char each."""
        return cls(tuple(tokenize(spec)))


@dataclass(frozen=True)
class Word:
    """Immutable sequence of letter ids bound to an alphabet."""

    letters: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        if self.letters:
            if min(self.letters) < 0 or max(self.letters) >= self.alphabet.size:
                raise ValueError("letter id out of range for the alphabet")

    @classmethod
    def _trusted(cls, letters: tuple[int, ...], alphabet: Alphabet) -> "Word":
        """Letters already known to lie in range(alphabet.size): no check."""
        word = object.__new__(cls)
        word.__dict__.update(letters=letters, alphabet=alphabet)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def factor(self, start: int, end: int) -> "Word":
        """The factor spanning positions [start, end)."""
        if not 0 <= start <= end <= len(self.letters):
            raise IndexError(f"factor span [{start}, {end}) out of range")
        return Word(self.letters[start:end], self.alphabet)

    def render(self) -> str:
        tokens = [self.alphabet.symbols[a] for a in self.letters]
        if all(len(s) == 1 for s in self.alphabet.symbols):
            return "".join(tokens)
        return ",".join(tokens)


@dataclass(frozen=True)
class ComplexityProfile:
    """Factor counts f(0..l) and their sum, the total complexity."""

    counts: tuple[int, ...]
    total: int


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse token text into a word; raises ValueError on foreign tokens."""
    ids = []
    for pos, token in enumerate(tokenize(text)):
        idx = alphabet.id_of(token)
        if idx is None:
            raise ValueError(f"unknown token {token!r} at position {pos}")
        ids.append(idx)
    return Word(tuple(ids), alphabet)


def factor_count(w: Word, n: int) -> int:
    """Number of distinct factors of length n in w."""
    l = len(w)
    if n < 0 or n > l:
        raise ValueError(f"factor length {n} outside [0, {l}]")
    letters = w.letters
    return len({letters[i : i + n] for i in range(l - n + 1)})


def border_array(letters: Sequence[int]) -> list[int]:
    """Longest proper border of each prefix (the KMP failure function)."""
    n = len(letters)
    pi = [0] * n
    k = 0
    for i in range(1, n):
        a = letters[i]
        while k and letters[k] != a:
            k = pi[k - 1]
        if letters[k] == a:
            k += 1
        pi[i] = k
    return pi


# The most distinct letters a word may have for its automaton to keep
# transitions in per-letter list rows rather than per-state dicts.
ROW_LETTERS_MAX = 16


def _build_rows(
    letters: Sequence[int], used: set[int]
) -> tuple[list[int], list[int], list[int]]:
    """Online construction; returns (maxlen, link, repeats).  State e is
    the prefix letters[:e], so a prefix state's id is its maxlen, one int
    object for both; clones take the ids l + 1, l + 2, ... in order.
    Transitions on letter a live in rows[a][state] for each a in used,
    where 0 means "none", since the root is never a target."""
    l = len(letters)
    cap = 2 * l + 1
    maxlen = [0] * cap
    link = [0] * cap
    link[0] = -1
    repeats = [0] * l
    rows = {a: [0] * cap for a in used}
    size = l + 1
    for cur, a in enumerate(letters, 1):
        g = rows[a]
        maxlen[cur] = cur
        p = cur - 1
        while p != -1 and not g[p]:
            g[p] = cur
            p = link[p]
        if p != -1:
            q = g[p]
            r = maxlen[p] + 1
            if r == maxlen[q]:
                link[cur] = q
            else:
                clone = size
                size += 1
                maxlen[clone] = r
                link[clone] = link[q]
                for row in rows.values():
                    row[clone] = row[q]
                g[p] = clone  # g[p] == q here
                p = link[p]
                while p != -1 and g[p] == q:
                    g[p] = clone
                    p = link[p]
                link[q] = link[cur] = clone
            repeats[cur - 1] = r
    del maxlen[size:], link[size:]
    return maxlen, link, repeats


def _build_dicts(letters: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The same construction, with the same state ids and the same
    output, on one transition dict per state."""
    l = len(letters)
    cap = 2 * l + 1
    maxlen = [0] * cap
    link = [0] * cap
    link[0] = -1
    nxt: list[dict[int, int] | None] = [{}] + [None] * (cap - 1)
    repeats = [0] * l
    size = l + 1
    for cur, a in enumerate(letters, 1):
        maxlen[cur] = cur
        nxt[cur] = {}
        p = cur - 1
        while p != -1 and a not in nxt[p]:
            nxt[p][a] = cur
            p = link[p]
        if p != -1:
            q = nxt[p][a]
            r = maxlen[p] + 1
            if r == maxlen[q]:
                link[cur] = q
            else:
                clone = size
                size += 1
                maxlen[clone] = r
                link[clone] = link[q]
                nxt[clone] = dict(nxt[q])
                nxt[p][a] = clone  # nxt[p][a] == q here
                p = link[p]
                while p != -1 and nxt[p].get(a) == q:
                    nxt[p][a] = clone
                    p = link[p]
                link[q] = link[cur] = clone
            repeats[cur - 1] = r
    del maxlen[size:], link[size:]
    return maxlen, link, repeats


class SuffixAutomaton:
    """Online suffix automaton over integer letters (Blumer et al., 1985).

    Each non-initial state covers the factor lengths
    (maxlen(link(s)), maxlen(s)].  Right after letter e is added, the new
    state's link has maxlen L_e = ``repeats[e]``: the length of the longest
    suffix of letters[:e+1] that also occurs ending earlier.  The factors
    that first occur ending at e are exactly the longer suffixes, so
    f(n) = #{e : L_e < n} - (n - 1) for 1 <= n <= l, and the longest
    factor that occurs twice has length R = max(L_e).  The profile and its
    shape are read off ``repeats`` alone (``repeat_histogram``,
    ``profile_counts``); only ``longest_repeat`` needs the states' maxlen
    and suffix links as well.

    Transitions live only while the automaton is built, on states
    numbered by prefix length (see ``_build_rows``).  A word with at most
    ROW_LETTERS_MAX = 16 distinct letters keeps them in one list row of
    2l + 1 slots per letter, keyed by the letter; a wider word keeps one
    dict per state.  Rows cost O(k') per clone and 8 k' (2l + 1) bytes, so
    they lose as k' grows.  Built from random words of 10^5 letters (best
    of 3 in each of 3 passes, tracemalloc peak; CPython 3.11, 2-core EPYC),
    rows against dicts: k' = 4, 0.06 s and 15 MB against 0.16 s and 45 MB;
    k' = 16, 0.10 s and 33 MB against 0.11 s and 41 MB; k' = 32, 0.12 s
    and 57 MB against 0.11 s and 39 MB.  Two passes over k' = 18-22 and
    the even k' to 30 put the memory crossover at k' = 20-21 and the time
    crossover near 28: up to 26 rows were never slower, and at 30 dicts
    were faster in both passes (1.27-1.36x).  The threshold 16 is below both.
    """

    def __init__(self, letters: Sequence[int]) -> None:
        used = set(letters)
        if len(used) <= ROW_LETTERS_MAX:
            built = _build_rows(letters, used)
        else:
            built = _build_dicts(letters)
        self._maxlen, self._link, self.repeats = built

    def longest_repeat(self) -> tuple[int, int, int]:
        """(R, q, j) for the longest factor that occurs at two positions.

        R is its length (overlaps allowed), q the leftmost start of any
        length-R factor that occurs twice, and j the rightmost start of the
        factor at q.  R = max(L_e).  A state has two or more end positions
        iff it is a suffix-link target, so the length-R factors that occur
        twice are the link targets of maxlen R.  The states that link to a
        length-R target are not link targets themselves, so each is a
        prefix state v in 1..l, a hit, whose one end v - 1 gives its target
        the start v - R.  State R, the prefix state of the first R letters,
        also owns the start 0 if it is a target, and every hit is above R.
        So the factor at q is state R if that is a target, else the first
        hit's target, and j is the last hit that links to it, minus R.  At
        R = 0 (the word must be non-empty) the root, state 0, is the target
        of every prefix state, so q = 0 and j = l.
        """
        maxlen, link = self._maxlen, self._link
        r = max(self.repeats)
        hits = [v for v in range(1, len(self.repeats) + 1) if maxlen[link[v]] == r]
        u = r if r in map(link.__getitem__, hits) else link[hits[0]]
        q = 0 if u == r else hits[0] - r
        return r, q, next(v for v in reversed(hits) if link[v] == u) - r


def repeat_histogram(repeats: Sequence[int]) -> list[int]:
    """h[n] = #{e : L_e = n} for n = 0..R + 1, where R = max(L_e), so
    the last entry is 0."""
    h = [0] * (max(repeats, default=0) + 2)
    for n in repeats:
        h[n] += 1
    return h


def profile_counts(repeats: Sequence[int]) -> tuple[int, ...]:
    """f(0..l), l = len(repeats): the running sum from f(0) = 1 of the
    steps f(n + 1) - f(n) = h[n] - 1, where h[n] = 0 past R."""
    steps = chain(map(sub, repeat_histogram(repeats), repeat(1)), repeat(-1))
    return tuple(accumulate(islice(steps, len(repeats)), initial=1))


def complexity_profile(w: Word) -> ComplexityProfile:
    """f(0..l) plus the total complexity, via the suffix automaton."""
    counts = profile_counts(SuffixAutomaton(w.letters).repeats)
    return ComplexityProfile(counts, sum(counts))


def count_distinct_factors(w: Word) -> int:
    """Total complexity: distinct factors of every length, empty included."""
    return complexity_profile(w).total

