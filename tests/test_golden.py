"""The ledger of pinned CLI outputs: one row per command at a scale no oracle
reaches, each run as `python -m wordlen` under its row's timeout.

A row's argv items are strings, or (generator, *args) for an input too long
to inline: a GeneratorSet is written to a JSON matrix file and passed by
path, a Word by its render, and a tuple of letter ids as the letters a, b,
c, ... A row passes when the exit code is its `code`, every `greps` string
is a substring of stdout, stdout hashes to its `sha256` (every exit-0 row
has one) and, when `stderr` is set, stderr is exactly that. To add a row,
take its hash from the output of the parent commit.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass

import pytest

import wordlen
from conftest import (
    diag_shift,
    diagonal_set,
    fibonacci_letters,
    jordan_corner,
    seeded_letters,
    seeded_set,
    square_free_ternary_letters,
    thue_morse_letters,
    two_byte_word,
    upper_triangular,
    write_set,
)
from wordlen.algebra import GeneratorSet
from wordlen.linalg import PrimeField
from wordlen.words import Alphabet, Word


@dataclass(frozen=True)
class Row:
    name: str
    argv: tuple
    sha256: str | None = None
    greps: tuple[str, ...] = ()
    code: int = 0
    timeout: int = 10
    stderr: str | None = None


F7, F13, F23, F10007 = PrimeField(7), PrimeField(13), PrimeField(23), PrimeField(10007)
F_MERSENNE = PrimeField(2147483647)
RANDOM_AB = (seeded_letters, 2, 100_000)
TOKENS = ",".join(f"t{i}" for i in range(300))
DIAG_SHIFT_12 = (diag_shift, F13, 12)
DIAG_SHIFT_20 = (diag_shift, F10007, 20)
JORDAN_CORNER_20 = (jordan_corner, F10007, 20)
WIDE = (diag_shift, F_MERSENNE, 5)
# --jobs N runs min(N, CPUs) shards, so a huge N builds no more shards than
# there are CPUs, and the merged summary is the serial one.
MH_8 = "8b2e497ff56d4b1fd73537d5187b2041443fbba0a188a875967004805653d61a"

LEDGER = [
    # d = 10^14: the convexity search takes O(log d) evaluations, where a
    # scan over every k <= sqrt(d) would run for minutes.
    Row("bounds-huge-dim", ("bounds", "--dim", "100000000000000", "--m", "4", "--json"),
        "cc916cbb0c084ecb12889f600fe0f8b8025e3709b2c39d66ea4d9a33996bbaed", ('"k": 7071067',)),
    Row("powers-fixed-point-12", ("powers", "abcacbabcbac"),
        "97552edd925957d2525605c92317d5565445e008d73b07224066a97c5c5f430d",
        ('"max_exponent": "7/4"',)),
    # The (q, p, t) split of a seeded ternary 10^4-letter word, as no oracle
    # reaches that length.
    Row("decompose-random-abc-1e4", ("decompose", (seeded_letters, 3, 10_000), "--json"),
        "8b60a1d001a6c28c7b12ff43fa13b622a8522d510e7228a50a1c72107b36ea35",
        ('"p": 5985', '"q": 3791', '"t": 208')),
    # A seeded 10^5-letter binary word builds its suffix automaton on
    # per-letter transition rows. Its (q, p, t) split is pinned, as the brute
    # (q, p, t) search stops at 30 letters.
    Row("complexity-random-ab-1e5", ("complexity", RANDOM_AB, "--json"),
        "3ad1e8dfd68eea1af26e9875092923bef250710f0c105540e1e6b429375d01fd",
        ('"counts": [1, 2, 4, 8', '"total": 4998499160'), timeout=20),
    Row("decompose-random-ab-1e5", ("decompose", RANDOM_AB, "--json"),
        "3e3f4ae435c1770b49512faa2db3cea3438455e0df4afdcf34412ea9913a3a5b",
        ('"p": 11565', '"q": 43739', '"t": 44664'), timeout=20),
    # The shape sweep reads each word's profile phases off its repeat-length
    # histogram.
    Row("verify-shape-20000",
        ("verify", "shape", "--count", "20", "--maxlen", "20000", "--seed", "1"),
        "99fe9e44be08ad606d1285393469ad5afa80fe8c1f09077ba7d6628e4bcb0dc1",
        ('"counterexamples": 0',), timeout=60),
    # 300 distinct tokens build the automaton on per-state dicts: the total
    # is 1 + 300 * 301 / 2, and with no repeated letter the split is
    # (0, 300, 0).
    Row("complexity-300-tokens", ("complexity", TOKENS, "--json"),
        "05d34946e11ee31047a797fbcdf39a5a47ebbd106ae8b5dc8e30b22d4c74e796", ('"total": 45151',)),
    Row("decompose-300-tokens", ("decompose", TOKENS, "--json"),
        "e52070b1f156da6f24cbc622f8f8d55c2c670f121cc1fef80b46abd864afec5a", ('"p": 300',)),
    # verify reads only its theorem's flags, and bounds only its mode's: any
    # other flag is a usage error, not silently dropped.
    Row("verify-shape-jobs-ignored", ("verify", "shape", "--jobs", "2"), code=2),
    Row("bounds-grid-dim-ignored", ("bounds", "--grid", "--dim", "16"), code=2),
    # Any ValueError is an input error (exit 2) with its message on one
    # stderr line; a budget is exit 3.
    Row("complexity-unknown-token", ("complexity", "abx", "--alphabet", "ab"), code=2,
        stderr="error: unknown token 'x' at position 2\n"),
    Row("powers-empty-word", ("powers", "", "--alphabet", "ab"), code=2),
    Row("verify-mh-budget", ("verify", "mh", "--maxlen", "8", "--budget", "5"), code=3),
    # Every grid cell has d >= m, so rows past d_max are never visited.
    Row("bounds-grid-huge-m", ("bounds", "--grid", "--m-max", "1000000000000", "--d-max", "10"),
        "ae789b44ad15edf6509d1cf1632cac2d2011a8d05465b5e426c5469eb11edb84", ('"cells": 45',)),
    # The grid counts its cells in closed form and refuses more than its
    # budget before checking the first one.
    Row("bounds-grid-budget", ("bounds", "--grid", "--m-max", "2", "--d-max", "1000000000000"),
        code=3),
    Row("verify-mh-jobs-1", ("verify", "mh", "--maxlen", "8", "--jobs", "1"), MH_8),
    Row("verify-mh-jobs-huge", ("verify", "mh", "--maxlen", "8", "--jobs", "100000000"), MH_8),
    # The mh sweep reads f off one substring-set profile per word, as mhgen
    # and tc do: every ternary word to length 9, as the bench's sweep runs
    # them, and the profile's length cap, a usage error before any word.
    Row("verify-mh-ternary-9-jobs-2",
        ("verify", "mh", "--alphabet", "3", "--maxlen", "9", "--jobs", "2"),
        "69da6049373f487a83ff25680b30af653ccbb4fab7f75f87042d28c066285b99",
        ('"words_checked": 29523', '"counterexamples": 0')),
    Row("verify-mh-past-profile-cap", ("verify", "mh", "--alphabet", "1", "--maxlen", "1001"),
        code=2, stderr="error: naive_profile handles length <= 1000\n"),
    # diag(1..5) and the cyclic shift over GF(2^31 - 1): the product kernel's
    # 16-byte slots, since 5(p - 1)^2 needs more than 64 bits. The span
    # walk's first product at length 5 is the liw word 01111.
    Row("alg-length-wide-slots", ("alg", "length", WIDE, "--json"),
        "563111822a84293abd38179fd0a5ae249bdeeeb45b2bbbafc5b43b36758b6099",
        ('"dims": [1, 3, 7, 13, 21, 25]',)),
    Row("alg-liw-wide-slots", ("alg", "liw", WIDE, "--json"),
        "8267a252272ee528ad4bc9d0c28638d5aecceed66c1fd24a91a1c30e3f923895",
        ('"length": 5', '"word": "01111"')),
    # diag(1..4) and the 4 x 4 Jordan block over GF(7) span only the
    # upper-triangular matrices (dim 10), so m comes from a product scan;
    # diag(1..4) has degree 4 = min(n, dim), which no element of the span
    # exceeds, so m is certified.
    Row("alg-liw-upper-4", ("alg", "liw", (upper_triangular, F7, 4), "--json"),
        "20f5d9e0c3cda4749f5bbd51e491539129fad721f41f0f0f7c36dd1a00fef4af",
        ('"m": 4', '"m_estimated": false', '"length": 3', '"word": "000"')),
    # E11, E22, E33 over GF(7) give products of degree <= 2 only, while
    # diag(1, 2, 3) in their span has degree 3: there m stays an estimate.
    Row("alg-liw-units-3",
        ("alg", "liw", (diagonal_set, F7, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), "--json"),
        "351c94ecf90f278aa21d2699b8b369fe0998cf4f433bd3142bfab2f17ee5d673",
        ('"m": 2', '"m_estimated": true')),
    # At n = 21 over GF(23) there are 2^1 + ... + 2^21 words up to the scan's
    # cap, but the budget is charged per distinct product kept, and
    # diag(1..21), the first product, already has degree n.
    Row("alg-liw-upper-21", ("alg", "liw", (upper_triangular, F23, 21), "--json"),
        "21c29a0ec76ec77a52e9235d7bd3b1382d39ec7f0e99d8fc98fc476b1023633d", ('"m": 21',)),
    # The 12 x 12 Jordan block and corner unit over GF(13) have l(S) = 22:
    # 2^22 words of length l(S), yet the span walk reads every minimal
    # irreducible word off 22 levels and enumerates none.
    Row("alg-liw-jordan-corner-12", ("alg", "liw", (jordan_corner, F13, 12), "--json"),
        "f4b046d3aca653e065bd292a3d96729cd22d82b6733894055b1204ff03e49c48", ('"length": 22',)),
    # diag(1..12) and the cyclic shift over GF(13), l(S) = 12: the family
    # where the span walk skips the most candidates whose suffix is off the
    # previous frontier. Both hashes come from the walk that reduced every
    # candidate.
    Row("alg-length-diag-shift-12", ("alg", "length", DIAG_SHIFT_12, "--json"),
        "61e8a0c08751eb7330aec637f358e99f41a2af56ec75ba33d73c7d4afdee647e",
        ('"dims": [1, 3, 7, 13, 21, 31, 43, 57, 73, 91, 111, 133, 144]',)),
    Row("alg-liw-diag-shift-12", ("alg", "liw", DIAG_SHIFT_12, "--json"),
        "d183424c7f879839bb0c60daeb5e5d1ff058df59ab35f71d3694c4072409af8f", ('"length": 12',)),
    # Past brute force: at n = 20 over GF(10007) the Jordan block and corner
    # unit have l(S) = 38 and diag(1..20) with the cyclic shift l(S) = 20.
    # Each level's stack holds its new basis rows; all four hashes come from
    # the walk that stacked the level's products.
    Row("alg-length-jordan-corner-20", ("alg", "length", JORDAN_CORNER_20, "--json"),
        "94bc369a5858f7ea773fe71002d69c201dfff419700d1a43200dfb2005ed4d7b",
        ('"generated_dim": 400', '"length": 38')),
    Row("alg-liw-jordan-corner-20", ("alg", "liw", JORDAN_CORNER_20, "--json"),
        "2417e60d10c8bd1bc478058667f9e871de9e9903ffaa42db295e4604c939145b", ('"length": 38',)),
    Row("alg-length-diag-shift-20", ("alg", "length", DIAG_SHIFT_20, "--json"),
        "bba1ece7434bbaebb18c8936e6c0dbeff290248da5f7a46f3e447b1e07b73d14",
        ('"generated_dim": 400', '"length": 20')),
    Row("alg-liw-diag-shift-20", ("alg", "liw", DIAG_SHIFT_20, "--json"),
        "e90d9b1a71839ce1f9c1d9144f63999b11991065105ebd11591c20383e055172", ('"length": 20',)),
    # The four fast-path/oracle cross-checks, each run through the one sweep
    # driver; the length check counts every one of its 40 sets.
    Row("oracle", ("oracle", "--words", "300", "--qpt-maxlen", "9", "--sets", "40", "--json"),
        "1e7a691975b86553cd9ba53a40dd61a14658959fd461af03b5675d4a18365294",
        ('"theorem": "length", "words_checked": 40', '"status": "PASS", "theorem": "profiles"',
         '"status": "PASS", "theorem": "qpt"', '"status": "PASS", "theorem": "length"',
         '"status": "PASS", "theorem": "exponent"')),
    # Exact maximal exponents of 10^5-letter words, pinned to what the
    # mask-only scan printed in 8-14 s per word. A search for each block of
    # letters over doubling bands of periods scans their long periods.
    Row("powers-fibonacci-1e5", ("powers", (fibonacci_letters, 100_000)),
        "0735240716461a4ed8e49377816373b84d0891be75652c147f166b6013539151",
        ('"max_exponent": "64077/17711"', '"witness": [28657, 92734]'), timeout=20),
    Row("powers-square-free-1e5", ("powers", (square_free_ternary_letters, 100_000)),
        "7c124a25339845cec16bc247808f94b284114e76a26cca351a78b065fae8e24e",
        ('"max_exponent": "65535/32768"', '"witness": [32768, 98303]'), timeout=20),
    Row("powers-random-ab-1e5", ("powers", RANDOM_AB),
        "9b754f4412a7c0957b55f95731c3e0542bf57bf95090fe46d02ff2fe44ca5b16",
        ('"max_exponent": "14/1"', '"witness": [77909, 77923]'), timeout=20),
    # Two-byte letter slots: the inferred ids 298 and 299 of the Fibonacci
    # part differ only in their low byte (100,596 bytes, below the
    # 131,072-byte limit of one argument). A left run end read off the byte,
    # not the letter, of the last mismatch gives 24475/6765 there.
    Row("powers-two-byte-1e5", ("powers", (two_byte_word, 100_000)),
        "8fb39abf99e0e6fccd6b0f61ed4d997e250881f01d41738cda1e693fbfc82306",
        ('"max_exponent": "24474/6765"', '"witness": [11244, 35718]'), timeout=20),
    # The Thue-Morse prefix is overlap-free with exponent 2/1, so every band
    # up to l/2 is scanned, and its blocks recur at many distances within a
    # band; exponent and witness are pinned to the per-period window scan
    # that bands replaced.
    Row("powers-thue-morse-1e5", ("powers", (thue_morse_letters, 100_000)),
        "86670be4c7a5f964551c55bc80db83f1b057d7f4f6fea8c199b961571dcaf8fe",
        ('"max_exponent": "2/1"', '"witness": [1, 3]'), timeout=20),
    # Seeded random sets: pairs at n = 12 (d = 144) over GF(10007) and
    # GF(2^31 - 1), the span basis's 8-byte and 16-byte slots. At n = 20 the
    # span lacks 145 dimensions at the last level, so the walk multiplies
    # that level's frontier 73 matrices at a time, fills the span at the
    # 145th product and multiplies one product past it. At n = 24 the rows
    # shrink from 576 slots to none as the pivot prefix covers every column;
    # at n = 32 the back-substitution and the residual multiply-sums take
    # most of the walk. Three generators at n = 8 over GF(2^31 - 1): stacked
    # products whose 16-byte slots use their high halves.
    Row("alg-length-random-10007-12", ("alg", "length", (seeded_set, F10007, 12, 2), "--json"),
        "cd7da055a5df205aea38e2b18a73c71e0c5df22ad3a0ad735ecbe0ad6ef96ee4",
        ('"generated_dim": 144', '"dims": [1, 3, 7, 15, 31, 63, 127, 144]'), timeout=60),
    Row("alg-length-random-mersenne-12",
        ("alg", "length", (seeded_set, F_MERSENNE, 12, 2), "--json"),
        "cd7da055a5df205aea38e2b18a73c71e0c5df22ad3a0ad735ecbe0ad6ef96ee4",
        ('"generated_dim": 144', '"dims": [1, 3, 7, 15, 31, 63, 127, 144]'), timeout=60),
    Row("alg-length-random-10007-20", ("alg", "length", (seeded_set, F10007, 20, 2), "--json"),
        "278387c8d55f7b25b95c6f3e7e5a15e383e7c257d82feb149d4d6f0c5d93274e",
        ('"generated_dim": 400', '"dims": [1, 3, 7, 15, 31, 63, 127, 255, 400]'), timeout=60),
    Row("alg-length-random-10007-24", ("alg", "length", (seeded_set, F10007, 24, 2), "--json"),
        "25109063417b7c3e602ef524413c2d37dd429d2e1b483a8766af946cb3b50d18",
        ('"generated_dim": 576', '"dims": [1, 3, 7, 15, 31, 63, 127, 255, 511, 576]'),
        timeout=60),
    Row("alg-length-random-10007-32", ("alg", "length", (seeded_set, F10007, 32, 2), "--json"),
        "1897d4912c462bbedee25c2379f288ded5bc443034ac566da2282534c8d13731",
        ('"generated_dim": 1024', '"dims": [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 1024]'),
        timeout=60),
    Row("alg-length-random-mersenne-8-three",
        ("alg", "length", (seeded_set, F_MERSENNE, 8, 3), "--json"),
        "d2b5c89597807a35363b0de4d56bd8539efcd5906ec5428cae0e4a1ed66b8a19",
        ('"generated_dim": 64', '"dims": [1, 4, 13, 40, 64]'), timeout=60),
    # decompose --n checks both sides of f(n) <= n <=> cost <= n; n outside
    # [1, l/2] is a usage error.
    Row("decompose-n", ("decompose", "abbabbabaa", "--n", "5", "--json"),
        "30f2a7c2e0079383e8a457a5e0f2fc6a148bc6c9aa41731794c69f4cc8c6e829", ('"agree": true',)),
    Row("decompose-n-too-large", ("decompose", "abab", "--n", "3"), code=2),
    # A sharded sweep runs its per-word check through the one sweep loop.
    Row("verify-mhgen-jobs-2", ("verify", "mhgen", "--maxlen", "8", "--jobs", "2"),
        "0369172ce5631deda0b30b41cc7d53932329b8b9ed990f258da90292ce166421",
        ('"counterexamples": 0',)),
    # sweep_tc checks each word once per kind, at the largest admissible k.
    Row("verify-tc-jobs-2", ("verify", "tc", "--alphabet", "3", "--maxlen", "8", "--jobs", "2"),
        "75d101fc2dbf1f851a19f1a1d9b4876091c041049e6220b38705570dcedcc423",
        ('"counterexamples": 0',)),
    # A dimension past the float range of the sqrt-form approximation is a
    # usage error, not an internal error.
    Row("bounds-dim-1e400", ("bounds", "--dim", "1" + "0" * 400, "--m", "4"), code=2),
]


def _arg(item, tmp_path) -> str:
    if isinstance(item, str):
        return item
    make, *args = item
    value = make(*args)
    if isinstance(value, GeneratorSet):
        return write_set(tmp_path / "set.json", value)
    if isinstance(value, tuple):
        value = Word(value, Alphabet.letters(26))
    return value.render()


@pytest.mark.parametrize("row", LEDGER, ids=lambda row: row.name)
def test_row(row, tmp_path):
    argv = [_arg(item, tmp_path) for item in row.argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wordlen.__file__)))
    proc = subprocess.run([sys.executable, "-m", "wordlen", *argv],
                          capture_output=True, timeout=row.timeout, env=env)
    assert proc.returncode == row.code, proc.stderr.decode()
    out = proc.stdout.decode()
    for grep in row.greps:
        assert grep in out
    if row.code == 0:
        assert hashlib.sha256(proc.stdout).hexdigest() == row.sha256
    if row.stderr is not None:
        assert proc.stderr.decode() == row.stderr
