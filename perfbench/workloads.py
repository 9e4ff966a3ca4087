"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the workload name and the seed, so
the same seed gives byte-identical inputs. The program under test receives
only these inputs; it never sees the seed.
"""

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("verify_symbolic", "verify_spot", "normalize_words")

VERIFY_SYMBOLIC_ARGS = ["verify", "all", "--nmax", "10", "--format", "json"]

SPOT_NMAX = 8
SPOT_POINTS = 16
SPOT_KINDS = ("module", "conjugation", "closed_form")

WORD_COUNT = 1200
WORD_MIN, WORD_MAX = 8, 20
CHEVALLEY_LETTERS = ("e", "f", "k", "k^-1")
EQUITABLE_LETTERS = ("x", "x^-1", "y", "z")


def spot_points(rng, count):
    """Admissible rational points under the rule of ``uqsl2.cli.spot_points``
    (numerator in [-12, 12], denominator in [1, 12], not 0 or +-1), one from
    each of ``count`` strata of the admissible points ordered by size.

    A request's cost grows with the size |numerator| * denominator of its
    point, so free draws let the latency tail move from seed to seed; with
    one point per size stratum every seed has the same spread of sizes.
    """
    admissible = {Fraction(a, b) for a in range(-12, 13) for b in range(1, 13)}
    ordered = sorted(admissible - {0, 1, -1},
                     key=lambda p: (abs(p.numerator) * p.denominator, p))
    return [rng.choice(ordered[i * len(ordered) // count:
                               (i + 1) * len(ordered) // count])
            for i in range(count)]


def _spot_requests(seed):
    rng = random.Random(seed)
    requests = []
    for q0 in spot_points(rng, SPOT_POINTS):
        for n in range(SPOT_NMAX + 1):
            for eps in (1, -1):
                for kind in SPOT_KINDS:
                    requests.append({"kind": kind, "n": n, "eps": eps,
                                     "q0": str(q0)})
    return requests


def _words(seed):
    """Distinct words, alternating Chevalley and equitable letters.

    Lengths cycle through WORD_MIN..WORD_MAX, and each word holds its four
    letters as evenly as its length allows, in a random order. Every seed
    thus has the same length and letter mix and differs only in letter
    order. The cost of a word grows steeply with its length and its number
    of e/f (or y/z) letters; drawing those too would add seed-to-seed
    variance without exercising anything new.
    """
    rng = random.Random(seed)
    seen = set()
    words = []
    while len(words) < WORD_COUNT:
        equitable = len(words) % 2 == 1
        letters = EQUITABLE_LETTERS if equitable else CHEVALLEY_LETTERS
        length = WORD_MIN + (len(words) // 2) % (WORD_MAX - WORD_MIN + 1)
        pool = [letters[i % 4] for i in range(length)]
        rng.shuffle(pool)
        word = tuple(pool)
        if word in seen:
            continue
        seen.add(word)
        words.append({"presentation": "equitable" if equitable else "chevalley",
                      "letters": list(word)})
    return words


def make_inputs(workload, seed):
    """The list of requests one pass of ``workload`` sends to the program."""
    if workload == "verify_symbolic":
        return [{"argv": VERIFY_SYMBOLIC_ARGS}]
    if workload == "verify_spot":
        return _spot_requests(seed)
    if workload == "normalize_words":
        return _words(seed)
    raise ValueError("unknown workload %r" % (workload,))


def inputs_digest(inputs):
    """sha256 of the canonical JSON encoding of the generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
