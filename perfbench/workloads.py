"""Seeded request streams for the four benchmark workloads, and their checks.

A request is one `borelline` argv plus the JSON files it names. File
arguments are written as "@name" and resolved to real paths only when the
request is sent, so a request has one canonical form (its `key`) under which
its golden is recorded.

Every workload is built from rounds. A round holds a fixed multiset of
request classes; the seed picks the concrete argv for each class and the
order inside the round. Holding the mix fixed is what keeps the median and
tail percentiles of one run comparable with another run on a different
seed: those order statistics land inside a class, never on a class edge.

Every response is checked two ways: against the golden recorded at the seed
commit (exit code and byte-identical stdout), and against answers computed
here without the program (digit products, Hecke split dimensions, suite case
counts, finite-dimensionality, residue towers).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import factorial, prod

# -- requests ----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = ()
    expect_exit: int = 0
    # "golden": stdout must match the recorded golden.
    # "empty": stdout must be empty (error exits print only to stderr).
    # a key: stdout must match the golden recorded under that key.
    expect_stdout: str = "golden"
    answer: tuple = ()         # known answer, checked by `known_answer_errors`
    defect: str | None = None  # names a documented known defect

    @property
    def key(self) -> str:
        canon = json.dumps({"argv": list(self.argv), "files": dict(self.files)},
                           sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:24]

    def label(self) -> str:
        return " ".join(self.argv)


def _doc(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- lab-proof -----------------------------------------------------------------

LAB_PAIRS = ((2, 1), (3, 1), (2, 2), (5, 1))
LAB_POWERS = range(-6, 7)
LAB_RATIONALS = (-7, 7)

# Per round: (p, a, m) -> count, where m is the character's residue at
# level a. q <= 3 requests take milliseconds, q = 4 trivial about 0.1 s,
# q = 4 nontrivial about half a second and q = 5 nontrivial several seconds
# (3906 lines spun); that one goes into every other round, its residue
# rotating with the round index so that every seed does the same work.
# The q = 4 nontrivial requests hold both the median and the tail
# percentile of a two-round run.
LAB_ROUND = (
    ((2, 1, 0), 1),
    ((3, 1, 0), 1),
    ((3, 1, 1), 1),
    ((2, 2, 0), 1),
    ((2, 2, 1), 4),
    ((2, 2, 2), 4),
    ((5, 1, 0), 1),
)
LAB_Q5_RESIDUES = (1, 2, 3)


def _twist(e, level):
    return [e % factorial(n) for n in range(1, level + 1)]


def lab_characters(p, a):
    """Symbolic characters sent through `--char`, with their level-a residue."""
    q = p ** factorial(a)
    out = [({"kind": "trivial"}, 0)]
    for lam in LAB_RATIONALS:
        out.append(({"kind": "rational", "lambda": lam}, lam % (q - 1)))
    seen = set()
    for theta in range(1, p):
        for e in range(factorial(a)):
            twist = _twist(e, a)
            if (theta, tuple(twist)) in seen:
                continue
            seen.add((theta, tuple(twist)))
            m = theta * p ** twist[-1] % (q - 1)
            out.append(({"kind": "twisted",
                         "factors": [{"theta": theta, "twist": twist}]}, m))
    if factorial(a) > 1:
        # two digits whose residue wraps to zero: a twisted trivial character
        factors = [{"theta": 1, "twist": _twist(e, a)} for e in range(factorial(a))]
        m = sum(p ** f["twist"][-1] for f in factors) % (q - 1)
        out.append(({"kind": "twisted", "factors": factors}, m))
    return out


def lab_request(p, a, power=None, char=None):
    q = p ** factorial(a)
    argv = ["lab", "--p", str(p), "--a", str(a)]
    files = ()
    if char is None:
        argv += ["--power", str(power)]
        m = power % (q - 1)
    else:
        doc, m = char
        argv += ["--char", "@char"]
        files = (("char", _doc(doc)),)
    return Request(tuple(argv), files, answer=("lab", p, a, q, m))


def lab_space():
    """Every lab request any seed can draw, grouped by (p, a, m)."""
    space = {}
    for p, a in LAB_PAIRS:
        q = p ** factorial(a)
        for power in LAB_POWERS:
            space.setdefault((p, a, power % (q - 1)), []).append(lab_request(p, a, power))
        for char in lab_characters(p, a):
            space.setdefault((p, a, char[1]), []).append(lab_request(p, a, char=char))
    return space


def lab_rounds(seed, rounds):
    space = lab_space()
    rng = random.Random(f"lab-proof/{seed}")
    decks = {}

    def draw(cls):
        # without replacement until a class is used up, so that a run holds
        # as many distinct requests as every other run of its length
        if not decks.get(cls):
            decks[cls] = rng.sample(space[cls], len(space[cls]))
        return decks[cls].pop()

    out = []
    for r in range(rounds):
        mix = LAB_ROUND
        if r % 2 == 0:
            residue = LAB_Q5_RESIDUES[r // 2 % len(LAB_Q5_RESIDUES)]
            mix += (((5, 1, residue), 1),)
        batch = [draw(cls) for cls, count in mix for _ in range(count)]
        rng.shuffle(batch)
        out.append(batch)
    return out


# -- verify-suites -------------------------------------------------------------

SUITE_NAMES = (
    "digit-lemma", "lucas", "power-sums", "sl2-relations",
    "sl2-socle-head", "sl2-chain", "hecke-split", "pattern-roundtrip",
)
SUITE_FILTERS = (None, 2, 3, 5)

# Case counts per prime, derived by hand from each suite's grid (README lists
# the full-grid totals, which are the sums, except pattern-roundtrip whose
# sample count does not split by prime).
#   digit-lemma: r = 2, q = p^2, m' in range(m, q^3 + 1, q - 1) for m < q
#   lucas: 513 x 513 pairs per prime
#   power-sums: 2 (3(q - 1) + 1) per field order q of that characteristic
#   sl2-relations: 4 characters + 9 costandard weights per (p, a)
#   sl2-socle-head: powers 1, 2, -1 minus those trivial at level a
#   sl2-chain: 5 powers per prime; hecke-split: one case per (p, a)
SUITE_CASES = {
    "digit-lemma": {2: 86, 3: 821, 5: 0},
    "lucas": {2: 263169, 3: 263169, 5: 263169},
    "power-sums": {2: 72, 3: 64, 5: 26},
    "sl2-relations": {2: 26, 3: 13, 5: 0},
    "sl2-socle-head": {2: 3, 3: 2, 5: 0},
    "sl2-chain": {2: 5, 3: 5, 5: 0},
    "hecke-split": {2: 2, 3: 1, 5: 0},
    "pattern-roundtrip": {2: 200, 3: 200, 5: 0},
}
README_TOTALS = {
    "digit-lemma": 907, "lucas": 789507, "power-sums": 162, "sl2-relations": 39,
    "sl2-socle-head": 5, "sl2-chain": 10, "hecke-split": 3, "pattern-roundtrip": 200,
}


def expected_cases(suite, p):
    by_p = SUITE_CASES[suite]
    if p is not None:
        return by_p[p]
    if suite == "pattern-roundtrip":
        return README_TOTALS[suite]
    return sum(by_p.values())


def verify_request(suite, p=None):
    argv = ("verify", suite) + (() if p is None else ("--p", str(p)))
    return Request(argv, answer=("verify", suite, expected_cases(suite, p)))


def verify_space():
    return [verify_request(s, p) for s in SUITE_NAMES for p in SUITE_FILTERS]


# Suites that build modules, and lucas, go twice into each round, so that the
# median request does real work rather than run a vacuous prime filter in a
# millisecond, where it would see one host speed or the other.
VERIFY_TWICE = ("lucas", "sl2-relations", "sl2-socle-head", "sl2-chain", "hecke-split")


def verify_rounds(seed, rounds):
    rng = random.Random(f"verify-suites/{seed}")
    out = []
    for _ in range(rounds):
        batch = verify_space()
        batch += [r for r in batch if r.argv[1] in VERIFY_TWICE]
        rng.shuffle(batch)
        out.append(batch)
    return out


# -- classify-batch ------------------------------------------------------------

CLASSIFY_PRIMES = (2, 3, 5, 7)
POOL_SEED = 20111104
POOL_SIZE = 240   # documents per command


def cartan(kind, n):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if kind == "B":
        a[n - 2][n - 1] = -2
    elif kind == "C":
        a[n - 1][n - 2] = -2
    elif kind == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    elif kind == "G":
        a[0][1] = -3
    return a


CARTAN_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)] + [("G", 2)]
)


def random_character(rng, p, level):
    """A symbolic character on which classify and char-inspect both answer.

    Nonnegative powers keep their digit positions below level! and twisted
    factors sit at distinct positions mod level!, so no request hits a
    capability refusal; twists are given to level 3, which serves any level.
    """
    kind = rng.choice(("trivial", "rational", "rational", "twisted", "twisted"))
    if kind == "trivial":
        return {"kind": "trivial"}
    if kind == "rational":
        top = min(p ** factorial(level) - 1, 80)
        lam = rng.randrange(0, top + 1)
        return {"kind": "rational", "lambda": lam if rng.random() < 0.5 else -1 - lam}
    count = rng.choice((1, 2)) if factorial(level) > 1 else 1
    positions = rng.sample(range(factorial(level)), count)
    return {"kind": "twisted", "factors": [
        {"theta": rng.randrange(1, p), "twist": _twist(e, 3)} for e in positions
    ]}


def truncate_residues(char, p, level):
    """Residues m_n, n = 1..level, computed here without the program."""
    out = []
    for n in range(1, level + 1):
        mod = p ** factorial(n) - 1
        if char["kind"] == "trivial":
            out.append(0)
        elif char["kind"] == "rational":
            out.append(char["lambda"] % mod)
        else:
            out.append(sum(f["theta"] * p ** f["twist"][n - 1]
                           for f in char["factors"]) % mod)
    return out


def _is_negative_power(char):
    return char["kind"] == "rational" and char["lambda"] < 0


def _is_trivial(char):
    return char["kind"] == "trivial" or (char["kind"] == "rational" and char["lambda"] == 0)


def classify_pool():
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        kind, n = rng.choice(CARTAN_TYPES)
        p = rng.choice(CLASSIFY_PRIMES)
        level = rng.randrange(1, 4)
        chars = [random_character(rng, p, level) for _ in range(n)]
        doc = {
            "cartan": cartan(kind, n),
            "simply_connected": True,
            "restrictions": {str(i + 1): c for i, c in enumerate(chars)},
            "central": random_character(rng, p, level) if rng.random() < 0.25 else None,
        }
        pool.append(Request(
            ("classify", "@doc", "--p", str(p), "--level", str(level)),
            (("doc", _doc(doc)),),
            answer=("classify",
                    tuple(i + 1 for i, c in enumerate(chars) if not _is_negative_power(c)),
                    tuple(i + 1 for i, c in enumerate(chars) if _is_trivial(c)),
                    not any(_is_negative_power(c) for c in chars)),
        ))
    for _ in range(POOL_SIZE):
        p = rng.choice(CLASSIFY_PRIMES)
        level = rng.randrange(1, 4)
        char = random_character(rng, p, level)
        pool.append(Request(
            ("char-inspect", "@char", "--p", str(p), "--level", str(level)),
            (("char", _doc(char)),),
            answer=("char-inspect", tuple(truncate_residues(char, p, level)),
                    not _is_negative_power(char)),
        ))
    return pool


def classify_rounds(seed, rounds):
    # Each round sends the whole pool in a seeded order: drawing with
    # replacement would let the seed decide how often the few slowest
    # documents, which set the tail percentile, come up.
    pool = classify_pool()
    rng = random.Random(f"classify-batch/{seed}")
    return [rng.sample(pool, len(pool)) for _ in range(rounds)]


# -- edge-inputs ---------------------------------------------------------------

BIG_PRIME = 1000000000000000003   # prime; trial division takes minutes
# `verify --p P` for a prime P outside every grid is a vacuous pass; its
# document equals the one for p = 7, which does finish.
VACUOUS_VERIFY = Request(("verify", "--p", "7"), answer=("vacuous",))


def _edge_refusals(rng):
    """One request per documented refusal: exit 2 for bad usage or input,
    exit 3 past a capability cap."""
    p = rng.choice((2, 3, 5))
    rank = rng.randrange(1, 5)
    bad_rank = {"cartan": cartan("A", rank), "restrictions": {
        str(i + 1): {"kind": "trivial"} for i in range(rank + rng.choice((-1, 1)))}}
    char = {"kind": "rational", "lambda": rng.randrange(-9, 10)}
    power = str(char["lambda"])

    def refused(argv, files=(), code=2):
        return Request(argv, files, expect_exit=code, expect_stdout="empty")

    return [
        refused(("verify", "--p", str(rng.choice((1, 4, 6, 9, 15, 21, 25, 91))))),
        refused(("verify", rng.choice(("lemma", "sl2", "lucas-digits", "all")))),
        refused(("lab", "--p", str(p), "--a", "1", "--power", "1", "--char", "@char"),
                (("char", _doc(char)),)),
        refused((rng.choice(("classify", "char-inspect")), "@bad", "--p", str(p)),
                (("bad", rng.choice(('{"cartan": [[2]]', "[1, 2", "{'kind': 1}", ""))),)),
        refused(("classify", "@doc", "--p", str(p)), (("doc", _doc(bad_rank)),)),
        refused(("char-inspect", "@char", "--p", str(p), "--level", "4"),
                (("char", _doc(char)),), code=3),
        refused(("lab", "--p", str(p), "--a", "4", "--power", power), code=3),
        refused(("lab", "--p", "3", "--a", "3", "--power", power), code=3),
        refused(("lab", "--p", "11", "--a", "2", "--power", power), code=3),
    ]


# Known defects, counted as failed until they are fixed.
EDGE_DEFECTS = (
    Request(("lab", "--p", "3", "--a", "10", "--power", "1"),
            expect_exit=3, expect_stdout="empty", defect="a10-traceback"),
    Request(("verify", "--p", str(BIG_PRIME)), expect_stdout=VACUOUS_VERIFY.key,
            answer=("vacuous",), defect="bigp-trial-division"),
)


def edge_rounds(seed, rounds):
    # Two refusals of each kind per round, so that the tail percentile is
    # taken among them rather than at the two defects.
    rng = random.Random(f"edge-inputs/{seed}")
    out = []
    for _ in range(rounds):
        batch = _edge_refusals(rng) + _edge_refusals(rng) + list(EDGE_DEFECTS)
        rng.shuffle(batch)
        out.append(batch)
    return out


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    rounds: object            # (seed, rounds) -> list of request lists
    round_seconds: float      # nominal; sizes the number of rounds in a run
    mode: str                 # "inproc" or "proc"
    deadline: float           # seconds per request


WORKLOADS = {
    "lab-proof": Workload(lab_rounds, 10.0, "inproc", 90.0),
    "verify-suites": Workload(verify_rounds, 20.0, "inproc", 60.0),
    "classify-batch": Workload(classify_rounds, 1.4, "inproc", 10.0),
    "edge-inputs": Workload(edge_rounds, 11.0, "proc", 5.0),
}


def rounds_for(workload, seconds):
    return max(1, round(seconds / workload.round_seconds))


def golden_space():
    """Every request whose stdout is checked against a recorded golden."""
    seen = {}
    for reqs in lab_space().values():
        for r in reqs:
            seen[r.key] = r
    for r in verify_space() + classify_pool() + [VACUOUS_VERIFY]:
        seen[r.key] = r
    return list(seen.values())


# -- checks ----------------------------------------------------------------------


def digit_product(m, p):
    digits = []
    while m:
        m, d = divmod(m, p)
        digits.append(d)
    return prod(d + 1 for d in digits)


def known_answer_errors(req, doc):
    """Answers computed without the program; returns a list of mismatches."""
    errs = []
    kind = req.answer[0]
    if kind == "lab":
        _, p, a, q, m = req.answer
        if (doc.get("p"), doc.get("a"), doc.get("q"), doc.get("dim"), doc.get("m")) != (
                p, a, q, q + 1, m):
            errs.append("p, a, q, dim or m differs")
        if m == 0:
            if doc.get("hecke", {}).get("dims") != [1, q]:
                errs.append("Hecke split dims are not (1, q)")
        else:
            sh = doc.get("socle_head", {})
            want = digit_product(m, p)
            if sh.get("head_dim") != want or sh.get("digit_product") != want:
                errs.append(f"head_dim is not the digit product {want}")
            if not (sh.get("socle_ok") and sh.get("maximal_ok")):
                errs.append("socle or maximal submodule not unique")
        if doc.get("ok") is not True:
            errs.append("lab not ok")
    elif kind == "verify":
        _, suite, cases = req.answer
        rec = (doc.get("suites") or [{}])[0]
        if rec.get("suite") != suite or rec.get("cases") != cases:
            errs.append(f"{suite}: {rec.get('cases')} cases, expected {cases}")
        if rec.get("ok") is not True or rec.get("failures"):
            errs.append(f"{suite} failed")
    elif kind == "vacuous":
        suites = doc.get("suites") or []
        if [s.get("suite") for s in suites] != list(SUITE_NAMES) or any(
                s.get("cases") != 0 or s.get("ok") is not True for s in suites):
            errs.append("not a vacuous pass of every suite")
    elif kind == "classify":
        _, j_set, trivial, finite = req.answer
        if doc.get("finite_dimensional") is not finite:
            errs.append("finite_dimensional disagrees with the signs of the powers")
        if tuple(doc.get("J", ())) != j_set:
            errs.append("J is not the set of bounded restrictions")
        if tuple(doc.get("trivial_support", ())) != trivial:
            errs.append("trivial_support mismatch")
    elif kind == "char-inspect":
        _, residues, bounded = req.answer
        if tuple(doc.get("residues", ())) != residues:
            errs.append("residue tower mismatch")
        if doc.get("bounded") is not bounded:
            errs.append("bounded disagrees with the sign of the power")
    return errs


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_response(req, resp, goldens):
    """The reason a response failed, or "" when it passed every check."""
    if resp.get("error"):
        return resp["error"]
    if "Traceback (most recent call last)" in resp.get("stderr", ""):
        return "uncaught exception"
    if resp["exit"] != req.expect_exit:
        return f"exit {resp['exit']}, expected {req.expect_exit}"
    out = resp["stdout"]
    if req.expect_stdout == "empty":
        return "stdout not empty" if out else ""
    want_key = req.key if req.expect_stdout == "golden" else req.expect_stdout
    golden = goldens.get(want_key)
    if golden is None:
        return "no golden recorded"
    if golden["exit"] != resp["exit"] or golden["stdout"] != stdout_digest(out):
        return "stdout differs from the golden"
    if req.answer:
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return "; ".join(known_answer_errors(req, doc))
    return ""
