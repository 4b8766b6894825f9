"""Seeded workloads of the toruslie benchmark and the checks on their outputs.

Every input (lattice parameters, torsion shifts, evaluation points and the
sampling seeds handed to the program) is drawn from the workload seed.
Program functions are looked up through their modules at call time, so
the tracer in spans.py sees every call the benchmark makes.

An operation (op) is one ``cross_validate`` case, one CLI command or one
``wp_both`` call.  Only the call is timed (Workload.run); its output is
checked afterwards.  Each op gives an Outcome:

* ``certified``: the program's own verdict: ``passed`` of the
  cross-validation or of the CLI report (exit 0); for wp-eval, agreement
  with the oracle.  ``FitError`` and ``NotInRingError`` are the program
  declining to certify a case.  Every uncertified op lowers ``pass_frac``.
* ``ok``: the op did not fail: it is certified, the reported kind matches
  KIND_BY_BRANCH_COUNT, a repeated op reproduces its output and the CLI
  exits 0.  An op that is not ok, or raises anything else, counts in the
  result's ``failed``.  The one exception is KNOWN_DEFECTS: a catalog case
  that today fails to certify for a few sampling seeds stays ok when
  uncertified, so that it shows in ``pass_frac`` without marking the run
  incorrect.
* ``margin``: digits between the op's worst residual and the bound the
  program checks it against; negative when a check fails, -inf when the
  op raised.
* ``signature``: output identity; a repeated op must reproduce it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from oracle import Reference, digits

cli = importlib.import_module("toruslie.cli")
cv_mod = importlib.import_module("toruslie.classify")
elliptic = importlib.import_module("toruslie.elliptic")
funcalg = importlib.import_module("toruslie.funcalg")
lattice = importlib.import_module("toruslie.lattice")
torusgroup = importlib.import_module("toruslie.torusgroup")

HEX_TAU = lattice.HEX_TAU
SQUARE_TAU = lattice.SQUARE_TAU
GENERIC_TAU = 0.31 + 1.07j
#: lattices the moduli-space sweep always includes: tall, taller, skewed
#: near the boundary, and far from the fundamental domain
SWEEP_SPECIALS = (2.5j, 3.5j, 0.49 + 0.9j, 7.3 + 0.2j)

# bounds as classify.cross_validate applies them (its default tolerances)
BRACKET_TOL = 1e-7
FIT_TOL = 1e-6
INVARIANCE_TOL = 1e-8
INVARIANCE_REL = 1e-11  # invariance floor per unit of frame scale
# the CLI's default --tol, which cmd_verify combines with the same floors
CLI_TOL = 1e-7
#: relative agreement with the 30-digit oracle that a wp value must reach
WP_TOL = 1e-10
#: cell points per lattice for the accuracy check of the evaluator
ORACLE_POINTS = 12

#: the program refusing to certify a case (ring fit or sampler gave up)
UNCERTIFIED = (funcalg.FitError, funcalg.NotInRingError)
#: (tau, kind, order) of catalog cases that fail to certify for some
#: sampling seeds on the program as this benchmark found it: DN5 on the
#: square and on the generic lattice each fail the leading_coefficient
#: check for 18 of 250 seeds (e.g. seed 242490609 on the square lattice).
#: No other catalog case failed for any of 330 seeds.
KNOWN_DEFECTS = {(SQUARE_TAU, "DN", 5), (GENERIC_TAU, "DN", 5)}


@dataclass
class Outcome:
    ok: bool
    certified: bool
    margin: float
    signature: object = None
    note: str = ""


def margin_digits(pairs) -> float:
    """min over (residual, bound) of log10(bound / residual)."""
    worst = math.inf
    for resid, bound in pairs:
        resid = float(resid)
        if not math.isfinite(resid):
            return -math.inf
        worst = min(worst, math.log10(bound / max(resid, 1e-300)))
    return worst


def residual_pairs(br: dict, invariance: float, bracket: float, fit: float, inv: float):
    pairs = [(br[k], bracket) for k in ("he", "hf", "ef")] + [(invariance, inv)]
    if "ef_fit" in br:
        pairs.append((br["ef_fit"], fit))
    return pairs


def cell_points(rng, tau: complex, n: int) -> np.ndarray:
    return rng.random(n) + rng.random(n) * tau


def random_taus(rng, n: int) -> list:
    """n lattice parameters in Re [-3, 3] x Im [0.25, 3], Latin-hypercube
    stratified: one per row and per column of an n x n grid, so every run
    gets tall, flat and skewed lattices alike."""
    re = -3.0 + 6.0 * (rng.permutation(n) + rng.random(n)) / n
    im = 0.25 + 2.75 * (rng.permutation(n) + rng.random(n)) / n
    return [complex(a, b) for a, b in zip(re, im)]


def call_cli(argv: list) -> tuple:
    """One in-process CLI command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def check_cli(rc: int, text: str, err: str) -> Outcome:
    if rc not in (0, 1):  # 1: verification failed, with a report; 2: usage error
        return Outcome(False, False, -math.inf, note=f"exit {rc}: {err.strip()}")
    doc = json.loads(text)
    if doc["command"] == "classify":
        cvd = doc["cross_validation"]
        br = cvd["bracket_residuals"]
        floor = max(INVARIANCE_TOL, INVARIANCE_REL * br.get("frame_scale", 0.0))
        pairs = residual_pairs(br, cvd["invariance_residual"], BRACKET_TOL, FIT_TOL, floor)
        certified = bool(cvd["passed"])
        consistent = cv_mod.KIND_BY_BRANCH_COUNT.get(doc["branch_count"]) == doc["kind"]
    else:
        br = doc["bracket_residuals"]
        pairs = residual_pairs(
            br, doc["invariance_residual"], CLI_TOL, max(CLI_TOL, 1e-6), max(CLI_TOL, 1e-8)
        )
        certified = bool(doc["passed"])
        consistent = doc["kind"] in cv_mod.KIND_BY_BRANCH_COUNT.values()
    digest = hashlib.sha256(text.encode()).hexdigest()
    certified = certified and rc == 0
    note = "" if certified else f"exit {rc}, passed is {doc['passed']}"
    return Outcome(consistent and certified, certified, margin_digits(pairs), digest, note)


def run_cli(argv: list) -> Outcome:
    """One in-process CLI command, checked."""
    return check_cli(*call_cli(argv))


def cli_argv(command: str, group: str, tau: complex, seed: int, extra=()) -> list:
    return [
        command, "--group", group, *extra,
        "--tau-re", repr(tau.real), "--tau-im", repr(tau.imag),
        "--seed", str(seed), "--json",
    ]


def probe_argvs(seed: int) -> list:
    """CLI commands that enter every layer (psi, phi, ring fits, classify).

    Each traced repetition ends with them, so every per-layer metric is
    measured on every workload, including wp-eval which bypasses the
    layers above elliptic.
    """
    s = int(np.random.default_rng([seed, 3]).integers(0, 1000))
    return [
        cli_argv("classify", "c2c2", SQUARE_TAU, s),
        cli_argv("classify", "cn", SQUARE_TAU, s, ("--order", "3")),
    ]


def clear_caches() -> None:
    """Empty every functools cache of the program: a fresh lattice's view."""
    for mname, mod in list(sys.modules.items()):
        if mname == "toruslie" or mname.startswith("toruslie."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Workload:
    """A seeded op list, run in cycles of ``cycle`` ops."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        # the warm-up op is the same kind of op under every seed, so that
        # set-up time does not depend on where the shuffle put a slow one
        self.warm = 0

    @property
    def n_ops(self) -> int:
        raise NotImplementedError

    def build(self) -> None:
        """Program-side set-up: lattices and embeddings."""

    def warm_up(self) -> None:
        try:
            self.call(self.warm)
        except UNCERTIFIED:
            pass

    def call(self, i: int):
        """The op itself: the program call that is timed."""
        raise NotImplementedError

    def check(self, i: int, raw) -> Outcome:
        raise NotImplementedError

    def tolerated(self, i: int) -> bool:
        """Whether op i may go uncertified without failing (KNOWN_DEFECTS)."""
        return False

    def run(self, i: int) -> tuple[float, Outcome]:
        """(seconds spent in the call, checked outcome)."""
        start = perf_counter()
        try:
            raw = self.call(i)
        except UNCERTIFIED as exc:
            elapsed = perf_counter() - start
            return elapsed, Outcome(self.tolerated(i), False, -math.inf,
                                    note=f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        return elapsed, self.check(i, raw)

    def rep_ops(self) -> list:
        """Zero-argument ops of one traced repetition (fixed work)."""
        return [lambda i=i: self.run(i)[1] for i in range(self.n_ops)]

    def oracle_refs(self) -> list:
        """Reference values for the evaluator on this workload's lattices."""
        rng = np.random.default_rng([self.seed, 1])
        return [Reference(t, cell_points(rng, t, ORACLE_POINTS)) for t in self.taus]


@dataclass(frozen=True)
class Case:
    tau: complex
    kind: str
    order: int
    shift: tuple | None  # (a, b, n): the torsion point (a + b tau) / n
    cv_seed: int
    index: int = -1  # position in catalog(Lattice(tau)), catalog cases only


class CrossValidateWorkload(Workload):
    rep_len = 0

    @property
    def n_ops(self) -> int:
        return len(self.cases)

    def build(self) -> None:
        self.embs = self.embeddings(self.cases)

    def embeddings(self, cases, lists=None) -> list:
        """Embeddings of the cases; ``lists`` maps tau to a built catalog()."""
        lists = {} if lists is None else dict(lists)
        out = []
        for c in cases:
            lat = lattice.Lattice(c.tau)
            if c.index >= 0:
                if c.tau not in lists:
                    lists[c.tau] = torusgroup.catalog(lat)
                out.append(lists[c.tau][c.index])
            else:
                shift = None if c.shift is None else lattice.TorsionPoint(*c.shift)
                out.append(torusgroup.make_embedding(lat, c.kind, c.order, shift))
        return out

    def call(self, i: int):
        return cv_mod.cross_validate(self.embs[i], seed=self.cases[i].cv_seed)

    def check(self, i: int, cv) -> Outcome:
        cls = cv.classification
        ok = cv_mod.KIND_BY_BRANCH_COUNT.get(cls.branch_count) == cls.kind
        certified = bool(cv.passed)
        br = cv.bracket_residuals
        floor = max(INVARIANCE_TOL, INVARIANCE_REL * br.get("frame_scale", 0.0))
        pairs = residual_pairs(br, cv.invariance, BRACKET_TOL, FIT_TOL, floor)
        sig = (cv.passed, cls.kind, tuple(sorted(br.items())), cv.invariance)
        ok = ok and (certified or self.tolerated(i))
        return Outcome(ok, certified, margin_digits(pairs), sig,
                       "" if certified else "passed is False")

    def rep_ops(self) -> list:
        self.embs[: self.rep_len] = self.embeddings(self.cases[: self.rep_len])
        return [lambda i=i: self.run(i)[1] for i in range(self.rep_len)]


class Catalog(CrossValidateWorkload):
    """Every catalog() entry of the square, hexagonal and generic lattices."""

    name = "catalog"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.taus = [SQUARE_TAU, HEX_TAU, GENERIC_TAU]
        self.catalogs = {t: torusgroup.catalog(lattice.Lattice(t)) for t in self.taus}
        cases = []
        for tau in self.taus:
            for idx, emb in enumerate(self.catalogs[tau]):
                cases.append(Case(tau, emb.kind, emb.order_param, None, 0, idx))
        seeds = self.rng.integers(0, 2 ** 31, size=len(cases))
        order = self.rng.permutation(len(cases))
        self.cases = [replace(cases[k], cv_seed=int(seeds[k])) for k in order]
        self.cycle = self.rep_len = len(self.cases)
        self.warm = int(np.argmin(order))  # rot2 on the square lattice

    def build(self) -> None:
        self.embs = self.embeddings(self.cases, self.catalogs)

    def tolerated(self, i: int) -> bool:
        c = self.cases[i]
        return (c.tau, c.kind, c.order) in KNOWN_DEFECTS


class ModuliSweep(CrossValidateWorkload):
    """Cases of 38 types on 16 lattices: rot2, c2c2, and cn/dn for N in
    {2,3,5,6,7,8} at shifts 1/N, tau/N and (1+tau)/N.

    A run is BLOCKS blocks of the 38 x 16 sweep.  A block runs every type
    once, round-robin over 12 seeded lattices and the four fixed ones, so
    each lattice gets two or three cases; the next block shifts the
    round-robin by one lattice.  Other seeds draw other lattices and
    blocks.  Every op starts from empty program caches, as a new lattice
    would, so repeats of a case do the same work.  A traced repetition
    runs the first block.
    """

    name = "moduli-sweep"
    ORDERS = (2, 3, 5, 6, 7, 8)
    RANDOM_TAUS = 12
    BLOCKS = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.taus = random_taus(self.rng, self.RANDOM_TAUS) + list(SWEEP_SPECIALS)
        types = [("Cl_rotation", 2, None), ("C2xC2_translation", 2, None)]
        for n in self.ORDERS:
            for shift in ((1, 0, n), (0, 1, n), (1, 1, n)):
                types += [("CN_translation", n, shift), ("DN", n, shift)]
        offset = int(self.rng.integers(len(self.taus)))
        self.cases = [
            Case(self.taus[(offset + b + t) % len(self.taus)], *types[k],
                 int(self.rng.integers(0, 2 ** 31)))
            for b in range(self.BLOCKS)
            for t, k in enumerate(self.rng.permutation(len(types)))
        ]
        self.cycle = len(self.cases)
        self.rep_len = len(types)
        self.warm = next(i for i, c in enumerate(self.cases) if c.kind == "Cl_rotation")

    def run(self, i: int) -> tuple[float, Outcome]:
        clear_caches()
        return super().run(i)


class Cli(Workload):
    """classify and verify through toruslie.cli.main for a4, c2c2, dn 4, cn 5.

    The lattice of the last three is drawn near the fundamental domain,
    where the catalog tests certify these groups; the moduli-sweep
    workload covers the rest of moduli space.
    """

    name = "cli"

    def __init__(self, seed: int):
        super().__init__(seed)
        tau = complex(self.rng.uniform(-0.5, 0.5), self.rng.uniform(0.95, 1.25))
        self.taus = [HEX_TAU, tau]
        argvs = []
        for group, t, extra in (
            ("a4", HEX_TAU, ()),
            ("c2c2", tau, ()),
            ("dn", tau, ("--order", "4")),
            ("cn", tau, ("--order", "5")),
        ):
            s = int(self.rng.integers(0, 1000))
            argvs += [cli_argv(cmd, group, t, s, extra) for cmd in ("classify", "verify")]
        order = self.rng.permutation(len(argvs))
        self.argvs = [argvs[k] for k in order]
        self.cycle = len(self.argvs)
        self.warm = int(np.argmin(order))  # classify --group a4

    @property
    def n_ops(self) -> int:
        return len(self.argvs)

    def call(self, i: int) -> tuple:
        return call_cli(self.argvs[i])

    def check(self, i: int, raw: tuple) -> Outcome:
        return check_cli(*raw)

    def digest(self, signatures: dict) -> str:
        """One digest over the reports of every command, in command order."""
        h = hashlib.sha256()
        for i in range(self.n_ops):
            h.update(str(signatures.get(i)).encode())
        return h.hexdigest()


class WpEval(Workload):
    """Direct wp_both calls at batch sizes 1, 40 and 10k on 32 lattices."""

    name = "wp-eval"
    N_TAUS = 32
    BATCHES = (1, 40, 10_000)
    CHECKED = 4  # leading points of each batch compared with the oracle

    def __init__(self, seed: int):
        super().__init__(seed)
        self.taus = random_taus(self.rng, self.N_TAUS)
        self.batches = []
        for k, tau in enumerate(self.taus):
            for size in self.BATCHES:
                z = cell_points(self.rng, tau, size)
                self.batches.append((k, complex(z[0]) if size == 1 else z))
        self.cycle = len(self.batches)
        self.refs = None

    @property
    def n_ops(self) -> int:
        return len(self.batches)

    def build(self) -> None:
        self.lattices = [lattice.Lattice(t) for t in self.taus]

    def call(self, i: int):
        k, z = self.batches[i]
        return elliptic.wp_both(z, self.lattices[k])

    def check(self, i: int, raw) -> Outcome:
        wp, wpp = raw
        _, z = self.batches[i]
        n = min(np.size(z), self.CHECKED)
        ok = np.shape(wp) == np.shape(z) and bool(np.all(np.isfinite(wp)))
        err = self.refs[i].error(np.atleast_1d(wp)[:n], np.atleast_1d(wpp)[:n])
        ok = ok and err <= WP_TOL
        return Outcome(ok, ok, math.log10(WP_TOL) + digits(err))

    def oracle_refs(self) -> list:
        if self.refs is None:
            self.refs = [
                Reference(self.taus[k], np.atleast_1d(z)[: self.CHECKED])
                for k, z in self.batches
            ]
        return self.refs


WORKLOADS = {w.name: w for w in (Catalog, ModuliSweep, Cli, WpEval)}
