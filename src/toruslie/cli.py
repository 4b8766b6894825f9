"""Command-line interface.

Subcommands: catalog, classify, constants, eval, verify.  Reports are
emitted as structured text with a stable key schema (or JSON with
--json); complex numbers appear as [re, im] pairs.  All sampling is
seeded, so equal configurations produce byte-identical reports.

Each subcommand accepts only the flags it reads (_COMMANDS), every
float flag must be finite and --tol above 0; its value may follow it as
its own word, a negative one in exponent form included.  --order and
--char-j default to 2 and 1; c2c2 and a4 take neither, nor constants
--char-j, --tol or --seed but for cn and dn at --order 2 and up.  Exit
status: 0 all checks passed, 1 verification failure, 2 usage or domain
error, including a fit that fails, a group the lattice does not carry
and, for every command, a character index not coprime to the order;
constants instead reports a failed lambda/mu fit (FitError), or a fitted
pair off the closed form by more than --tol, as null lambda and mu.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .classify import BRACKET_TOL, FIT_TOL, INVARIANCE_TOL, cross_validate
from .elliptic import half_period_values, invariants
from .funcalg import FitError, c2c2_constants_for, fit_lambda_mu, lambda_mu, p_system
from .funcalg import torus_distance
from .lattice import Lattice, TorsionPoint, fold_far
from .normalform import BRACKET_SAMPLES, _h_projection, check_triple, normal_form
from .sl2rep import bracket
from .torusgroup import GroupEmbedding, catalog, make_embedding

__all__ = ["main"]

_GROUP_NAMES = {
    "cn": "CN_translation",
    "rot": "Cl_rotation",
    "dn": "DN",
    "c2c2": "C2xC2_translation",
    "a4": "A4",
}


def _cx(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _jsonable(obj):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return _cx(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(report: dict, args: argparse.Namespace) -> None:
    report = _jsonable(report)
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    else:
        lines = []

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    walk(f"{prefix}{k}.", obj[k])
            elif isinstance(obj, list) and len(obj) == 2 and all(
                isinstance(v, float) for v in obj
            ):
                lines.append(f"{prefix[:-1]}: [{obj[0]:.12e}, {obj[1]:.12e}]")
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    walk(f"{prefix}{i}.", v)
            elif isinstance(obj, float):
                lines.append(f"{prefix[:-1]}: {obj:.12e}")
            else:
                lines.append(f"{prefix[:-1]}: {obj}")

        walk("", report)
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _embedding(args: argparse.Namespace) -> GroupEmbedding:
    shift = None if args.torsion is None else TorsionPoint(*args.torsion)
    return make_embedding(Lattice(args.tau), _GROUP_NAMES[args.group], args.order, shift)


def cmd_catalog(args: argparse.Namespace) -> int:
    entries = [
        {"kind": emb.kind, "order_param": emb.order_param, "group_order": emb.order}
        for emb in catalog(Lattice(args.tau))
    ]
    _emit({"command": "catalog", "tau": args.tau, "entries": entries}, args)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    emb = _embedding(args)
    cv = cross_validate(emb, args.char_j, seed=args.seed)
    cls = cv.classification
    report = {
        "command": "classify",
        "config": _config_dict(args),
        "kind": cls.kind,
        "branch_count": cls.branch_count,
        "tau_class": None if cls.tau_class is None else cls.tau_class.tau_reduced,
        "j_invariant": cls.j_invariant,
        "caveat": cls.caveat,
        "cross_validation": {
            "bracket_residuals": cv.bracket_residuals,
            "invariance_residual": cv.invariance,
            "abelianization_dim": cv.abel_dim,
            "checks": cv.checks,
            "passed": cv.passed,
        },
    }
    _emit(report, args)
    return 0 if cv.passed else 1


def cmd_constants(args: argparse.Namespace) -> int:
    """Invariants of the lattice, the C2xC2 constants, and the lambda, mu of
    the order-N P-system, fitted; phi takes its own in closed form, for even
    N on the 2N cover.  Where 2j != 0 mod N, a fit off the order-N closed
    form by more than --tol (relative to max(1, |closed form|)) is nulled."""
    emb = _embedding(args)
    report = {
        "command": "constants",
        "config": _config_dict(args),
        **dataclasses.asdict(invariants(emb.lattice)),
        **dict(zip(("e1", "e2", "e3"), half_period_values(emb.lattice))),
    }
    if args.group == "c2c2":
        cc = dataclasses.asdict(c2c2_constants_for(emb))
        cc["sqrt_alpha2_beta2"] = cc.pop("sqrt_a2b2")
        report["c2c2"] = cc
    if args.group in ("cn", "dn") and args.order >= 2:
        # the invariants above do not depend on the fit: a failed fit nulls lambda,
        # mu, as does one off the closed form (its residual does not bound them)
        try:
            ps = p_system(emb)
            lam, mu = fit_lambda_mu(ps, args.char_j, seed=args.seed, tol=args.tol)
            exact = lambda_mu(ps, args.char_j) if (2 * args.char_j) % ps.n else (lam, mu)
            if any(abs(a - b) > args.tol * max(1.0, abs(b)) for a, b in zip((lam, mu), exact)):
                lam = mu = None
        except FitError:
            lam = mu = None
        report["lambda"], report["mu"] = lam, mu
    _emit(report, args)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    z = complex(args.z_re, args.z_im)
    emb = _embedding(args)
    gens = normal_form(emb, j=args.char_j)
    if np.any(torus_distance(fold_far(z, emb.lattice), np.asarray(gens.poles), emb.lattice) < 1e-8):
        raise ValueError(f"evaluation point {z} is on the pole divisor")
    e, f, h = gens.E(z), gens.F(z), gens.H(z)
    comm = bracket(e, f)
    p_point = _h_projection(comm, h)
    report = {
        "command": "eval",
        "config": _config_dict(args),
        "z": z,
        "E": _mat(e),
        "F": _mat(f),
        "H": _mat(h),
        "bracket_residual": float(np.max(np.abs(comm - p_point * h))),
    }
    # the map the frames were built from: no second lambda, mu
    if gens.intertwiner is not None:
        name = "Psi" if emb.kind in ("C2xC2_translation", "A4") else "Phi"
        report[name] = _mat(gens.intertwiner(z))
    _emit(report, args)
    return 0


def _mat(m: np.ndarray) -> list:
    return [[complex(v) for v in row] for row in np.asarray(m)]


def cmd_verify(args: argparse.Namespace) -> int:
    emb = _embedding(args)
    # cross_validate checks the unperturbed triple; --perturb-f then scales
    # F of that triple, which ef_exact, against the exact p, must catch
    cv = cross_validate(emb, args.char_j, seed=args.seed)
    gens = cv.triple
    if args.perturb_f:
        f0 = gens.F.fn
        factor = 1.0 + args.perturb_f
        gens.F.fn = lambda z: factor * f0(z)
    if args.perturb_f or args.samples != BRACKET_SAMPLES:
        br, inv_res = check_triple(gens, args.samples, seed=args.seed)
    else:
        # the triple, seeds and probes of cross_validate's checks
        br, inv_res = cv.bracket_residuals, cv.invariance
    checks = {
        "he": br["he"] < args.tol,
        "hf": br["hf"] < args.tol,
        "ef": br["ef"] < args.tol,
        "ef_exact": br["ef_exact"] < max(args.tol, FIT_TOL),
        "invariance": inv_res < max(args.tol, INVARIANCE_TOL),
        "classification": cv.passed,
    }
    report = {
        "command": "verify",
        "config": _config_dict(args),
        "bracket_residuals": br,
        "invariance_residual": inv_res,
        "kind": cv.classification.kind,
        "checks": checks,
        "passed": all(checks.values()),
    }
    _emit(report, args)
    return 0 if report["passed"] else 1


def _config_dict(args: argparse.Namespace) -> dict:
    """The run's parameters, as far as its command reads them."""
    config = {
        "tau": args.tau,
        "group": args.group,
        "order": args.order,
        "torsion": list(args.torsion) if args.torsion else None,
        "char_j": args.char_j,
    }
    config.update({k: getattr(args, k) for k in ("tol", "seed", "samples") if k in args})
    return config


def _finite(text: str) -> float:
    """The value of a float flag; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive(text: str) -> float:
    """The value of --tol: finite, and above 0."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _parse_torsion(text: str) -> tuple[int, int, int]:
    parts = text.split("/")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("torsion must be given as a/b/n")
    return int(parts[0]), int(parts[1]), int(parts[2])


#: every flag, declared once, in the order --help lists them
_FLAGS = {
    "--tau-re": dict(type=_finite, default=0.0),
    "--tau-im": dict(type=_finite, default=1.0),
    "--group": dict(choices=sorted(_GROUP_NAMES), default="cn"),
    "--order": dict(type=int, default=None, help="N for cn/dn, l for rot"),
    "--torsion": dict(type=_parse_torsion, default=None, metavar="a/b/n"),
    "--char-j": dict(type=int, default=None),
    "--tol": dict(type=_positive, default=None),
    "--samples": dict(type=int, default=BRACKET_SAMPLES),
    "--seed": dict(type=int, default=None),
    "--json": dict(action="store_true"),
    "--out": dict(default=None),
    "--z-re": dict(type=_finite, default=0.23),
    "--z-im": dict(type=_finite, default=0.31),
    "--perturb-f": dict(
        type=_finite, default=0.0, help="scale F by (1 + value) after the checks; negative control"
    ),
}
_FLOAT_FLAGS = {flag for flag, spec in _FLAGS.items() if spec.get("type") in (_finite, _positive)}
_COMMON = {"--tau-re", "--tau-im", "--json", "--out"}
_EMBEDDING = {"--group", "--order", "--torsion", "--char-j"}
#: the values of flags not given; each is an error where unread: --order and --char-j
#: for c2c2 and a4, and --char-j, --tol and --seed of constants but for cn and dn at order >= 2
_DEFAULTS = {"order": 2, "char_j": 1, "tol": BRACKET_TOL, "seed": 0}
#: each command and the flags it reads besides _COMMON; it accepts no other
_COMMANDS = {
    "catalog": (cmd_catalog, set()),
    "classify": (cmd_classify, _EMBEDDING | {"--seed"}),
    "constants": (cmd_constants, _EMBEDDING | {"--tol", "--seed"}),
    "eval": (cmd_eval, _EMBEDDING | {"--z-re", "--z-im"}),
    "verify": (cmd_verify, _EMBEDDING | {"--tol", "--samples", "--seed", "--perturb-f"}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    ap = argparse.ArgumentParser(
        prog="toruslie",
        description="equivariant sl2-valued elliptic function algebras: "
        "catalog, classification and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, spec in _FLAGS.items():
            if flag in _COMMON or flag in flags:
                p.add_argument(flag, **spec)
    return ap


def _join_float_values(argv: list) -> list:
    """argv with each float flag and the word after it joined as flag=value.

    argparse takes a word such as -1e-3 or -inf for an option, since only
    words such as -0.001 count as negative numbers; joined, every value
    reaches the flag's type check.
    """
    out = []
    words = iter(argv)
    for word in words:
        value = next(words, None) if word in _FLOAT_FLAGS else None
        out.append(word if value is None else f"{word}={value}")
    return out


def _fill_defaults(args: argparse.Namespace) -> None:
    kind, flag = _GROUP_NAMES[args.group], lambda name: "--" + name.replace("_", "-")
    for name in ("order", "char_j") if args.group in ("c2c2", "a4") else ():
        if getattr(args, name) is not None:
            raise ValueError(f"{kind} takes no {flag(name)}")
    order = _DEFAULTS["order"] if args.order is None else args.order
    given = [flag(n) for n in ("char_j", "tol", "seed") if getattr(args, n, None) is not None]
    if args.command == "constants" and given and not (args.group in ("cn", "dn") and order >= 2):
        at = "" if args.group in ("c2c2", "a4") else f" at --order {order}"
        raise ValueError(f"constants of {kind}{at} read no {', '.join(given)}")
    for name, default in _DEFAULTS.items():
        if getattr(args, name, default) is None:
            setattr(args, name, default)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_float_values(argv))
    args.tau = complex(args.tau_re, args.tau_im)
    try:
        if "group" in args:
            _fill_defaults(args)
        return _COMMANDS[args.command][0](args)
    except (ValueError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
