"""Command-line interface.

Subcommands: catalog, classify, constants, eval, verify.  Reports are
emitted as structured text with a stable key schema (or JSON with
--json); complex numbers appear as [re, im] pairs.  All sampling is
seeded, so equal configurations produce byte-identical reports.

Exit status: 0 all checks passed, 1 verification failure, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .classify import cross_validate
from .elliptic import invariants
from .funcalg import c2c2_constants, fit_lambda_mu, torus_distance
from .lattice import Lattice, ScaledLattice, TorsionPoint
from .normalform import (
    BRACKET_SAMPLES, _h_projection, invariance_residual, normal_form, verify_brackets,
)
from .sl2rep import bracket
from .torusgroup import GroupEmbedding, UnsupportedEmbeddingError, catalog, make_embedding

__all__ = ["RunConfig", "main"]

_GROUP_NAMES = {
    "cn": "CN_translation",
    "rot": "Cl_rotation",
    "dn": "DN",
    "c2c2": "C2xC2_translation",
    "a4": "A4",
}


@dataclass
class RunConfig:
    tau: complex
    group: str = "cn"
    order: int = 2
    torsion: tuple[int, int, int] | None = None
    char_j: int = 1
    tol: float = 1e-7
    trunc: int | None = None
    samples: int = BRACKET_SAMPLES
    seed: int = 0
    as_json: bool = False
    out: str | None = None
    perturb: float = 0.0


def _default_tol() -> float:
    env = os.environ.get("TORUSLIE_TOL")
    return float(env) if env else 1e-7


def _cx(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _jsonable(obj):
    if isinstance(obj, complex):
        return _cx(obj)
    if isinstance(obj, (np.complexfloating,)):
        return _cx(complex(obj))
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(report: dict, cfg: RunConfig) -> None:
    report = _jsonable(report)
    if cfg.as_json:
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
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _embedding(cfg: RunConfig) -> GroupEmbedding:
    lattice = Lattice(cfg.tau)
    kind = _GROUP_NAMES[cfg.group]
    shift = None
    if cfg.torsion is not None:
        a, b, n = cfg.torsion
        shift = TorsionPoint(a, b, n)
    return make_embedding(lattice, kind, cfg.order, shift)


def cmd_catalog(cfg: RunConfig) -> int:
    lattice = Lattice(cfg.tau)
    entries = []
    for emb in catalog(lattice):
        entries.append(
            {
                "kind": emb.kind,
                "order_param": emb.order_param,
                "group_order": emb.order,
            }
        )
    _emit({"command": "catalog", "tau": cfg.tau, "entries": entries}, cfg)
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    emb = _embedding(cfg)
    cv = cross_validate(emb, cfg.char_j, seed=cfg.seed)
    cls = cv.classification
    report = {
        "command": "classify",
        "config": _config_dict(cfg),
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
            "notes": list(cv.notes),
            "passed": cv.passed,
        },
    }
    _emit(report, cfg)
    return 0 if cv.passed else 1


def cmd_constants(cfg: RunConfig) -> int:
    lattice = Lattice(cfg.tau)
    inv = invariants(lattice, cfg.trunc)
    report = {
        "command": "constants",
        "config": _config_dict(cfg),
        "g2": inv.g2,
        "g3": inv.g3,
        "e1": inv.e1,
        "e2": inv.e2,
        "e3": inv.e3,
        "discriminant": inv.discriminant,
        "j": inv.j,
    }
    if cfg.group == "c2c2":
        cc = c2c2_constants(lattice)
        report["c2c2"] = {
            "alpha1": cc.alpha1,
            "alpha2": cc.alpha2,
            "beta1": cc.beta1,
            "beta2": cc.beta2,
            "A1": cc.A1,
            "B1": cc.B1,
            "sqrt_alpha2_beta2": cc.sqrt_a2b2,
        }
    if cfg.group in ("cn", "dn") and cfg.order >= 2:
        emb = _embedding(cfg)
        try:
            lam, mu = fit_lambda_mu(emb, cfg.char_j, seed=cfg.seed, tol=cfg.tol)
            report["lambda"] = lam
            report["mu"] = mu
        except ValueError:
            report["lambda"] = None
            report["mu"] = None
    _emit(report, cfg)
    return 0


def cmd_eval(cfg: RunConfig, z: complex) -> int:
    emb = _embedding(cfg)
    gens = normal_form(emb, j=cfg.char_j)
    slat = ScaledLattice(emb.tau)
    if np.any(torus_distance(z, np.asarray(gens.poles), slat) < 1e-8):
        raise ValueError(f"evaluation point {z} is on the pole divisor")
    e, f, h = gens.E(z), gens.F(z), gens.H(z)
    comm = bracket(e, f)
    p_point = _h_projection(comm, h)
    report = {
        "command": "eval",
        "config": _config_dict(cfg),
        "z": z,
        "E": _mat(e),
        "F": _mat(f),
        "H": _mat(h),
        "bracket_residual": float(np.max(np.abs(comm - p_point * h))),
    }
    # the map the frames were built from: no second lambda/mu fit
    if gens.intertwiner is not None:
        name = "Psi" if emb.kind in ("C2xC2_translation", "A4") else "Phi"
        report[name] = _mat(gens.intertwiner(z))
    _emit(report, cfg)
    return 0


def _mat(m: np.ndarray) -> list:
    return [[complex(v) for v in row] for row in np.asarray(m)]


def cmd_verify(cfg: RunConfig) -> int:
    emb = _embedding(cfg)
    # cross_validate fits the structure polynomial on the unperturbed
    # triple; --perturb-f then scales F of that triple against it
    cv = cross_validate(emb, cfg.char_j, seed=cfg.seed)
    gens = cv.triple
    if cfg.perturb:
        f0 = gens.F.fn
        factor = 1.0 + cfg.perturb
        gens.F.fn = lambda z: factor * f0(z)
    if cfg.perturb or cfg.samples != BRACKET_SAMPLES:
        br = verify_brackets(gens, cfg.samples, seed=cfg.seed + 1)
    else:
        # the triple, seed and probes of cross_validate's bracket check
        br = cv.bracket_residuals
    inv_res = invariance_residual(gens, max(20, cfg.samples // 2), seed=cfg.seed + 2)
    checks = {
        "he": br["he"] < cfg.tol,
        "hf": br["hf"] < cfg.tol,
        "ef": br["ef"] < cfg.tol,
        "ef_fit": br.get("ef_fit", 0.0) < max(cfg.tol, 1e-6),
        "invariance": inv_res < max(cfg.tol, 1e-8),
        "classification": cv.passed,
    }
    report = {
        "command": "verify",
        "config": _config_dict(cfg),
        "bracket_residuals": br,
        "invariance_residual": inv_res,
        "kind": cv.classification.kind,
        "checks": checks,
        "passed": all(checks.values()),
    }
    _emit(report, cfg)
    return 0 if report["passed"] else 1


def _config_dict(cfg: RunConfig) -> dict:
    return {
        "tau": cfg.tau,
        "group": cfg.group,
        "order": cfg.order,
        "torsion": list(cfg.torsion) if cfg.torsion else None,
        "char_j": cfg.char_j,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "samples": cfg.samples,
    }


def _parse_torsion(text: str) -> tuple[int, int, int]:
    parts = text.split("/")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("torsion must be given as a/b/n")
    return int(parts[0]), int(parts[1]), int(parts[2])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    ap = argparse.ArgumentParser(
        prog="toruslie",
        description="equivariant sl2-valued elliptic function algebras: "
        "catalog, classification and verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("catalog", "classify", "constants", "eval", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--tau-re", type=float, default=0.0)
        p.add_argument("--tau-im", type=float, default=1.0)
        p.add_argument("--group", choices=sorted(_GROUP_NAMES), default="cn")
        p.add_argument("--order", type=int, default=2, help="N for cn/dn, l for rot")
        p.add_argument("--torsion", type=_parse_torsion, default=None, metavar="a/b/n")
        p.add_argument("--char-j", type=int, default=1)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--samples", type=int, default=BRACKET_SAMPLES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)
        if name == "constants":
            p.add_argument("--trunc", type=int, default=None, help="series terms for the invariants")
        if name == "eval":
            p.add_argument("--z-re", type=float, default=0.23)
            p.add_argument("--z-im", type=float, default=0.31)
        if name == "verify":
            p.add_argument(
                "--perturb-f",
                type=float,
                default=0.0,
                help="scale F by (1 + value) after fitting; negative control",
            )
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        tau=complex(args.tau_re, args.tau_im),
        group=args.group,
        order=args.order,
        torsion=args.torsion,
        char_j=args.char_j,
        tol=args.tol if args.tol is not None else _default_tol(),
        trunc=getattr(args, "trunc", None),
        samples=args.samples,
        seed=args.seed,
        as_json=args.json,
        out=args.out,
        perturb=getattr(args, "perturb_f", 0.0),
    )
    try:
        if args.command == "catalog":
            return cmd_catalog(cfg)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "constants":
            return cmd_constants(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, complex(args.z_re, args.z_im))
        if args.command == "verify":
            return cmd_verify(cfg)
        raise AssertionError(args.command)
    except (ValueError, UnsupportedEmbeddingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
