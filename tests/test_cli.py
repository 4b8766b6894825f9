import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from toruslie import intertwine
from toruslie.classify import BRACKET_TOL, cross_validate
from toruslie.elliptic import invariants
from toruslie.funcalg import FitError, fit_lambda_mu, lambda_mu, p_system
from toruslie.cli import main
from toruslie.normalform import invariance_residual, verify_brackets
from toruslie.intertwine import phi
from toruslie.lattice import Lattice, TorsionPoint
from toruslie.torusgroup import cn_translation, dn_group
from test_elliptic import invariants_route_e

HEX = math.sqrt(3.0) / 2.0
#: (--tau-re, --tau-im) of the square, hexagonal and generic lattices
_SQ, _HX, _GN = ("0.0", "1.0"), ("0.5", repr(HEX)), ("0.31", "1.07")
nf_module = importlib.import_module("toruslie.normalform")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCatalog:
    def test_square_lists_order_four_rotation(self, capsys):
        rc, out, _ = run(capsys, "catalog", "--tau-re", "0", "--tau-im", "1")
        assert rc == 0
        assert "Cl_rotation" in out and "order_param: 4" in out

    def test_hexagonal_lists_a4(self, capsys):
        rc, out, _ = run(capsys, "catalog", "--tau-re", "0.5", "--tau-im", str(HEX))
        assert rc == 0
        assert "A4" in out

    def test_generic_omits_specials(self, capsys):
        rc, out, _ = run(
            capsys, "catalog", "--tau-re", "0.37", "--tau-im", "1.2", "--json"
        )
        assert rc == 0
        doc = json.loads(out)
        kinds = {(e["kind"], e["order_param"]) for e in doc["entries"]}
        assert not any(k == "A4" for k, _ in kinds)
        assert ("Cl_rotation", 4) not in kinds
        assert ("Cl_rotation", 3) not in kinds

    def test_bad_tau_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "catalog", "--tau-re", "0", "--tau-im", "-1")
        assert rc == 2
        assert "error" in err


# the lattices and seeds of TestDihedralOne
_D1_LATTICES = [("0", "1"), ("0.5", repr(HEX)), ("0.31", "1.07"), ("0", "2.5")]


class TestDihedralOne:
    """D_1 is the flip z -> -z alone, the group of rot2: its constant frames
    are the columns of ad([[1, 1], [1, -1]]), which the flip maps to
    (h, -e, -f), so both commands certify it and report rot2's class."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("lat", _D1_LATTICES, ids=[f"{a}+{b}i" for a, b in _D1_LATTICES])
    def test_certified_with_the_class_of_rot2(self, capsys, lat, seed):
        where = ("--tau-re", lat[0], "--tau-im", lat[1], "--seed", str(seed), "--json")
        rc, out, _ = run(capsys, "classify", "--group", "dn", "--order", "1", *where)
        assert rc == 0
        doc = json.loads(out)
        assert doc["cross_validation"]["invariance_residual"] < 1e-12
        _, ref, _ = run(capsys, "classify", "--group", "rot", "--order", "2", *where)
        rot2 = json.loads(ref)
        for key in ("kind", "branch_count", "tau_class", "j_invariant"):
            assert doc[key] == rot2[key]
        rc, out, _ = run(capsys, "verify", "--group", "dn", "--order", "1", *where)
        assert rc == 0
        assert json.loads(out)["invariance_residual"] < 1e-12


class TestClassify:
    def test_d5_is_twisted_family(self, capsys):
        rc, out, _ = run(
            capsys, "classify", "--group", "dn", "--order", "5",
            "--tau-re", "0.2", "--tau-im", "1.3", "--json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "SFamily"
        assert doc["branch_count"] == 3
        assert doc["cross_validation"]["passed"]

    def test_c7_translation_is_current_algebra(self, capsys):
        rc, out, _ = run(
            capsys, "classify", "--group", "cn", "--order", "7",
            "--tau-re", "0.31", "--tau-im", "1.07", "--json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "CurrentAlgebra"

    def test_unsupported_embedding_is_usage_error(self, capsys):
        rc, _, err = run(
            capsys, "classify", "--group", "a4", "--tau-re", "0.31", "--tau-im", "1.07"
        )
        assert rc == 2


class TestConstants:
    def test_square_g3_vanishes(self, capsys):
        rc, out, _ = run(capsys, "constants", "--tau-re", "0", "--tau-im", "1", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert abs(complex(*doc["g3"])) < 1e-10

    @pytest.mark.parametrize("tau", [_SQ, _HX, _GN, ("7.3", "0.2"), ("-2.85", "0.83")],
                             ids=["square", "hex", "generic", "flat", "skewed"])
    def test_printed_half_period_values(self, capsys, tau):
        # e1..e3 as the report prints them, bit for bit those of the route
        # invariants took while they were its fields
        rc, out, _ = run(capsys, "constants", "--tau-re", tau[0], "--tau-im", tau[1], "--json")
        assert rc == 0
        doc = json.loads(out)
        got = [complex(*doc[k]) for k in ("e1", "e2", "e3")]
        want = invariants_route_e(Lattice(complex(float(tau[0]), float(tau[1]))))
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_hexagonal_alpha1(self, capsys):
        rc, out, _ = run(
            capsys, "constants", "--group", "c2c2",
            "--tau-re", "0.5", "--tau-im", str(HEX), "--json",
        )
        doc = json.loads(out)
        w3 = complex(-0.5, math.sqrt(3) / 2)
        assert abs(complex(*doc["c2c2"]["alpha1"]) - w3) < 1e-9

    def test_lambda_mu_reported_for_cn(self, capsys):
        rc, out, _ = run(
            capsys, "constants", "--group", "cn", "--order", "5",
            "--tau-re", "0.31", "--tau-im", "1.07", "--json",
        )
        doc = json.loads(out)
        assert abs(complex(*doc["mu"])) > 1e-9

    @pytest.mark.parametrize(
        "build, n", [(cn_translation, 3), (cn_translation, 5), (dn_group, 5),
                     (cn_translation, 4), (dn_group, 4), (cn_translation, 6)],
        ids=["cn3", "cn5", "dn5", "cn4", "dn4", "cn6"],
    )
    def test_lambda_mu_source(self, capsys, build, n):
        # constants fits lambda and mu on the order-N P-system of the
        # lattice; phi, and so eval and every C_N/D_N frame, takes them in
        # closed form, on the order-2N cover when N is even.  For odd N the
        # two routes agree within the fit's tol
        group = "cn" if build is cn_translation else "dn"
        rc, out, _ = run(
            capsys, "constants", "--group", group, "--order", str(n),
            "--tau-re", "0.31", "--tau-im", "1.07", "--json",
        )
        assert rc == 0
        doc = json.loads(out)
        got = (complex(*doc["lambda"]), complex(*doc["mu"]))
        emb = build(Lattice(complex(0.31, 1.07)), n)
        meta = phi(emb).meta
        if n % 2:
            tol = BRACKET_TOL  # the --tol default, which constants passes to the fit
            assert abs(got[0] - meta["lam"]) <= tol * max(1.0, abs(meta["lam"]))
            assert abs(got[1] - meta["mu"]) <= tol * max(1.0, abs(meta["mu"]))
        else:
            assert got == fit_lambda_mu(p_system(emb), 1)
            assert abs(got[0] - meta["lam"]) > 1.0 and abs(got[1] - meta["mu"]) > 1.0


class TestClosureBound:
    @pytest.mark.parametrize("command", ["classify", "verify", "eval", "constants"])
    @pytest.mark.parametrize("group, order", [("cn", "201"), ("dn", "101")])
    def test_past_the_bound_is_a_domain_error(self, capsys, command, group, order):
        rc, out, err = run(capsys, command, "--group", group, "--order", order)
        assert rc == 2
        assert out == ""
        assert err == "error: group order exceeds the closure bound 200\n"


class TestEval:
    def test_outputs_traceless_matrices(self, capsys):
        rc, out, _ = run(
            capsys, "eval", "--group", "cn", "--order", "3",
            "--tau-re", "0.31", "--tau-im", "1.07", "--json",
        )
        assert rc == 0
        doc = json.loads(out)
        for key in ("E", "F", "H"):
            m = doc[key]
            tr = complex(*m[0][0]) + complex(*m[1][1])
            assert abs(tr) < 1e-10
        phi = doc["Phi"]
        det = complex(*phi[0][0]) * complex(*phi[1][1]) - complex(*phi[0][1]) * complex(
            *phi[1][0]
        )
        assert abs(det - 1) < 1e-8

    def test_reports_the_phi_its_frames_use(self, capsys, monkeypatch):
        # E, F and H are built on the closed-form lambda, mu of normal_form;
        # the reported Phi is that map, from that single evaluation
        intertwine._phi_data.cache_clear()
        calls = []
        closed = intertwine.lambda_mu
        monkeypatch.setattr(
            intertwine, "lambda_mu", lambda *a, **kw: calls.append(a) or closed(*a, **kw)
        )
        rc, out, _ = run(capsys, "eval", "--group", "cn", "--order", "3", "--json")
        assert rc == 0
        assert len(calls) == 1
        doc = json.loads(out)
        got = np.array([[complex(*v) for v in row] for row in doc["Phi"]])
        expect = phi(cn_translation(Lattice(1j), 3), 1)(complex(*doc["z"]))
        assert got.tobytes() == expect.tobytes()

    def test_tall_rotation_takes_no_invariants(self, capsys):
        # j of Lattice(130i) overflows float64, so invariants raises there;
        # eval builds and evaluates the triple without them
        with pytest.raises(ValueError, match="overflows"):
            invariants(Lattice(130j))
        rc, out, err = run(capsys, "eval", "--group", "rot", "--order", "2", "--tau-re", "0", "--tau-im", "130")
        assert rc == 0 and err == ""
        assert re.search(r"^E\.0\.1: ", out, re.M)

    def test_pole_proximity_rejected(self, capsys):
        rc, _, err = run(
            capsys, "eval", "--group", "cn", "--order", "3",
            "--tau-re", "0.31", "--tau-im", "1.07",
            "--z-re", "0", "--z-im", "0",
        )
        assert rc == 2

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    def test_lattice_point_rejected(self, capsys, fmt):
        # z = 1 is the origin of the torus modulo the lattice
        rc, out, err = run(
            capsys, "eval", "--group", "cn", "--order", "3",
            "--z-re", "1", "--z-im", "0", *fmt,
        )
        assert rc == 2
        assert out == ""
        assert "pole divisor" in err

    @pytest.mark.parametrize("group", [("cn", "--order", "3"), ("dn", "--order", "4"), ("c2c2",)],
                             ids=["cn3", "dn4", "c2c2"])
    def test_far_point_prints_the_cell_values(self, capsys, group):
        # 1e8 and 1e17 are periods of the square lattice: E, F, H and the
        # intertwiner there equal their values at z = 0.31i bit for bit
        def matrices(z_re):
            rc, out, _ = run(capsys, "eval", "--group", *group, "--z-re", z_re)
            assert rc == 0
            return [line for line in out.splitlines() if re.match(r"(E|F|H|Phi|Psi)\.", line)]

        at_zero = matrices("0")
        assert len(at_zero) == (21 if group == ("c2c2",) else 16)
        for z_re in ("1e8", "1e17"):
            assert matrices(z_re) == at_zero

    @pytest.mark.parametrize(
        "group",
        [("rot", "--order", "3"), ("rot", "--order", "6"), ("a4",),
         ("cn", "--order", "3", "--torsion", "0/1/3")],
        ids=["rot3", "rot6", "a4", "cn3-tau/3"],
    )
    def test_far_point_on_the_hexagonal_lattice(self, capsys, group):
        # on a lattice with Re(tau) != 0 a huge Re z would absorb t Re(tau):
        # the ring factors would be evaluated, and the pole check made, at
        # t tau; here that is the pole tau/3 of cn 3 with shift tau/3
        def lines(z_re):
            rc, out, _ = run(capsys, "eval", "--group", *group, "--tau-re", "0.5",
                             "--tau-im", repr(HEX), f"--z-re={z_re}", "--z-im", repr(HEX / 3))
            assert rc == 0
            return [line for line in out.splitlines() if not line.startswith("z")]

        at_zero = lines("0")
        for z_re in ("1e8", "1e17", "-1e17"):
            assert lines(z_re) == at_zero


class TestVerify:
    def test_default_passes(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--group", "dn", "--order", "3",
            "--tau-re", "0.31", "--tau-im", "1.07",
        )
        assert rc == 0
        assert "passed: True" in out

    def test_unattainable_tolerance_fails(self, capsys):
        rc, _, _ = run(
            capsys, "verify", "--group", "cn", "--order", "3", "--tol", "1e-20"
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "group, order, lat",
        [("cn", "3", _GN), ("dn", "4", _GN), ("c2c2", None, _GN), ("rot", "2", _GN),
         ("a4", None, _HX), ("rot", "3", _HX), ("rot", "6", _HX)],
        ids=["cn3", "dn4", "c2c2", "rot2", "a4", "rot3", "rot6"],
    )
    def test_negative_control_fails_as_designed(self, capsys, group, order, lat):
        # F scaled by 1.01 is still invariant and an sl2 triple up to
        # scale: only ef_exact, against the exact p, catches it
        argv = ("verify", "--group", group, "--tau-re", lat[0], "--tau-im", lat[1])
        argv += ("--order", order) if order else ()
        rc, out, _ = run(capsys, *argv, "--perturb-f", "0.01", "--json")
        assert rc == 1
        assert [k for k, ok in json.loads(out)["checks"].items() if not ok] == ["ef_exact"]
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_samples_below_one_is_a_usage_error(self, capsys, samples):
        rc, out, err = run(capsys, "verify", "--group", "cn", "--order", "3", "--samples", samples)
        assert rc == 2 and out == ""
        assert err == f"error: need at least one sample point, got {samples}\n"

    def test_builds_the_normal_form_once(self, capsys, monkeypatch):
        # the package re-exports a function named classify over the module
        cv_module = importlib.import_module("toruslie.classify")
        cli_module = importlib.import_module("toruslie.cli")
        built = []
        original = cv_module.normal_form

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cv_module, "normal_form", counting)
        monkeypatch.setattr(cli_module, "normal_form", counting)
        rc, _, _ = run(
            capsys, "verify", "--group", "dn", "--order", "3",
            "--tau-re", "0.31", "--tau-im", "1.07",
        )
        assert rc == 0
        assert len(built) == 1

    def test_reports_are_deterministic(self, capsys):
        args = (
            "verify", "--group", "c2c2", "--tau-re", "0.31", "--tau-im", "1.07",
            "--seed", "3", "--json",
        )
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestPlumbing:
    def test_torsion_flag(self, capsys):
        # translation by tau/2 on the square torus: quotient class is
        # (1 + i)/2 ~ reduce to the arc
        rc, out, _ = run(
            capsys, "classify", "--group", "cn", "--order", "2",
            "--torsion", "0/1/2", "--tau-re", "0", "--tau-im", "1", "--json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "CurrentAlgebra"

    def test_parser_is_built_once(self, capsys):
        cli_module = importlib.import_module("toruslie.cli")
        args = ("classify", "--group", "dn", "--order", "3", "--json")
        cli_module._build_parser.cache_clear()
        first = run(capsys, *args)
        cli_module._build_parser.cache_clear()
        run(capsys, "verify", "--group", "cn", "--order", "3", "--perturb-f", "0.5")
        after_verify = run(capsys, *args)
        assert first == after_verify
        assert first[0] == 0
        assert cli_module._build_parser() is cli_module._build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--group", "rot", "--order", "2"),
            ("classify", "--group", "c2c2"),
            ("classify", "--group", "a4", "--tau-re", "0.5", "--tau-im", repr(HEX)),
            ("constants", "--group", "c2c2"),
            ("constants", "--group", "rot", "--order", "2"),
        ],
        ids=["rot", "c2c2", "a4", "constants-c2c2", "constants-rot"],
    )
    def test_torsion_the_group_cannot_take(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--torsion", "1/0/2")
        assert rc == 2 and out == ""
        assert "takes no torsion shift" in err

    @pytest.mark.parametrize("command", ["classify", "verify", "eval", "constants"])
    @pytest.mark.parametrize("group, kind", [("c2c2", "C2xC2_translation"), ("a4", "A4")])
    @pytest.mark.parametrize(
        "flag, value", [("--order", "7"), ("--order", "-3"), ("--order", "2"), ("--char-j", "2"),
                        ("--char-j", "1")],
    )
    def test_order_or_character_the_group_has_not(self, capsys, command, group, kind, flag, value):
        # c2c2 and a4 read neither flag: given, even at its default, it is
        # an error, not a value echoed in config
        rc, out, err = run(capsys, command, "--group", group, "--tau-re", _HX[0], "--tau-im", _HX[1],
                           flag, value)
        assert (rc, out) == (2, "")
        assert err == f"error: {kind} takes no {flag}\n"

    @pytest.mark.parametrize("command", ["classify", "verify", "eval", "constants"])
    @pytest.mark.parametrize("group", ["c2c2", "a4", "cn"])
    def test_order_and_character_default_to_2_and_1(self, capsys, command, group):
        rc, out, _ = run(capsys, command, "--group", group, "--tau-re", _HX[0], "--tau-im", _HX[1],
                         "--json")
        assert rc == 0
        config = json.loads(out)["config"]
        assert (config["order"], config["char_j"]) == (2, 1)

    @pytest.mark.parametrize(
        "group", [("--group", "a4"), ("--group", "rot", "--order", "3")], ids=["a4", "rot3"]
    )
    def test_constants_group_the_lattice_cannot_carry(self, capsys, group):
        # the square lattice has no order-3 rotation: constants builds its
        # group as classify does, before it reports anything
        rc, out, err = run(capsys, "constants", *group, "--tau-im", "1")
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "needs a hexagonal-class lattice" in err

    @pytest.mark.parametrize(
        "argv, where, named",
        [
            (("--group", "rot", "--order", "2", "--char-j", "5", "--tol", "1e-3", "--seed", "4"),
             "Cl_rotation at --order 2", "--char-j, --tol, --seed"),
            (("--group", "cn", "--order", "1", "--char-j", "7", "--tol", "5", "--seed", "9"),
             "CN_translation at --order 1", "--char-j, --tol, --seed"),
            (("--group", "rot", "--order", "4", "--seed", "4"), "Cl_rotation at --order 4", "--seed"),
            (("--group", "dn", "--order", "1", "--char-j", "1"), "DN at --order 1", "--char-j"),
            (("--group", "c2c2", "--tol", "1e-7"), "C2xC2_translation", "--tol"),
        ],
        ids=["rot", "cn1", "rot-seed", "dn1-default-char-j", "c2c2-default-tol"],
    )
    def test_constants_rejects_the_flags_it_does_not_read(self, capsys, argv, where, named):
        # these constants are the lattice's invariants (and, for c2c2, its
        # half-period constants): no fit, no character; a flag given there,
        # even at its default, is an error, not a value echoed in config
        rc, out, err = run(capsys, "constants", *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: constants of {where} read no {named}\n"

    @pytest.mark.parametrize(
        "argv", [("--group", "rot", "--order", "2"), ("--group", "cn", "--order", "1"),
                 ("--group", "c2c2")], ids=["rot", "cn1", "c2c2"],
    )
    def test_constants_config_keeps_the_defaults_it_does_not_read(self, capsys, argv):
        rc, out, _ = run(capsys, "constants", *argv, "--json")
        assert rc == 0
        config = json.loads(out)["config"]
        assert (config["char_j"], config["tol"], config["seed"]) == (1, BRACKET_TOL, 0)

    @pytest.mark.parametrize("char_j", ["3", "0"])
    def test_constants_character_vanishing_mod_the_order(self, capsys, char_j):
        # a domain error of the fit, not a fit that failed: exit 2, no report
        rc, out, err = run(capsys, "constants", "--group", "cn", "--order", "3", "--char-j", char_j)
        assert (rc, out) == (2, "")
        assert err == "error: k must not vanish mod the group order\n"

    @pytest.mark.parametrize("command", ["classify", "verify"])
    @pytest.mark.parametrize(
        "group, order, char_j, reduced",
        [("cn", "3", 100000, 1), ("cn", "3", -1, 2), ("cn", "4", 9, 1), ("dn", "5", -2, 3),
         ("rot", "4", 5, 1), ("rot", "2", -1, 1), ("cn", "4", 5, 1), ("cn", "4", -3, 1),
         ("dn", "4", 5, 1), ("dn", "4", -3, 1)],
    )
    def test_character_index_reduced_mod_the_order(
        self, capsys, command, group, order, char_j, reduced
    ):
        # the report at j equals the one at j mod N but for config.char_j
        docs = []
        for j in (char_j, reduced):
            rc, out, err = run(
                capsys, command, "--group", group, "--order", order, "--char-j", str(j), "--json"
            )
            assert (rc, err) == (0, "")
            doc = json.loads(out)
            assert doc["config"].pop("char_j") == j
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_d16_square_passes(self, capsys):
        # a cubic fitted from samples had every coefficient below 1.5e-20
        # there; the exact p needs no fit
        rc, out, err = run(capsys, "classify", "--group", "dn", "--order", "16", "--json")
        assert (rc, err) == (0, "")
        cv = json.loads(out)["cross_validation"]
        assert cv["abelianization_dim"] == 3 and cv["passed"] is True

    def test_rotation_index_other_than_one_mod_the_order(self, capsys):
        rc, out, err = run(capsys, "classify", "--group", "rot", "--order", "4", "--char-j", "7")
        assert (rc, out) == (2, "")
        assert err == "error: rotation normal forms are tabulated for character index 1\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag",
        [("eval", "--tau-re"), ("eval", "--tau-im"), ("eval", "--z-re"), ("eval", "--z-im"),
         ("verify", "--tol"), ("verify", "--perturb-f")],
    )
    def test_non_finite_float_is_a_usage_error(self, capsys, command, flag, value):
        # "--flag=-inf": argparse reads a bare "-inf" as an option
        argv = [command, "--group", "cn", "--order", "3", f"{flag}={value}"]
        if flag == "--tol":  # would pass the negative control at an infinite tolerance
            argv += ["--perturb-f", "0.5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument {flag}: '{value}' is not a finite number" in out.err

    @pytest.mark.parametrize(
        "command, flag, value, rc",
        [("classify", "--tau-re", "-1e-3", 0), ("classify", "--tau-im", "-1e0", 2),
         ("verify", "--tol", "-1e-7", 1), ("eval", "--z-re", "-1e17", 0),
         ("eval", "--z-im", "-3.1e-1", 0), ("verify", "--perturb-f", "-1e-3", 1)],
    )
    def test_negative_exponent_value_as_its_own_word(self, capsys, command, flag, value, rc):
        # argparse reads only -0.001-style words as negative numbers: the
        # value given as its own word must read as flag=value does
        base = (command, "--group", "cn", "--order", "3")
        joined = run(capsys, *base, f"{flag}={value}")
        assert joined[0] == rc
        assert run(capsys, *base, flag, value) == joined
        if flag == "--z-re":  # -1e17 is a period of the square lattice
            lines = lambda out: [s for s in out.splitlines() if re.match(r"(E|F|H|Phi)\.", s)]
            at_zero = run(capsys, *base, "--z-re", "0")
            assert len(lines(at_zero[1])) == 16 and lines(joined[1]) == lines(at_zero[1])

    @pytest.mark.parametrize(
        "argv", [("constants", "--tau-im", "114"), ("classify", "--tau-im", "1e-3")],
        ids=["j-overflows", "discriminant-underflows"],
    )
    def test_invariants_past_the_float64_range(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "about 113" in err

    def test_malformed_torsion(self, capsys):
        with pytest.raises(SystemExit):
            main(["classify", "--torsion", "1/2"])

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc, out, _ = run(
            capsys, "constants", "--tau-re", "0", "--tau-im", "1", "--json",
            "--out", str(target),
        )
        assert rc == 0 and out == ""
        doc = json.loads(target.read_text())
        assert abs(complex(*doc["j"]) - 1728) < 1e-6

    def test_eval_reports_bracket_residual(self, capsys):
        rc, out, _ = run(
            capsys, "eval", "--group", "dn", "--order", "2",
            "--tau-re", "0.31", "--tau-im", "1.07", "--json",
            "--z-re", "0.23", "--z-im", "0.61",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["bracket_residual"] < 1e-6


COMMON = {"--tau-re", "--tau-im", "--json", "--out"}
EMBEDDING = {"--group", "--order", "--torsion", "--char-j"}
#: the flags each command reads
READS = {
    "catalog": COMMON,
    "classify": COMMON | EMBEDDING | {"--seed"},
    "constants": COMMON | EMBEDDING | {"--tol", "--seed"},
    "eval": COMMON | EMBEDDING | {"--z-re", "--z-im"},
    "verify": COMMON | EMBEDDING | {"--tol", "--samples", "--seed", "--perturb-f"},
}
#: a value for every flag, each a default or close to one; --trunc, which
#: no command reads any more, stays to check that every command rejects it
VALUES = {
    "--tau-re": ["0"], "--tau-im": ["1"], "--json": [], "--out": None,
    "--group": ["cn"], "--order": ["3"], "--torsion": ["1/0/2"], "--char-j": ["1"],
    "--tol": ["1e-7"], "--samples": ["40"], "--seed": ["5"], "--trunc": ["5"],
    "--z-re": ["0.23"], "--z-im": ["0.31"], "--perturb-f": ["0.0"],
}
#: the config keys each reporting command emits
CONFIG = {
    "classify": {"tau", "group", "order", "torsion", "char_j", "seed"},
    "constants": {"tau", "group", "order", "torsion", "char_j", "tol", "seed"},
    "eval": {"tau", "group", "order", "torsion", "char_j"},
    "verify": {"tau", "group", "order", "torsion", "char_j", "tol", "seed", "samples"},
}


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in READS for f in sorted(VALUES) if f not in READS[c]],
    )
    def test_rejects_a_flag_it_does_not_read(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, *(VALUES[flag] or ["x"])])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "--group", "a4", "--seed", "5", "--samples", "3"],
            ["eval", "--seed", "9", "--tol", "1e-30", "--samples", "1"],
            ["classify", "--tol", "1e-30"],
            ["classify", "--samples", "1"],
            ["constants", "--samples", "1"],
        ],
    )
    def test_ignored_flags_no_longer_pass(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c in READS for f in sorted(READS[c])]
    )
    def test_accepts_the_flags_it_reads(self, capsys, tmp_path, command, flag):
        value = VALUES[flag] if VALUES[flag] is not None else [str(tmp_path / "r.txt")]
        rc, _, err = run(capsys, command, flag, *value)
        assert rc == 0, err

    @pytest.mark.parametrize("command", sorted(CONFIG))
    def test_config_lists_the_flags_it_reads(self, capsys, command):
        rc, out, _ = run(capsys, command, "--order", "3", "--json")
        assert rc == 0
        assert set(json.loads(out)["config"]) == CONFIG[command]

    def test_readme_flag_table_equals_the_commands(self):
        cli_module = importlib.import_module("toruslie.cli")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        readme = readme.split("\n## Command line\n")[1].split("\n## ")[0]
        header = re.search(r"^\| command +\| flags besides (.*)\|$", readme, flags=re.M)
        assert set(re.findall(r"--[a-z-]+", header.group(1))) == cli_module._COMMON
        rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", readme, flags=re.M)
        table = {name: set(re.findall(r"--[a-z-]+", flags)) for name, flags in rows}
        assert table == {name: flags for name, (_, flags) in cli_module._COMMANDS.items()}

    def test_failed_fit_is_a_domain_error(self, capsys, monkeypatch):
        cli_module = importlib.import_module("toruslie.cli")

        def failing(*args, **kwargs):
            raise FitError("mu unexpectedly vanishes")

        monkeypatch.setattr(cli_module, "cross_validate", failing)
        rc, out, err = run(capsys, "classify", "--group", "cn", "--order", "3")
        assert rc == 2
        assert out == ""
        assert err == "error: mu unexpectedly vanishes\n"


# every verify case: (group, order, lattice) on the square, hexagonal and
# generic lattices, rotations of order 3, 4 and 6 and A4 where they exist
FOLD_CASES = [
    (group, order, lat)
    for lat in (_SQ, _HX, _GN)
    for group, order in [("cn", n) for n in (3, 4, 5, 6)]
    + [("dn", n) for n in (2, 3, 4, 5)] + [("c2c2", None), ("rot", 2)]
] + [("rot", 4, _SQ), ("rot", 3, _HX), ("rot", 6, _HX), ("a4", None, _HX)]
FOLD_IDS = [f"{g}{n or ''}-{t[0]}" for g, n, t in FOLD_CASES]


def _verify_argv(group, order, lat, seed, *extra):
    # c2c2 and a4 (order None) take no --order
    return (
        "verify", "--group", group, *(("--order", str(order)) if order else ()),
        "--tau-re", lat[0], "--tau-im", lat[1], "--seed", str(seed), *extra, "--json",
    )


class TestVerifyFold:
    """At its defaults verify reports the residuals cross_validate computed;
    off them it runs the two checks on the triple at its own probe counts."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("group, order, lat", FOLD_CASES, ids=FOLD_IDS)
    def test_defaults_equal_classify(self, capsys, group, order, lat, seed):
        rc, out, _ = run(capsys, *_verify_argv(group, order, lat, seed))
        assert rc in (0, 1)
        argv = ("classify",) + _verify_argv(group, order, lat, seed)[1:]
        cv = json.loads(run(capsys, *argv)[1])["cross_validation"]
        report = json.loads(out)
        assert report["bracket_residuals"] == cv["bracket_residuals"]
        assert report["invariance_residual"] == cv["invariance_residual"]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("group, order, lat", FOLD_CASES, ids=FOLD_IDS)
    def test_samples_90_equal_the_checks_on_the_triple(self, capsys, group, order, lat, seed):
        cli_module = importlib.import_module("toruslie.cli")
        args = cli_module._build_parser().parse_args(_verify_argv(group, order, lat, seed))
        args.tau = complex(args.tau_re, args.tau_im)
        gens = cross_validate(cli_module._embedding(args), seed=seed).triple
        rc, out, _ = run(capsys, *_verify_argv(group, order, lat, seed, "--samples", "90"))
        assert rc in (0, 1)
        report = json.loads(out)
        assert report["bracket_residuals"] == verify_brackets(gens, 90, seed=seed + 1)
        assert report["invariance_residual"] == invariance_residual(gens, 60, seed=seed + 2)

    @pytest.mark.parametrize(
        "extra, calls", [((), 0), (("--samples", "40"), 1), (("--perturb-f", "0.5"), 1)],
        ids=["defaults", "samples", "perturbed"],
    )
    @pytest.mark.parametrize("group, order", [("cn", "3"), ("dn", "4")], ids=["cn3", "dn4"])
    def test_check_triple_runs_only_off_the_defaults(self, capsys, monkeypatch, group, order, extra, calls):
        # at the defaults the triple, seed and probes are cross_validate's;
        # off them check_triple re-checks brackets and invariance together
        cli_module = importlib.import_module("toruslie.cli")
        seen = []
        original = cli_module.check_triple

        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_module, "check_triple", counting)
        run(capsys, "verify", "--group", group, "--order", order, *extra)
        assert len(seen) == calls

    @pytest.mark.parametrize(
        "argv",
        [
            ("--group", "a4", "--tau-re", "0.5", "--tau-im", repr(HEX)),
            ("--group", "c2c2", "--tau-re", "0.1", "--tau-im", "1.1"),
            ("--group", "dn", "--order", "4", "--tau-re", "0.1", "--tau-im", "1.1"),
            ("--group", "cn", "--order", "5", "--tau-re", "0.1", "--tau-im", "1.1"),
        ],
        ids=["a4", "c2c2", "dn4", "cn5"],
    )
    def test_no_more_wp_calls_than_classify(self, capsys, monkeypatch, count_wp_calls, argv):
        # cn5 builds and checks its frame from theta quotients alone
        counts = []
        for command in ("classify", "verify"):
            run(capsys, command, *argv)  # warm the per-lattice caches
            with monkeypatch.context() as m:
                calls = count_wp_calls(m)
                run(capsys, command, *argv)
            counts.append(len(calls))
        assert counts[1] == counts[0]
        assert (counts[0] == 0) == (argv[1] == "cn")

    def test_a_starving_probe_set_raises_as_before(self, capsys, monkeypatch):
        # only the 30-probe invariance draw of --samples 45 starves, at
        # every share of its margin: the error verify always gave.  A draw
        # an earlier test kept would never reach the stub
        nf_module._probe.cache_clear()
        original = nf_module.sample_points

        def starving(slat, n, *args, **kwargs):
            if n == 30:
                raise FitError("no sampling margin admits points away from the pole orbit")
            return original(slat, n, *args, **kwargs)

        monkeypatch.setattr(nf_module, "sample_points", starving)
        argv = ("verify", "--group", "cn", "--order", "3", "--samples", "45")
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "error: no sampling margin admits points away from the pole orbit\n"


class TestConstantsFitFailure:
    @pytest.mark.parametrize("n", [5, 7, 28])
    def test_a_fit_off_the_closed_form_is_nulled(self, capsys, n):
        # CN at tau/N on the square lattice: at N = 28 and --tol 1e-11 the
        # fit passes its held-out check while its constants are 1.76e-10
        # relative off the closed form; at N = 5 and 7 and the default
        # --tol the two agree and the fit prints
        tol = 1e-11 if n == 28 else BRACKET_TOL
        rc, out, err = run(capsys, "constants", "--group", "cn", "--order", str(n),
                           "--torsion", f"0/1/{n}", "--tol", str(tol), "--json")
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        ps = p_system(cn_translation(Lattice(1j), n, TorsionPoint(0, 1, n)))
        fit, exact = fit_lambda_mu(ps, 1, tol=tol), lambda_mu(ps, 1)
        off = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(fit, exact))
        if n == 28:
            assert off > tol
            assert doc["lambda"] is None and doc["mu"] is None
        else:
            assert off <= tol
            assert (complex(*doc["lambda"]), complex(*doc["mu"])) == fit

    def test_report_kept_when_the_fit_fails(self, capsys):
        argv = ("constants", "--group", "cn", "--order", "3", "--tau-re", "0.31",
                "--tau-im", "1.07", "--json")
        rc, out, err = run(capsys, *argv, "--tol", "1e-20")
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert doc["lambda"] is None and doc["mu"] is None
        rc, ref_out, _ = run(capsys, *argv)
        ref = json.loads(ref_out)
        assert rc == 0 and ref["mu"] is not None
        # the invariants do not depend on the fit
        for key in ("g2", "g3", "e1", "e2", "e3", "discriminant", "j"):
            assert doc[key] == ref[key]
