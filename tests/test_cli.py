import importlib
import json
import math

import numpy as np
import pytest

import toruslie.elliptic
from toruslie import intertwine
from toruslie.classify import cross_validate
from toruslie.funcalg import FitError, NotInRingError
from toruslie.cli import main
from toruslie.normalform import invariance_residual
from toruslie.intertwine import phi
from toruslie.lattice import Lattice
from toruslie.torusgroup import cn_translation

HEX = math.sqrt(3.0) / 2.0
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
        # E, F and H are built on the lambda/mu fit of normal_form; the
        # reported Phi is that map, from that single fit
        fits = []
        fit = intertwine._fit_lambda_mu_ps
        monkeypatch.setattr(
            intertwine, "_fit_lambda_mu_ps", lambda *a, **kw: fits.append(a) or fit(*a, **kw)
        )
        rc, out, _ = run(capsys, "eval", "--group", "cn", "--order", "3", "--json")
        assert rc == 0
        assert len(fits) == 1
        doc = json.loads(out)
        got = np.array([[complex(*v) for v in row] for row in doc["Phi"]])
        expect = phi(cn_translation(Lattice(1j), 3), 1)(complex(*doc["z"]))
        assert got.tobytes() == expect.tobytes()

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

    def test_negative_control_fails_as_designed(self, capsys):
        rc, _, _ = run(
            capsys, "verify", "--group", "cn", "--order", "3",
            "--tau-re", "0.31", "--tau-im", "1.07", "--perturb-f", "0.01",
        )
        assert rc == 1

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

    @pytest.mark.parametrize(
        "extra, recomputed",
        [((), 0), (("--samples", "40"), 1), (("--perturb-f", "0.5"), 1)],
        ids=["defaults", "samples", "perturbed"],
    )
    def test_reuses_the_bracket_check(self, capsys, monkeypatch, extra, recomputed):
        # at the defaults the triple, seed and probes are cross_validate's
        cli_module = importlib.import_module("toruslie.cli")
        calls = []
        original = cli_module.verify_brackets

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_module, "verify_brackets", counting)
        run(capsys, "verify", "--group", "cn", "--order", "3", *extra)
        assert len(calls) == recomputed

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

    def test_malformed_torsion(self, capsys):
        with pytest.raises(SystemExit):
            main(["classify", "--torsion", "1/2"])

    def test_trunc_only_on_constants(self, capsys):
        rc, out, _ = run(capsys, "constants", "--trunc", "5", "--json")
        assert rc == 0 and json.loads(out)["command"] == "constants"
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--trunc", "5"])
        assert exc.value.code == 2

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc, out, _ = run(
            capsys, "constants", "--tau-re", "0", "--tau-im", "1", "--json",
            "--out", str(target),
        )
        assert rc == 0 and out == ""
        doc = json.loads(target.read_text())
        assert abs(complex(*doc["j"]) - 1728) < 1e-6

    def test_env_var_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("TORUSLIE_TOL", "1e-20")
        rc, _, _ = run(capsys, "verify", "--group", "cn", "--order", "3")
        assert rc == 1  # unattainable default pulled from the environment

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
    "constants": COMMON | EMBEDDING | {"--tol", "--seed", "--trunc"},
    "eval": COMMON | EMBEDDING | {"--z-re", "--z-im"},
    "verify": COMMON | EMBEDDING | {"--tol", "--samples", "--seed", "--perturb-f"},
}
#: a value for every flag, each a default or close to one
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
_SQ, _HX, _GN = ("0.0", "1.0"), ("0.5", repr(HEX)), ("0.31", "1.07")
FOLD_CASES = [
    (group, order, lat)
    for lat in (_SQ, _HX, _GN)
    for group, order in [("cn", n) for n in (3, 4, 5, 6)]
    + [("dn", n) for n in (2, 3, 4, 5)] + [("c2c2", 2), ("rot", 2)]
] + [("rot", 4, _SQ), ("rot", 3, _HX), ("rot", 6, _HX), ("a4", 2, _HX)]


def _verify_argv(group, order, lat, seed, *extra):
    return (
        "verify", "--group", group, "--order", str(order),
        "--tau-re", lat[0], "--tau-im", lat[1], "--seed", str(seed), *extra, "--json",
    )


class TestVerifyFold:
    """verify's own invariance probes join cross_validate's evaluation; its
    report equals invariance_residual run on the triple afterwards."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "group, order, lat", FOLD_CASES, ids=[f"{g}{n}-{t[0]}" for g, n, t in FOLD_CASES]
    )
    def test_equals_invariance_residual(self, capsys, group, order, lat, seed):
        cli_module = importlib.import_module("toruslie.cli")
        args = cli_module._build_parser().parse_args(_verify_argv(group, order, lat, seed))
        args.tau = complex(args.tau_re, args.tau_im)
        cv = cross_validate(cli_module._embedding(args), seed=seed)
        for extra, n in (((), 30), (("--samples", "40"), 20)):
            rc, out, _ = run(capsys, *_verify_argv(group, order, lat, seed, *extra))
            assert rc in (0, 1)
            ref = invariance_residual(cv.triple, n, seed=seed + 2)
            assert json.loads(out)["invariance_residual"] == ref

    @pytest.mark.parametrize(
        "extra, calls", [((), 0), (("--samples", "40"), 0), (("--perturb-f", "0.5"), 1)],
        ids=["defaults", "samples", "perturbed"],
    )
    def test_invariance_residual_runs_only_when_perturbed(self, capsys, monkeypatch, extra, calls):
        cli_module = importlib.import_module("toruslie.cli")
        seen = []
        original = cli_module.invariance_residual

        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_module, "invariance_residual", counting)
        run(capsys, "verify", "--group", "dn", "--order", "4", *extra)
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
    def test_no_more_wp_calls_than_classify(self, capsys, monkeypatch, argv):
        calls = []
        original = toruslie.elliptic.wp_both

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        counts = []
        for command in ("classify", "verify"):
            run(capsys, command, *argv)  # warm the per-lattice caches
            with monkeypatch.context() as m:
                m.setattr(toruslie.elliptic, "wp_both", counting)
                calls.clear()
                run(capsys, command, *argv)
            counts.append(len(calls))
        assert 0 < counts[1] <= counts[0]

    def test_a_starving_probe_set_raises_as_before(self, capsys, monkeypatch):
        # only verify's 30-probe draw starves: the error verify always gave
        original = nf_module.sample_points

        def starving(slat, n, *args, **kwargs):
            if n == 30:
                raise FitError("rejection sampling starved; margin too large for the pole set")
            return original(slat, n, *args, **kwargs)

        monkeypatch.setattr(nf_module, "sample_points", starving)
        argv = ("verify", "--group", "cn", "--order", "3")
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "error: no sampling margin admits points away from the pole orbit\n"
        # a ring fit that fails still outranks the starving probes
        def not_in_ring(*args, **kwargs):
            raise NotInRingError("held-out residual too large")

        monkeypatch.setattr(nf_module, "_fit_values", not_in_ring)
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", "error: held-out residual too large\n")


class TestConstantsFitFailure:
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
