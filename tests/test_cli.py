"""Command-line surface: output formats, exit codes, determinism."""

import argparse
import io
import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from zetaforge import aperynum, cli, spectra, specval


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.run(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


class TestBasicCommands:
    def test_bernoulli_plain(self):
        code, out = run_cli("--format", "plain", "--no-meta", "bernoulli", "--k", "12")
        assert code == 0
        assert out.strip() == "-691/2730"

    def test_bernoulli_poly(self):
        code, out = run_cli("--no-meta", "bernoulli", "--k", "2", "--poly-x", "1/2")
        assert code == 0
        assert json.loads(out)["value"] == "-1/12"

    def test_apery_with_closed_check(self):
        code, out = run_cli("--no-meta", "apery", "--kind", "A2", "--n", "7", "--closed")
        rep = json.loads(out)
        assert code == 0 and rep["routes_agree"]

    def test_long_integer_prints_in_full(self):
        # A3(3000) has about 4600 digits, past the int-to-str limit of 4300
        # digits that Python 3.10.7 and later apply by default
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        before = get_limit() if get_limit else None
        code, out = run_cli("--no-meta", "apery", "--kind", "A3", "--n", "3000")
        assert code == 0
        text = json.loads(out)["value"]
        assert len(text) > 4300
        assert int(text[:-4000]) * 10**4000 + int(text[-4000:]) == aperynum.apery3(3000)
        if get_limit:
            assert get_limit() == before

    def test_aperylike(self):
        code, out = run_cli("--no-meta", "aperylike", "--family", "TJ", "--k", "2", "--n", "2")
        assert code == 0
        assert json.loads(out)["value"] == "41/64"
        code, out = run_cli("--no-meta", "aperylike", "--family", "J", "--k", "3", "--n", "0")
        assert json.loads(out)["value"] == {"HZ3": "2"}

    def test_hurwitz(self):
        code, out = run_cli("--no-meta", "hurwitz", "--s", "2", "--tau", "0.5")
        import math

        assert abs(json.loads(out)["value"] - math.pi**2 / 2) < 1e-12

    def test_hurwitz_at_a_large_tau(self):
        # a complex NaN here ended in "Object of type complex is not JSON
        # serializable" and exit 1
        code, out = run_cli("--no-meta", "hurwitz", "--s", "2", "--tau", "1e155")
        assert code == 0 and json.loads(out)["value"] == 1e-155


class TestCongruenceCommand:
    def test_supercongruence_ok(self):
        code, out = run_cli(
            "--no-meta", "congruence", "--check", "super",
            "--kind", "A3", "--p", "5", "--m", "1", "--r", "1",
        )
        rep = json.loads(out)
        assert code == 0 and rep["ok"] and rep["modulus"] == 125

    def test_los(self):
        code, out = run_cli("--no-meta", "congruence", "--check", "los", "--p", "7")
        assert code == 0 and json.loads(out)["ok"]

    def test_schema_fields(self):
        _, out = run_cli(
            "--no-meta", "congruence", "--check", "pary",
            "--kind", "A2", "--p", "5", "--n", "7",
        )
        rep = json.loads(out)
        assert set(rep) >= {"kind", "params", "lhs_residue", "rhs_residue", "modulus", "ok"}


class TestQSeriesCommand:
    def test_w2_verification(self):
        code, out = run_cli("--no-meta", "qseries-verify", "--max-q", "6")
        rep = json.loads(out)
        assert code == 0
        assert rep["matched"] and rep["convention_used"] == "eta-times-16"
        assert rep["jacobi_identity_ok"]


class TestTraceOutputs:
    def test_divergence_csv(self):
        code, out = run_cli(
            "--no-meta", "--format", "csv", "divergence", "--n", "2", "--tau", "10", "--K", "4"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "k,term,partial_sum"
        assert len(lines) == 6

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["verify-all"], "'checks'"),
            (["qrm-spectrum", "--g", "0.3", "--delta", "0.5", "--n-basis", "64", "--count", "3"],
             "'eigenvalues'"),
        ],
        ids=["verify-all", "qrm-spectrum"],
    )
    def test_csv_refuses_a_nested_report(self, argv, field, capsys):
        # a list or dict was written as its Python repr in one cell
        code = cli.run(["--no-meta", "--format", "csv", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and field in captured.err

    def test_padic_divergence(self):
        code, out = run_cli(
            "--no-meta", "divergence", "--n", "2", "--tau", "1/5", "--K", "14",
            "--padic-p", "5",
        )
        rep = json.loads(out)
        assert code == 0 and rep["sum_matches_normalized_zeta"]

    def test_padic_zeta_expansion(self):
        code, out = run_cli("--no-meta", "padic-zeta", "--p", "5", "--s", "2", "--tau", "1/5")
        rep = json.loads(out)
        assert code == 0
        assert rep["p"] == 5 and len(rep["digits"]) == rep["precision"]


class TestSpecialValuesMethod:
    @pytest.mark.parametrize(
        "op_args, reference",
        [
            (["--op", "zetaQ", "--alpha", "2", "--beta", "1"],
             lambda: specval.zetaQ2_closed(specval.NchoParams(2.0, 1.0))),
            (["--op", "appendixB", "--which", "A", "--n", "1", "--j", "0"],
             lambda: specval.APPENDIX_AB_EXACT[("A", 1, 0)]),
            (["--op", "rkj", "--k", "2", "--j", "1", "--kappa", "0.3"],
             lambda: specval.r_k1_series(2, 0.3, 60)[0]),
        ],
        ids=["zetaQ", "appendixB", "rkj"],
    )
    def test_method_flag_reaches_the_quadrature(self, op_args, reference):
        code, out = run_cli(
            "--no-meta", "special-values", *op_args,
            "--method", "TENSOR_GAUSS", "--samples", "1000",
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["method"] == "TENSOR_GAUSS"
        # the n-versus-n/2 estimate brackets the reference value
        assert 0 < rep["std_error"] <= 1e-2 * abs(rep["value"])
        assert abs(rep["value"] - reference()) <= rep["std_error"]
        assert rep["seed"] is None  # a deterministic rule has no seed


class TestSeriesOps:
    def test_r_series(self):
        code, out = run_cli(
            "--no-meta", "special-values", "--op", "r-series", "--k", "3", "--kappa", "0.3",
            "--n-max", "20",
        )
        rep = json.loads(out)
        assert code == 0
        assert set(rep) == {"op", "k", "kappa", "n_max", "value", "last_term"}
        assert rep["op"] == "r_k1_series" and (rep["k"], rep["kappa"], rep["n_max"]) == (3, 0.3, 20)
        assert [rep["value"], rep["last_term"]] == list(specval.r_k1_series(3, 0.3, 20))

    def test_r42(self):
        code, out = run_cli("--no-meta", "special-values", "--op", "r42", "--kappa", "0.3")
        rep = json.loads(out)
        assert code == 0
        assert set(rep) == {"op", "t", "value", "truncation_order"}
        assert rep["op"] == "r42_series" and rep["t"] == 0.3**2 and rep["truncation_order"] == 1
        assert rep["value"] == specval.r42_series(0.3**2)


class TestPlainFormat:
    def test_nested_list_entries_start_at_a_dash(self, capsys):
        payload = {
            "checks": [{"name": "a", "points": [{"x": 1}, {"x": 2}]}, {"name": "b"}],
            "primes": [3, 5],
        }
        cli.emit(payload, "plain", meta=False)
        assert capsys.readouterr().out == (
            "checks:\n"
            "  -\n"
            "    name: a\n"
            "    points:\n"
            "      -\n"
            "        x: 1\n"
            "      -\n"
            "        x: 2\n"
            "  -\n"
            "    name: b\n"
            "primes:\n"
            "  3\n"
            "  5\n"
        )

    def test_top_level_entries_end_at_a_blank_line(self):
        code, out = run_cli(
            "--no-meta", "--format", "plain", "divergence", "--n", "2", "--tau", "10", "--K", "1"
        )
        assert code == 0
        assert out == (
            "k: 0\nterm: 0.1\npartial_sum: 0.1\n\n"
            "k: 1\nterm: 0.005\npartial_sum: 0.10500000000000001\n\n"
        )

    def test_verify_all_marks_each_check(self):
        code, out = run_cli("--no-meta", "--format", "plain", "verify-all", "--budget", "quick")
        rep = json.loads(run_cli("--no-meta", "verify-all", "--budget", "quick")[1])
        lines = out.splitlines()
        assert code == 0
        assert lines.count("  -") == len(rep["checks"]) == 13
        checks = {c["name"]: c for c in rep["checks"]}
        points = checks["zetaQ2-closed-vs-assembled"]["points"]
        assert lines.count("      -") == len(points) > 1


class TestStochasticDeterminism:
    def test_same_seed_identical(self):
        args = (
            "--no-meta", "--seed", "5", "special-values", "--op", "rkj",
            "--k", "2", "--j", "1", "--kappa", "0.3", "--samples", "20000",
        )
        _, a = run_cli(*args)
        _, b = run_cli(*args)
        assert a == b

    def test_different_seed_differs(self):
        base = (
            "special-values", "--op", "rkj", "--k", "2", "--j", "1",
            "--kappa", "0.3", "--samples", "20000",
        )
        _, a = run_cli("--no-meta", "--seed", "1", *base)
        _, b = run_cli("--no-meta", "--seed", "2", *base)
        assert json.loads(a)["value"] != json.loads(b)["value"]


class TestExitCodes:
    def test_usage_error(self):
        assert cli.run(["congruence", "--check", "bogus", "--p", "5"]) == 2

    def test_input_error(self):
        code, _ = run_cli("--no-meta", "padic-zeta", "--p", "5", "--s", "1", "--tau", "1/5")
        assert code == 2

    def test_missing_subcommand(self):
        assert cli.run([]) == 2

    def test_help_exits_zero(self):
        assert cli.run(["--help"]) == 0

    def test_uncertified_result_exits_three(self, capsys):
        # N = 64 is far too small for alpha * beta = 1.2: the certified
        # radii exceed the threshold, which is reported, not raised
        code = cli.run([
            "--no-meta", "ncho-spectrum", "--alpha", "1.2", "--beta", "1.0",
            "--n-basis", "64", "--count", "40",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: NotConverged: max convergence estimate")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            # the Laplace integral was taken over t in [0, 1], where a weight
            # e^{-t/z} of width 1e-8 fell between the rule's nodes: the sum
            # read 0 against a reference of 1 ...
            ["borel", "--n", "2", "--z", "1e-8"],
            # ... and at fractional order the reference read 4e-45 against 2
            ["borel", "--s", "1.5", "--z", "1e-5"],
            # z^(1-n) overflowed, and the command exited 2 for a sum it
            # resolves; the reference is now 1/(n-1) + z/2
            ["borel", "--n", "3", "--z", "1e-155"],
            ["borel", "--n", "3", "--z", "1e-300"],
            ["borel", "--n", "4", "--z", "1e-155"],
            ["borel", "--n", "4", "--z", "1e-300"],
        ],
        ids=["integer-z-1e-8", "fractional-z-1e-5", "n3-z-1e-155", "n3-z-1e-300",
             "n4-z-1e-155", "n4-z-1e-300"],
    )
    def test_borel_small_z_agrees(self, argv, capsys):
        code = cli.run(["--no-meta", *argv])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rep["agreement"] is True
        assert rep["tolerance"] <= 1e-6

    @pytest.mark.parametrize(
        "n, z",
        [("3", "1e105"), ("4", "1e105"), ("3", "1e200"), ("4", "1e200"),
         ("2", "1e307"), ("3", "1e307"), ("4", "1e307")],
        ids=["n3-z-1e105", "n4-z-1e105", "n3-z-1e200", "n4-z-1e200",
             "n2-z-1e307", "n3-z-1e307", "n4-z-1e307"],
    )
    def test_borel_huge_z_agrees(self, n, z, capsys):
        # zeta(n, 1/z) passes the largest double, and the command exited 2;
        # the reference is now the ladder z + z^(1-n) zeta(n, 1 + 1/z).  At
        # z = 1e307 B(z u) overflowed inside the last Laplace piece (exit 3,
        # "Laplace integral diverged"); past t = 20 ln 10 that piece is now
        # the closed form e^{-T/z} (T + z)
        code = cli.run(["--no-meta", "borel", "--n", n, "--z", z])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rep["agreement"] is True
        assert abs(rep["borel_sum"] - float(z)) <= rep["quadrature_error"] <= rep["tolerance"]

    def test_lapack_non_convergence_exits_three(self, monkeypatch, capsys):
        # a LAPACK routine that reports info > 0 did not converge: exit 3,
        # not the exit 2 of an input error
        from zetaforge import _eig

        dstebz = _eig._flapack.dstebz
        monkeypatch.setattr(_eig._flapack, "dstebz", lambda *args: (*dstebz(*args)[:-1], 1))
        code = cli.run([
            "--no-meta", "ncho-spectrum", "--alpha", "2", "--beta", "1",
            "--n-basis", "64", "--count", "10",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: NotConverged: dstebz did not converge (LAPACK info=1)\n"

    @pytest.mark.parametrize(
        "z",
        [
            # the truncated Laplace tail, about 2.6e-4, widened the tolerance
            # to 7.8e-4; without the tail in the estimate the two routes
            # differ by more than 1e-6 and the command exits 1
            "0.5",
            # "agreement" between 10.77 and 1.39 within a tolerance of 10
            "10",
            "1e10",
            # the x-route failed first, on tau = 8e-300, and exited 2
            "1e300",
        ],
    )
    def test_borel_unresolved_laplace_exits_three(self, z, capsys):
        code = cli.run(["--no-meta", "borel", "--s", "1.5", "--z", z])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: QuadratureFailure: error estimate")
        assert "exceeds the tolerance 1.0e-06" in captured.err

    def test_help_documents_exit_codes(self, capsys):
        cli.run(["--help"])
        epilog = " ".join(capsys.readouterr().out.split())
        assert "3 a computation did not reach its certified accuracy" in epilog
        assert "141 standard output was closed before the report was written" in epilog

    @pytest.mark.parametrize(
        "argv",
        [
            # the report fits the stdout buffer, so the write fails at the flush
            ["bernoulli", "--k", "4"],
            # about 10 kB: the write fails while the report is written
            ["ncho-spectrum", "--alpha", "3", "--beta", "1.5", "--n-basis", "1024",
             "--count", "300"],
        ],
        ids=["at-flush", "mid-report"],
    )
    def test_closed_stdout_is_not_a_mismatch(self, argv):
        # the reader closes its end before anything is written, as
        # `zetaforge ... | head -1` does once it has its line; this printed a
        # BrokenPipeError traceback and exited 1, the mismatch code
        proc = subprocess.Popen(
            [sys.executable, "-m", "zetaforge.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["qseries-verify", "--max-q", "0"], "max_exponent"),
            (["partition", "--model", "ncho", "--t", "1"], "--alpha"),
            (["special-values", "--op", "zetaQ", "--alpha", "2"], "--beta"),
            (["padic-zeta", "--p", "4", "--s", "2", "--tau", "1/5"], "p must be"),
            # a composite p: the first two passed, the last three reported a
            # mismatch (exit 1) before the primality check
            (["congruence", "--check", "asd", "--p", "9", "--m", "1", "--r", "2"], "prime p"),
            (["congruence", "--check", "tj-super", "--p", "9", "--m", "1", "--n", "1"], "p must be"),
            (["congruence", "--check", "super", "--p", "4"], "p must be"),
            (["congruence", "--check", "los", "--p", "9"], "p must be"),
            (["congruence", "--check", "pary", "--kind", "A2", "--p", "4", "--n", "7"], "p must be"),
            # empty budgets and negative orders
            (["special-values", "--op", "rkj", "--samples", "0"], "samples"),
            # a tensor-Gauss budget below 1 gave a complex node count (a
            # TypeError traceback) or a silent 4-node grid
            (["special-values", "--op", "rkj", "--method", "TENSOR_GAUSS", "--samples", "-1"],
             "samples"),
            (["special-values", "--op", "rkj", "--method", "TENSOR_GAUSS", "--samples", "0"],
             "samples"),
            (["ncho-spectrum", "--alpha", "2", "--beta", "1", "--count", "0"], "count"),
            (["quasi-partition", "--t", "0.5", "--K", "-1"], "K"),
            # more eigenvalues than the truncation's 2N levels hold
            (["ncho-spectrum", "--alpha", "3", "--beta", "1.5", "--n-basis", "127", "--count", "255"],
             "size of the truncation"),
            (["qrm-spectrum", "--g", "0.5", "--delta", "0.7", "--n-basis", "127", "--count", "255"],
             "size of the truncation"),
            # a non-finite parameter is refused before any solve; an infinite
            # alpha printed "alpha": Infinity and "value": NaN, which are not
            # JSON, and a large or NaN tau ended in a traceback
            (["qrm-spectrum", "--g", "inf", "--delta", "0.5"], "must be finite"),
            (["qrm-spectrum", "--g", "0.3", "--delta", "0.5", "--eps", "nan"], "must be finite"),
            (["special-values", "--op", "zetaQ2-closed", "--alpha", "inf", "--beta", "2"],
             "must be finite"),
            (["hurwitz", "--s", "nan", "--tau", "0.5"], "must be finite"),
            (["hurwitz", "--s", "2", "--tau", "nan"], "must be finite"),
            # a non-finite t or kappa printed NaN or Infinity and exited 0, or
            # (t = inf) reported "-inf + inf in fsum"
            (["special-values", "--op", "r42", "--kappa", "nan"], "kappa^2 must be finite"),
            (["special-values", "--op", "rkj", "--k", "2", "--j", "1", "--kappa", "inf",
              "--samples", "100"], "kappa must be finite"),
            (["partition", "--model", "qho", "--t", "nan"], "t must be finite"),
            (["quasi-partition", "--t", "nan", "--K", "3"], "t must be finite"),
            (["quasi-partition", "--t", "inf", "--K", "3"], "t must be finite"),
            # a value past the largest double reported "(34, 'Numerical result
            # out of range')", and a NaN z was called "s and tau"
            (["hurwitz", "--s", "-0.5", "--tau", "1e300"], "s = -0.5, tau = 1e+300"),
            (["borel", "--s", "1.5", "--z", "nan"], "z must be finite"),
            # a zero denominator or a pole reported as `error: Fraction(1, 0)`
            (["bernoulli", "--k", "3", "--poly-x", "1/0"], "--poly-x"),
            (["divergence", "--n", "2", "--tau", "1/0"], "--tau"),
            (["divergence", "--n", "2", "--tau", "0"], "--tau"),
            (["padic-zeta", "--p", "5", "--s", "2", "--tau", "1/0"], "--tau"),
            # tau at or below minus the lowest eigenvalue, where the Mellin
            # integral diverges: at lambda_0 = -1.361 this printed 3.3e+28
            # and exited 0, or raised an uncaught TypeError on a complex
            # direct sum; at lambda_0 = 1/2 it reported "math range error"
            (["mellin-zeta", "--model", "qrm", "--g", "0.7", "--delta", "1.2", "--s", "2",
              "--tau", "1.0"], "tau = 1.0"),
            (["mellin-zeta", "--model", "qrm", "--g", "0.7", "--delta", "1.2", "--s", "2.5",
              "--tau", "0.5"], "tau = 0.5"),
            (["mellin-zeta", "--model", "qho", "--s", "2", "--tau", "-0.7"], "tau = -0.7"),
            (["mellin-zeta", "--model", "qho", "--s", "2", "--tau", "-0.5"], "tau = -0.5"),
            # a non-finite s or tau ran the quadrature to its interval limit
            # and was reported as "Mellin integral did not converge"
            (["mellin-zeta", "--model", "qho", "--s", "2.5", "--tau", "nan"],
             "tau must be finite, got nan"),
            (["mellin-zeta", "--model", "qho", "--s", "nan", "--tau", "1"],
             "s must be finite, got nan"),
            (["mellin-zeta", "--model", "qho", "--s", "inf", "--tau", "1"],
             "s must be finite, got inf"),
            # Z(1e-310) ~ 1/t is past the largest double: these printed
            # "value": Infinity and a NaN error, which are not JSON, and exited 0
            (["quasi-partition", "--t", "1e-310", "--K", "3"], "field 'value'"),
            (["partition", "--model", "qho", "--t", "1e-310", "--count", "10"], "field 'value'"),
            # g^2 overflows: reported "(34, 'Numerical result out of range')"
            (["qrm-spectrum", "--g", "1e200", "--delta", "0.5"], "g = 1e+200"),
        ],
        ids=[
            "qseries-bound-0", "partition-ncho-no-params", "zetaQ-no-beta", "padic-even-p",
            "asd-composite-p", "tj-super-composite-p", "super-composite-p",
            "los-composite-p", "pary-composite-p",
            "rkj-no-samples", "rkj-tensor-gauss-negative-samples",
            "rkj-tensor-gauss-no-samples", "ncho-count-0", "quasi-partition-negative-K",
            "ncho-count-above-2N", "qrm-count-above-2N", "qrm-g-inf", "qrm-eps-nan",
            "zetaQ2-closed-alpha-inf", "hurwitz-s-nan", "hurwitz-tau-nan",
            "r42-kappa-nan", "rkj-kappa-inf", "partition-t-nan", "quasi-partition-t-nan",
            "quasi-partition-t-inf", "hurwitz-overflow", "borel-z-nan",
            "bernoulli-poly-x-zero-den", "divergence-tau-zero-den", "divergence-tau-zero",
            "padic-tau-zero-den", "mellin-qrm-tau-below", "mellin-qrm-tau-below-real-s",
            "mellin-qho-tau-below", "mellin-qho-tau-at", "mellin-qho-tau-nan",
            "mellin-qho-s-nan", "mellin-qho-s-inf", "quasi-partition-t-tiny",
            "partition-qho-t-tiny", "qrm-g-overflow",
        ],
    )
    def test_malformed_input_is_a_typed_error(self, argv, named, capsys):
        code = cli.run(["--no-meta", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert named in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # the small-t model of the qrm route is the unbiased
            # Rabi-Bernoulli table, so a bias would give a wrong value
            ([
                "mellin-zeta", "--model", "qrm", "--s", "3", "--tau", "2",
                "--g", "0.3", "--delta", "0.5", "--eps", "0.4",
            ], "--eps"),
            # without its tail bracket a partition value is a lower bound
            # reported with a zero error bar
            ([
                "partition", "--model", "qrm", "--g", "0.3", "--delta", "0.5",
                "--t", "0.5", "--count", "10", "--tail", "NONE",
            ], "--tail"),
        ],
        ids=["mellin-zeta-eps", "partition-tail"],
    )
    def test_removed_flag_is_refused(self, argv, flag, capsys):
        code = cli.run(["--no-meta", *argv])
        assert code == 2
        assert flag in capsys.readouterr().err


class TestFlagsAfterSubcommand:
    def test_format_after(self):
        code, out = run_cli("bernoulli", "--k", "2", "--format", "plain", "--no-meta")
        assert code == 0 and out.strip() == "1/6"


class TestSpectrumCommands:
    def test_ncho_spectrum(self):
        code, out = run_cli(
            "--no-meta", "ncho-spectrum", "--alpha", "2.0", "--beta", "1.0",
            "--n-basis", "128", "--count", "10", "--threshold", "1e-5",
        )
        rep = json.loads(out)
        assert code == 0 and rep["bounds_ok"]
        assert len(rep["eigenvalues"]) == 10 == len(rep["convergence"])
        # provenance: the leading section solved, and the proved index
        assert rep["section_N"] <= rep["truncation_N"] == 128 and rep["index_proved"]

    def test_partition_qho(self):
        import math

        code, out = run_cli("--no-meta", "partition", "--model", "qho", "--t", "1.0")
        rep = json.loads(out)
        assert abs(rep["value"] - math.exp(-0.5) / (1 - math.exp(-1))) < 1e-12

    def test_heat_fit_compares_with_the_residue(self):
        code, out = run_cli(
            "--no-meta", "heat-fit", "--alpha", "2.5", "--beta", "0.6",
            "--n-basis", "512", "--count", "120", "--threshold", "1e-6",
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["residue_formula"] == specval.NchoParams(2.5, 0.6).residue

    @pytest.mark.parametrize("s", ["1.5", "2", "3"])
    @pytest.mark.parametrize("tau", ["-0.1", "-0.3", "-0.45"])
    def test_mellin_qho_below_zero_tau_agrees(self, s, tau):
        # for tau in (-1/2, 0) the weight e^{-tau t} grows: it overflowed
        # far out, where Z had underflowed, and the command reported "math
        # range error"
        code, out = run_cli("--no-meta", "mellin-zeta", "--model", "qho", "--s", s, "--tau", tau)
        rep = json.loads(out)
        assert code == 0
        assert rep["direct_reference"] == specval.hurwitz_zeta_num(float(s), 0.5 + float(tau))
        assert rep["abs_error"] <= 1e-10 * rep["direct_reference"]

    def test_mellin_qho_large_s_agrees(self):
        # t^(s-1) overflowed at t ~ 117, before the weight was applied, and
        # the command exited 2 for a value of 1e-111
        code, out = run_cli("--no-meta", "mellin-zeta", "--model", "qho", "--s", "150", "--tau", "5")
        rep = json.loads(out)
        exact = specval.hurwitz_zeta_num(150.0, 5.5)
        assert code == 0
        assert abs(rep["value"] - exact) <= 1e-12 * exact

    def test_mellin_zeta_keeps_its_threshold(self):
        # the largest radius of this solve lies between the 1e-8 that the
        # other spectral commands default to and mellin-zeta's fixed 1e-3
        radii = spectra.qrm_eigs(
            spectra.QrmParams(0.3, 0.5), N=64, count=100, threshold=1e-3
        ).convergence
        assert 1e-8 < max(radii) < 1e-3
        code, out = run_cli(
            "--no-meta", "mellin-zeta", "--model", "qrm", "--s", "3", "--tau", "2",
            "--g", "0.3", "--delta", "0.5", "--n-basis", "64", "--count", "100",
        )
        assert code == 0 and json.loads(out)["abs_error"] < 1e-6


# (dest, default) of every option of the spectral subcommands; the flags
# shared by every subcommand, and --help, leave their values to the top level
_SHARED_OPTIONS = {
    "--help": ("help", argparse.SUPPRESS),
    "--format": ("format", argparse.SUPPRESS),
    "--seed": ("seed", argparse.SUPPRESS),
    "--no-meta": ("no_meta", argparse.SUPPRESS),
}
_SPECTRAL_OPTIONS = {
    "ncho-spectrum": {
        "--alpha": ("alpha", None), "--beta": ("beta", None), "--n-basis": ("n_basis", 1024),
        "--count": ("count", 40), "--threshold": ("threshold", 1e-8),
    },
    "qrm-spectrum": {
        "--g": ("g", None), "--delta": ("delta", None), "--eps": ("eps", 0.0),
        "--n-basis": ("n_basis", 512), "--count": ("count", 40), "--threshold": ("threshold", 1e-8),
    },
    "partition": {
        "--model": ("model", None), "--t": ("t", None), "--alpha": ("alpha", None),
        "--beta": ("beta", None), "--g": ("g", 0.0), "--delta": ("delta", 0.0),
        "--eps": ("eps", 0.0), "--n-basis": ("n_basis", 512), "--count": ("count", 100),
        "--threshold": ("threshold", 1e-6),
    },
    "heat-fit": {
        "--alpha": ("alpha", None), "--beta": ("beta", None), "--t-min": ("t_min", 0.15),
        "--t-max": ("t_max", 1.0), "--points": ("points", 20), "--odd-terms": ("odd_terms", 3),
        "--n-basis": ("n_basis", 1024), "--count": ("count", 200), "--threshold": ("threshold", 1e-5),
    },
    "mellin-zeta": {
        "--model": ("model", None), "--s": ("s", None), "--tau": ("tau", None),
        "--g": ("g", 0.0), "--delta": ("delta", 0.0), "--n-basis": ("n_basis", 768),
        "--count": ("count", 380),
    },
}


def _subparser(name: str) -> argparse.ArgumentParser:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


class TestSpectralOptions:
    @pytest.mark.parametrize("name", sorted(_SPECTRAL_OPTIONS))
    def test_options_and_defaults(self, name):
        found = {a.option_strings[-1]: (a.dest, a.default) for a in _subparser(name)._actions}
        assert found == {**_SHARED_OPTIONS, **_SPECTRAL_OPTIONS[name]}

    def test_mellin_zeta_fixes_bias_and_threshold(self):
        # no flag sets these; the solve reads them like the other commands'
        args = cli._build_parser().parse_args(["mellin-zeta", "--model", "qrm", "--s", "3", "--tau", "2"])
        assert (args.eps, args.threshold) == (0.0, 1e-3)


class TestReadme:
    def test_cli_examples_exit_zero(self):
        # every `zetaforge ...` line of the README's CLI block, run in-process
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [
            shlex.split(line, comments=True)
            for line in block.splitlines()
            if line.startswith("zetaforge ")
        ]
        assert examples
        for argv in examples:
            code, _ = run_cli(*argv[1:])
            assert code == 0, " ".join(argv)


class TestMeta:
    def test_meta_block_present_by_default(self):
        code, out = run_cli("bernoulli", "--k", "2")
        rep = json.loads(out)
        assert "meta" in rep and "version" in rep["meta"]

    def test_no_meta_strips(self):
        _, out = run_cli("--no-meta", "bernoulli", "--k", "2")
        assert "meta" not in json.loads(out)


@pytest.mark.slow
class TestVerifyAllQuick:
    def test_quick_suite_passes(self):
        code, out = run_cli("--no-meta", "verify-all", "--budget", "quick")
        rep = json.loads(out)
        assert code == 0
        assert rep["all_ok"] and rep["failures"] == []
        assert "seed" not in rep  # verify-all draws no random numbers

    def test_entry_point_subprocess(self):
        res = subprocess.run(
            [sys.executable, "-m", "zetaforge.cli", "--no-meta", "--format", "plain",
             "bernoulli", "--k", "4"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert res.stdout.strip() == "-1/30"
