"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def spec_path(tmp_path):
    path = str(tmp_path / "spec.v")
    assert main(["gen", "mastrovito", "-k", "4", "-o", path]) == 0
    return path


@pytest.fixture
def impl_path(tmp_path):
    path = str(tmp_path / "impl.v")
    assert main(["gen", "montgomery", "-k", "4", "-o", path]) == 0
    return path


class TestGen:
    @pytest.mark.parametrize(
        "architecture",
        ["mastrovito", "montgomery", "montgomery-block", "karatsuba", "squarer", "adder"],
    )
    def test_all_architectures(self, tmp_path, architecture):
        path = str(tmp_path / f"{architecture}.v")
        assert main(["gen", architecture, "-k", "4", "-o", path]) == 0
        from repro.circuits import read_verilog

        read_verilog(path).validate()

    def test_blif_output(self, tmp_path):
        path = str(tmp_path / "c.blif")
        assert main(["gen", "adder", "-k", "4", "-o", path]) == 0
        from repro.circuits import read_blif

        assert read_blif(path).num_gates() == 4

    def test_custom_modulus(self, tmp_path, capsys):
        path = str(tmp_path / "c.v")
        assert (
            main(["gen", "mastrovito", "-k", "4", "--modulus", "0b11001", "-o", path])
            == 0
        )
        assert "wrote" in capsys.readouterr().out


class TestStats(object):
    def test_prints_summary(self, spec_path, capsys):
        assert main(["stats", spec_path]) == 0
        out = capsys.readouterr().out
        assert "gates:" in out
        assert "word in:  A [4 bits]" in out


class TestAbstract:
    def test_derives_polynomial(self, spec_path, capsys):
        assert main(["abstract", spec_path, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "polynomial: Z = A*B" in out
        assert "case:       1" in out

    def test_groebner_case2(self, tmp_path, capsys):
        path = str(tmp_path / "sq.v")
        main(["gen", "squarer", "-k", "3", "-o", path])
        assert main(["abstract", path, "-k", "3", "--case2", "groebner"]) == 0
        assert "Z = A^2" in capsys.readouterr().out


class TestVerify:
    def test_equivalent_designs_exit_zero(self, spec_path, impl_path, capsys):
        assert main(["verify", spec_path, impl_path, "-k", "4"]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_inequivalent_designs_exit_one(self, spec_path, tmp_path, capsys):
        adder = str(tmp_path / "add.v")
        main(["gen", "adder", "-k", "4", "-o", adder])
        assert main(["verify", spec_path, adder, "-k", "4"]) == 1
        assert "not_equivalent" in capsys.readouterr().out

    def test_check_spec(self, spec_path, capsys):
        assert main(["check-spec", spec_path, "-k", "4", "--spec", "A*B"]) == 0
        assert "equivalent" in capsys.readouterr().out
        assert main(["check-spec", spec_path, "-k", "4", "--spec", "A+B"]) == 1

    @pytest.mark.parametrize("method", ["sat", "bdd"])
    def test_bit_level_methods(self, spec_path, impl_path, method):
        assert (
            main(
                [
                    "verify",
                    spec_path,
                    impl_path,
                    "-k",
                    "4",
                    "--method",
                    method,
                    "--budget",
                    "500000",
                ]
            )
            == 0
        )

    def test_fraig_method(self, spec_path, impl_path):
        assert (
            main(
                [
                    "verify",
                    spec_path,
                    impl_path,
                    "-k",
                    "4",
                    "--method",
                    "fraig",
                    "--budget",
                    "500000",
                ]
            )
            == 0
        )

    def test_budget_exhaustion_exit_two(self, tmp_path):
        spec = str(tmp_path / "s.v")
        impl = str(tmp_path / "i.v")
        main(["gen", "mastrovito", "-k", "8", "-o", spec])
        main(["gen", "montgomery", "-k", "8", "-o", impl])
        assert (
            main(
                ["verify", spec, impl, "-k", "8", "--method", "sat", "--budget", "10"]
            )
            == 2
        )


class TestRemovedJobsOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{spec}", "{impl}", "-k", "4", "--jobs", "2"],
            ["abstract", "{spec}", "-k", "4", "--jobs", "2"],
            ["reveng", "poly", "{spec}", "--jobs", "2"],
        ],
    )
    def test_jobs_is_a_usage_error(self, spec_path, impl_path, argv, capsys):
        # Abstraction has one path, the serial sweep: asking for cone
        # workers is an argparse error, not a silently ignored flag.
        argv = [a.format(spec=spec_path, impl=impl_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
