"""Command-line interface suite: dispatch, files, determinism, exit codes.

Runs the entry point in-process through ``main(argv)`` so exit codes and
file outputs are asserted directly; the reproducibility tests compare
whole CSV files byte for byte.
"""

import csv
import inspect
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sqglab.cli
import sqglab.lab
import sqglab.mild
import sqglab.uniqueness
from sqglab.cli import (
    _ALL_KEYS,
    _KEY_TYPES,
    _LEMMAS,
    _RANDOMIZED_LEMMAS,
    LEMMA_IDS,
    UNIQUENESS_CASES,
    RunConfig,
    build_config,
    build_parser,
    _fmt_cell,
    load_config_file,
    main,
)
from sqglab.littlewood import build_bank
from sqglab.mild import march
from sqglab.spectral import ParameterError, shared_grid


# committed outputs of the benchmark's march workload; read, never written
MARCH_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def run_cli(*argv):
    return main(list(argv))


def run_cli_quietly(*argv):
    """run_cli, failing on any warning the run raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv)
    assert [str(w.message) for w in caught] == []
    return code


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("parameter error: ") and err.count("\n") == 1, err


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# Recorded CLI outputs and exit codes.  A change that leaves the arithmetic
# alone reproduces them byte for byte; a change to the arithmetic rewrites
# them once with `PYTHONPATH=src python tests/test_cli.py` and states the
# largest relative change.
GOLDEN = Path(__file__).resolve().parent / "golden"
_SEEDED = ("--seed", "3", "--trials", "3")
_RANDOMIZED = (
    "bernstein",
    "semigroup-decay",
    "paraproduct",
    "bilinear-diagonal",
    "advection-commutator",
    "riesz-commutator",
    "commutators",
    "velocity-multiplier",
)
# (golden name, verify-lemma arguments, config-file text)
GOLDEN_CASES = [(lemma, (lemma, *_SEEDED), "") for lemma in _RANDOMIZED] + [
    ("duhamel-smoothing", ("duhamel-smoothing",), ""),
    # exits 2: the fitted slope misses the alpha = 1.25 exponent
    ("duhamel-smoothing-alpha1.25", ("duhamel-smoothing", "--alpha", "1.25"), ""),
    ("bernstein-p4", ("bernstein", *_SEEDED, "--p", "4"), ""),
    ("velocity-multiplier-q2", ("velocity-multiplier", *_SEEDED, "--q", "2"), ""),
    ("paraproduct-eps0.4", ("paraproduct", *_SEEDED), "eps = 0.4\n"),
    (
        "bilinear-diagonal-s_prime-0.25",
        ("bilinear-diagonal", *_SEEDED),
        "s_prime = -0.25\n",
    ),
    # exits 2: each family skips trial 1, and every kept riesz ratio is 0;
    # each row keeps its own trial under its own family's label
    (
        "commutators-skip",
        ("commutators", "--n", "32", "--box", "5.5e-14", "--trials", "8", "--seed", "1"),
        "",
    ),
]


# The march-side commands, kept under golden/<command>/<case>.
# (golden path, command arguments, config-file text)
COMMAND_GOLDEN_CASES = [
    ("counterexample/a1", ("counterexample", "a1"), ""),
    ("counterexample/a3", ("counterexample", "a3"), ""),
    # the other branch of each table: a3 diverges, a1 grows by 2^(3/2)
    ("counterexample/a1-s-0.75", ("counterexample", "a1", "--s", "-0.75"), ""),
    ("counterexample/a3-s-0.75", ("counterexample", "a3", "--s", "-0.75"), ""),
    ("continuity/n512", ("continuity", "--n", "512"), ""),
    # exits 2: at n = 64 the unit-tail distance drops below half its start
    ("continuity/n64", ("continuity", "--n", "64"), ""),
    ("solve/smooth", ("solve", "--n", "64", "--T", "0.02"), ""),
    (
        "solve/random-seed3",
        ("solve", "--n", "64", "--T", "0.02", "--seed", "3"),
        "data = random\n",
    ),
    ("uniqueness/endpoint", ("uniqueness", "endpoint"), ""),
    ("uniqueness/alpha1", ("uniqueness", "alpha1"), ""),
    ("uniqueness/mid", ("uniqueness", "mid"), ""),
    ("uniqueness/super", ("uniqueness", "super"), ""),
]


def all_golden_cases():
    """(golden path, full CLI arguments, config-file text) of every golden."""
    verify = [
        (f"verify/{name}", ("verify-lemma", *argv), text)
        for name, argv, text in GOLDEN_CASES
    ]
    return verify + COMMAND_GOLDEN_CASES


def run_golden_case(argv, config_text, workdir):
    """One single-threaded CLI run; returns (exit code, output dir)."""
    out = workdir / "out"
    config = ()
    if config_text:
        cfg = workdir / "run.cfg"
        cfg.write_text(config_text, encoding="utf-8")
        config = ("--config", str(cfg))
    code = run_cli(*argv, *config, "--threads", "1", "--out", str(out))
    return code, out


def assert_matches_golden(path, argv, config_text, workdir):
    code, out = run_golden_case(argv, config_text, workdir)
    golden = GOLDEN / path
    assert code == int((golden / "exit_code").read_text(encoding="utf-8"))
    files = sorted(p.name for p in golden.iterdir() if p.name != "exit_code")
    assert sorted(p.name for p in out.iterdir()) == files
    for fname in files:
        assert read_bytes(out / fname) == read_bytes(golden / fname), fname


def record_goldens():
    for path, argv, config_text in all_golden_cases():
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_golden_case(argv, config_text, Path(tmp))
            target = GOLDEN / path
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out, target)
            (target / "exit_code").write_text(f"{code}\n", encoding="utf-8")


class TestConfigHandling:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1.75\nn=64\n# a comment\n\nq=inf\n", encoding="utf-8")
        values = load_config_file(str(cfg))
        assert values == {"alpha": 1.75, "n": 64, "q": math.inf}
        parser = build_parser()
        args = parser.parse_args(
            ["solve", "--config", str(cfg), "--n", "128", "--out", str(tmp_path)]
        )
        config = build_config(args)
        assert config.alpha == 1.75  # from the file
        assert config.n == 128  # flag wins
        assert config.q == math.inf

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma=2\n", encoding="utf-8")
        with pytest.raises(ParameterError):
            load_config_file(str(cfg))

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 2.0\n", encoding="utf-8")
        with pytest.raises(ParameterError):
            load_config_file(str(cfg))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_config_file(str(tmp_path / "absent.cfg"))

    def test_type_errors_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=large\n", encoding="utf-8")
        with pytest.raises(ParameterError):
            load_config_file(str(cfg))

    def test_validation_ranges(self):
        with pytest.raises(ParameterError):
            RunConfig(command="solve", dt=-0.1).validate()
        with pytest.raises(ParameterError):
            RunConfig(command="solve", trials=0).validate()
        with pytest.raises(ParameterError):
            RunConfig(command="solve", data="garbage").validate()
        RunConfig(command="solve").validate()


class TestExitCodes:
    def test_bad_flag_value_exits_one(self, tmp_path, capsys, monkeypatch):
        # the budget refusals come first: no seed is spawned, no thread started
        def unreachable(*args, **kwargs):
            raise AssertionError("a refused run reached the trial loop")

        monkeypatch.setattr(np.random, "SeedSequence", unreachable)
        monkeypatch.setattr(sqglab.lab, "ThreadPoolExecutor", unreachable)
        seeded = ("--seed", "1", "--trials", "1", "--n", "32")
        huge = str(10**9)
        for argv in (
            ("solve", "--dt", "-1"),
            # numpy refuses a negative seed
            ("verify-lemma", "bernstein", "--seed", "-1", "--trials", "1", "--n", "32"),
            # a1 starts at 2 terms and reads the growth between two rows
            ("counterexample", "a1", "--trials", "2"),
            # the lower-bound sum overflows at N = 43, one row before the pairing
            ("counterexample", "a1", "--s", "-12", "--trials", "43"),
            # 1/p of a zero exponent
            ("verify-lemma", "bilinear-diagonal", *seeded, "--p", "0"),
            # the wavenumbers of so small a box overflow
            ("uniqueness", "mid", "--n", "16", "--box", "5e-324"),
            # over the input budget: a complex 2^20 grid array takes 16 TiB
            ("solve", "--n", "1048576", "--T", "0.01"),
            ("verify-lemma", "bernstein", "--seed", "1", "--trials", huge, "--n", "32"),
            ("verify-lemma", "bernstein", *seeded, "--threads", huge),
            ("counterexample", "a3", "--trials", huge),
        ):
            assert run_cli_quietly(*argv, "--out", str(tmp_path)) == 1
            assert_one_error_line(capsys)

    def test_unknown_command_exits_one(self):
        assert run_cli("explode") == 1

    def test_unknown_lemma_exits_one(self):
        assert run_cli("verify-lemma", "nonsense") == 1

    def test_missing_seed_exits_one(self, tmp_path):
        assert run_cli("verify-lemma", "bernstein", "--out", str(tmp_path)) == 1

    def test_alpha_window_exits_one(self, tmp_path):
        assert (
            run_cli("uniqueness", "endpoint", "--alpha", "1.2", "--out", str(tmp_path))
            == 1
        )

    # T/8 is half a step of the default dt, then a step and a half
    @pytest.mark.parametrize("T", ["0.01", "0.03"])
    def test_uniqueness_step_rule_names_t_and_dt(self, tmp_path, capsys, T):
        assert run_cli("uniqueness", "endpoint", "--T", T, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "parameter error: uniqueness marches to T/8, T/4, T/2 and T, so T/8 must "
            f"be a whole number of steps dt, at least one: got T={T}, dt=0.0025\n"
        )

    def test_uniqueness_twin_step_is_refused_before_the_first_march(
        self, tmp_path, capsys, monkeypatch
    ):
        # at n = 256 the ladder's dt keeps dt * k_max^alpha at 36.2, inside
        # the bound of 40, and the twins' 2 dt does not
        def unreachable(*args, **kwargs):
            raise AssertionError("a refused run reached the ladder")

        monkeypatch.setattr(sqglab.cli, "contraction_ladder", unreachable)
        assert run_cli("uniqueness", "endpoint", "--n", "256", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "parameter error: the twin runs march to T/4 at 2*dt = 0.005: "
            "dt * k_max^alpha = 72.3 exceeds 40; reduce dt or the resolution\n"
        )
        assert list(tmp_path.iterdir()) == []

    # s < 0 is checked once, where the bump coefficients are built
    @pytest.mark.parametrize("target", ["a1", "a3"])
    @pytest.mark.parametrize("s", ["0", "0.5"])
    def test_counterexample_refuses_nonnegative_s(self, tmp_path, capsys, target, s):
        assert run_cli("counterexample", target, "--s", s, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"parameter error: bump construction requires s < 0, got {float(s)}\n"
        )

    def test_duhamel_ladder_rule_names_alpha_and_depth(self, tmp_path, capsys):
        # alpha * (j_max - 4) = 2 at the default n = 256 leaves the ladder empty
        argv = ("verify-lemma", "duhamel-smoothing", "--alpha", "1", "--out", str(tmp_path))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            "parameter error: the default horizon ladder needs alpha * (j_max - 4) > 2, "
            "got alpha=1.0 with j_max=6 (n=256, box=6.28319)\n"
        )

    @pytest.mark.parametrize(
        "horizon",
        [
            ("--T", "inf"),
            ("--T", "1e308", "--dt", "1e-308"),
            ("--n", "16", "--T", "1e300", "--dt", "1e-3"),
        ],
    )
    def test_unrepresentable_horizon_exits_one(self, tmp_path, capsys, horizon):
        assert run_cli("solve", *horizon, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("parameter error: ")

    # the step rules name the horizon by its key, T
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "--T", "0.001"), "horizon T=0.001 must be at least one step dt=0.0025"),
            (
                ("uniqueness", "mid", "--T", "0.001"),
                "horizon T=0.001 must be at least one step dt=0.0025",
            ),
            (
                ("solve", "--n", "32", "--T", "0.0101"),
                "T=0.0101 is not an integer multiple of dt=0.0025",
            ),
            (
                ("solve", "--T", "1e300", "--dt", "1e-300"),
                "step count T/dt = 1e+300/1e-300 overflows",
            ),
        ],
    )
    def test_step_rules_name_t(self, tmp_path, capsys, argv, message):
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"parameter error: {message}\n"

    def test_blow_up_exits_two_and_writes_nothing(self, tmp_path, capsys):
        argv = ("solve", "--alpha", "0.5", "--box", "1e-6", "--n", "64", "--data", "random")
        assert run_cli(*argv, "--seed", "1", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("run blew up: ")
        assert list(tmp_path.glob("*.csv")) == []

    def test_depth_flag_removed(self, tmp_path, capsys):
        # the ETD2 march has no Picard depth to set
        assert run_cli("solve", "--depth", "3", "--out", str(tmp_path)) == 1
        assert "unrecognized arguments: --depth" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["delta = 0.1", "depth = 3"])
    def test_dead_config_keys_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ")
        assert "unknown key" in err

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe n = 32\n")
        assert run_cli_quietly("solve", "--config", str(cfg), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"parameter error: cannot read config file {cfg}: " + (
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "argv, config_text",
        [
            (("bernstein", "--seed", "1", "--alpha", "1.0"), ""),
            # deterministic: no seed to set
            (("duhamel-smoothing", "--seed", "1"), ""),
            (("riesz-commutator", "--seed", "1", "--trials", "1"), "s = -0.25\n"),
        ],
    )
    def test_unread_lemma_key_exits_one(self, tmp_path, capsys, argv, config_text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text, encoding="utf-8")
        argv = ("verify-lemma", *argv, "--config", str(cfg), "--out", str(tmp_path))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ")
        assert "does not read" in err

    @pytest.mark.parametrize(
        "argv, config_text",
        [
            (("counterexample", "a1", "--n", "64"), ""),
            (("counterexample", "a3", "--alpha", "1.5"), ""),
            (("continuity", "--n", "64", "--trials", "7"), ""),
            # smooth data has no seed to read
            (("solve", "--n", "32", "--seed", "3"), ""),
            (("solve", "--n", "32", "--seed", "3"), "data = zero\n"),
            (("uniqueness", "endpoint", "--n", "32", "--q", "2"), ""),
            (("uniqueness", "super", "--n", "32"), "p = 4\n"),
        ],
    )
    def test_unread_command_key_exits_one(self, tmp_path, capsys, argv, config_text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text, encoding="utf-8")
        argv = (*argv, "--config", str(cfg), "--out", str(tmp_path))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ")
        assert "does not read" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_random_solve_reads_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = random\n", encoding="utf-8")
        argv = ("solve", "--n", "32", "--T", "0.005", "--seed", "3", "--config", str(cfg))
        assert run_cli(*argv, "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize(
        "argv, p",
        [
            (("continuity",), "2"),
            (("verify-lemma", "duhamel-smoothing"), "4"),
        ],
    )
    def test_packets_under_the_energy_floor_exit_one(self, tmp_path, capsys, argv, p):
        # on a 1e-272 box every block norm lies below the absolute floor
        # 1e-14, though no level is empty
        assert run_cli_quietly(*argv, "--n", "32", "--box", "1e-272", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"parameter error: every nonempty level with a nonzero amplitude has a kernel "
            f"L^{p} norm below the energy floor 1e-14 on grid n=32, box_length=1e-272\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_continuity_norm_exits_one(self, tmp_path, capsys):
        # 2^(150 j) is finite, but the squared norms of the packets are not
        argv = ("continuity", "--n", "64", "--s", "-150", "--out", str(tmp_path))
        assert run_cli_quietly(*argv) == 1
        assert_one_error_line(capsys)
        assert not (tmp_path / "continuity.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("continuity", "--n", "64", "--s", "-2000"),
            ("continuity", "--n", "64", "--s", "1500"),
            ("verify-lemma", "velocity-multiplier", "--seed", "1", "--trials", "1",
             "--n", "32", "--s", "-2000"),
            # 2^(s j) overflows inside the trial workers
            ("verify-lemma", "velocity-multiplier", "--seed", "1", "--trials", "1",
             "--n", "32", "--s", "300"),
            ("counterexample", "a1", "--s", "-2000", "--trials", "3"),
            ("counterexample", "a3", "--s", "-2000", "--trials", "3"),
        ],
    )
    def test_overflowing_regularity_exits_one(self, tmp_path, capsys, argv):
        # 2^(-s j) leaves the float range; no traceback or warning may escape main
        assert run_cli_quietly(*argv, "--out", str(tmp_path)) == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("counterexample", "a3", "--s", "-1e-1", "--trials", "3"), 0),
            # the continuity verdict at s = -1/2 on n = 64 is a fail
            (("continuity", "--n", "64", "--s", "-5e-1"), 2),
        ],
    )
    def test_negative_float_in_scientific_notation_is_a_value(self, tmp_path, capsys, argv, code):
        # argparse takes a token such as -1e-1 for an option unless told
        # otherwise, and the CSVs and summaries print negative floats so
        at = argv.index("--s")
        joined = (*argv[:at], f"--s={argv[at + 1]}", *argv[at + 2 :])
        outputs = []
        for name, args in (("spaced", argv), ("joined", joined)):
            out = tmp_path / name
            assert run_cli(*args, "--out", str(out)) == code
            captured = capsys.readouterr()
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            outputs.append((captured.out.replace(str(out), "OUT"), captured.err, files))
        assert outputs[0] == outputs[1]

    def test_infinite_values_are_values(self, tmp_path, capsys):
        assert run_cli("continuity", "--n", "64", "--s", "-inf", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == "parameter error: regularity s must be finite, got -inf\n"
        assert run_cli("solve", "--n", "32", "--box", "inf", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "parameter error: box_length must be positive and finite, got inf\n"
        )

    @pytest.mark.parametrize("box", ("0", "-inf", "inf", "nan"))
    def test_box_is_refused_in_one_place_with_one_wording(self, tmp_path, capsys, box):
        # Grid2 checks the box for every command that builds a grid; no
        # earlier check words it otherwise
        for argv in (("solve", "--n", "32"), ("verify-lemma", "bernstein", "--seed", "1")):
            assert run_cli(*argv, "--box", box, "--out", str(tmp_path)) == 1
            assert capsys.readouterr().err == (
                f"parameter error: box_length must be positive and finite, got {float(box)}\n"
            )

    def test_unresolvable_divergence_exits_two(self, tmp_path):
        # just past the divergence threshold the growth per term is too
        # slow to certify at this truncation, and the command says so
        assert (
            run_cli("counterexample", "a3", "--s", "-0.52", "--out", str(tmp_path))
            == 2
        )


class TestSolveCommand:
    def test_zero_data_all_zero_norms(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("data=zero\n", encoding="utf-8")
        code = run_cli(
            "solve",
            "--config",
            str(cfg),
            "--T",
            "0.02",
            "--dt",
            "0.005",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        rows = read_csv(tmp_path / "solve.csv")
        assert rows[0][0].startswith("time [")
        assert "reference: solve" in rows[0][0]
        body = np.array([[float(v) for v in row] for row in rows[1:]])
        assert body.shape == (5, 5)
        assert np.all(body[:, 1:] == 0.0)

    def test_smooth_run_writes_norm_table(self, tmp_path):
        code = run_cli(
            "solve",
            "--alpha",
            "1.5",
            "--T",
            "0.02",
            "--dt",
            "0.005",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        rows = read_csv(tmp_path / "solve.csv")
        header = rows[0]
        assert [h.split(" [")[0] for h in header] == [
            "time",
            "l2",
            "l4",
            "linf",
            "mean",
        ]
        l2 = [float(r[1]) for r in rows[1:]]
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(l2, l2[1:]))
        summary = (tmp_path / "solve-summary.txt").read_text(encoding="utf-8")
        assert summary.endswith("status = pass\n")

    def test_random_data_requires_seed(self, tmp_path):
        cfg = tmp_path / "rand.cfg"
        cfg.write_text("data=random\n", encoding="utf-8")
        assert (
            run_cli(
                "solve",
                "--config",
                str(cfg),
                "--T",
                "0.02",
                "--dt",
                "0.005",
                "--out",
                str(tmp_path),
            )
            == 1
        )


class TestVerifyLemmaCommand:
    def test_bernstein_at_large_finite_p(self, tmp_path):
        # its block L^1000 norms read 0.0 once the p-th powers underflowed,
        # and the run exited 1 on a non-finite ratio
        argv = ("verify-lemma", "bernstein", "--p", "1000", "--seed", "1", "--trials", "2")
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        ratios = [float(r[2]) for r in read_csv(tmp_path / "bernstein.csv")[1:]]
        assert ratios and all(0.0 < r < math.inf for r in ratios)

    def test_bernstein_fails_when_every_block_is_skipped(self, tmp_path):
        # every block of a 1e-272 box lies below the energy floor, and the
        # p = 2 verdict passed on gradient_sup = 0.0 <= 4/3 with no data
        argv = ("verify-lemma", "bernstein", "--n", "32", "--box", "1e-272")
        argv += ("--trials", "2", "--seed", "1", "--threads", "1")
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        summary = (tmp_path / "bernstein-summary.txt").read_text(encoding="utf-8")
        assert "sup_constant = 0.000000000000000e+00" in summary
        assert summary.endswith("status = fail\n")

    def test_bernstein_passes_with_empty_low_levels(self, tmp_path):
        # levels 2 and 3 of a pi/8 box hold no lattice point: skipped
        # counts blocks, and reads more than the trials while every other
        # block is kept
        argv = ("verify-lemma", "bernstein", "--n", "64", "--box", repr(math.pi / 8.0))
        argv += ("--trials", "2", "--seed", "1", "--threads", "1")
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        summary = (tmp_path / "bernstein-summary.txt").read_text(encoding="utf-8")
        assert "skipped = 4\n" in summary

    def test_bernstein_rows_and_summary(self, tmp_path):
        code = run_cli(
            "verify-lemma", "bernstein", "--seed", "11", "--out", str(tmp_path)
        )
        assert code == 0
        rows = read_csv(tmp_path / "bernstein.csv")
        header = rows[0]
        assert [h.split(" [")[0] for h in header] == ["trial", "j", "ratio"]
        assert "reference: bernstein" in header[0]
        body = rows[1:]
        # 20 trials x 6 levels x 2 families, rectangular attribution
        assert len(body) == 20 * 6 * 2
        trials = sorted({int(r[0]) for r in body})
        assert trials == list(range(20))
        levels = sorted({int(r[1]) for r in body})
        assert levels == [2, 3, 4, 5, 6, 7]
        summary = (tmp_path / "bernstein-summary.txt").read_text(encoding="utf-8")
        assert "gradient_sup" in summary
        assert summary.endswith("status = pass\n")

    def test_semigroup_decay_without_blocks_fails(self, tmp_path):
        # on a box this small every block falls below the energy floor,
        # so no decay rate is fitted and the verdict cannot pass
        argv = ("semigroup-decay", "--seed", "1", "--trials", "1", "--n", "32", "--box", "1e-30")
        assert run_cli("verify-lemma", *argv, "--out", str(tmp_path)) == 2
        summary = (tmp_path / "semigroup-decay-summary.txt").read_text(encoding="utf-8")
        assert "c_fit_min = nan\n" in summary
        assert summary.endswith("status = fail\n")

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, threads in ((a, "1"), (b, "3")):
            code = run_cli(
                "verify-lemma",
                "bernstein",
                "--seed",
                "11",
                "--threads",
                threads,
                "--out",
                str(out),
            )
            assert code == 0
        assert read_bytes(a / "bernstein.csv") == read_bytes(b / "bernstein.csv")
        assert read_bytes(a / "bernstein-summary.txt") == read_bytes(
            b / "bernstein-summary.txt"
        )

    def test_duhamel_smoothing_deterministic_no_seed(self, tmp_path):
        code = run_cli("verify-lemma", "duhamel-smoothing", "--out", str(tmp_path))
        assert code == 0
        summary = (tmp_path / "duhamel-smoothing-summary.txt").read_text(
            encoding="utf-8"
        )
        slope = next(
            float(line.split(" = ")[1])
            for line in summary.splitlines()
            if line.startswith("slope ")
        )
        assert abs(slope - 2.906770718212571e-1) < 1e-9

    def test_semigroup_decay_passes_every_seed(self, tmp_path):
        # on the default quarter box level 2 holds only the shell |k| = 2^j,
        # so the fitted exponent is 1 up to its last bit; the annulus edges
        # (3/8)^alpha and (4/3)^alpha bound it with room on both sides
        for seed in range(1, 13):
            out = tmp_path / str(seed)
            code = run_cli(
                "verify-lemma", "semigroup-decay", "--seed", str(seed), "--out", str(out)
            )
            assert code == 0, seed
            summary = (out / "semigroup-decay-summary.txt").read_text(encoding="utf-8")
            assert "c_ceiling = " in summary
            assert summary.endswith("status = pass\n")

    def test_riesz_commutator_full_box_default(self, tmp_path):
        code = run_cli(
            "verify-lemma", "riesz-commutator", "--seed", "7", "--out", str(tmp_path)
        )
        assert code == 0
        rows = read_csv(tmp_path / "riesz-commutator.csv")
        assert len(rows) == 1 + 20
        assert all(float(r[2]) > 0.0 for r in rows[1:])


class TestOneLemmaPath:
    # verify-lemma writes what its verifier's report carries, and nothing
    # else: the rows, the summary lines in order and the verdict
    @pytest.mark.parametrize("lemma", LEMMA_IDS)
    def test_outputs_are_the_report(self, tmp_path, lemma):
        verify, _, defaults = _LEMMAS[lemma]
        args = {k: v for k, v in defaults.items() if k not in ("n", "box")}
        assert args.keys() <= inspect.signature(verify).parameters.keys()
        n, box = defaults["n"], defaults["box"]
        argv = ("verify-lemma", lemma, "--threads", "1", "--out", str(tmp_path))
        if lemma in _RANDOMIZED_LEMMAS:
            n = 32
            args.update(trials=2, seed=1, threads=1)
            argv += ("--n", "32", "--trials", "2", "--seed", "1")
        report = verify(build_bank(shared_grid(n, box)), **args)
        # the traced benchmark pass counts these two from every report
        assert type(report.trials) is int and type(report.skipped) is int
        assert run_cli(*argv) == (0 if report.passed else 2)
        assert report.rows
        rows = read_csv(tmp_path / f"{lemma}.csv")[1:]
        assert rows == [[_fmt_cell(v) for v in row] for row in report.rows]
        summary = (tmp_path / f"{lemma}-summary.txt").read_text(encoding="utf-8")
        lines = [f"{key} = {_fmt_cell(v)}" for key, v in report.summary.items()]
        assert summary.splitlines()[1:-1] == lines


class TestVerifyGoldens:
    @pytest.mark.parametrize(
        "name, argv, config_text",
        [pytest.param(*case, id=case[0]) for case in GOLDEN_CASES]
        + [
            # the config-file goldens again, with the key given as a flag
            pytest.param(
                "paraproduct-eps0.4",
                ("paraproduct", *_SEEDED, "--eps", "0.4"),
                "",
                id="paraproduct-eps-flag",
            ),
            pytest.param(
                "bilinear-diagonal-s_prime-0.25",
                ("bilinear-diagonal", *_SEEDED, "--s_prime", "-0.25"),
                "",
                id="bilinear-diagonal-s_prime-flag",
            ),
        ],
    )
    def test_bytes_and_exit_code(self, tmp_path, name, argv, config_text):
        assert_matches_golden(
            f"verify/{name}", ("verify-lemma", *argv), config_text, tmp_path
        )


class TestCommandGoldens:
    # the march side: none of these outputs may move by a single byte
    @pytest.mark.parametrize(
        "path, argv, config_text",
        [pytest.param(*case, id=case[0]) for case in COMMAND_GOLDEN_CASES],
    )
    def test_bytes_and_exit_code(self, tmp_path, path, argv, config_text):
        assert_matches_golden(path, argv, config_text, tmp_path)


class TestCounterexampleCommand:
    def test_a1_table_matches_oracle(self, tmp_path):
        code = run_cli("counterexample", "a1", "--out", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "counterexample-a1.csv")
        assert [h.split(" [")[0] for h in rows[0]] == [
            "N",
            "pairing",
            "lower_bound",
            "ratio",
        ]
        body = rows[1:]
        assert [int(r[0]) for r in body] == list(range(2, 13))
        values = [float(r[1]) for r in body]
        assert all(b > a for a, b in zip(values, values[1:]))
        ratios = [float(r[3]) for r in body]
        assert max(ratios) / min(ratios) < 1.001

    def test_a3_convergent_certificate(self, tmp_path):
        code = run_cli("counterexample", "a3", "--out", str(tmp_path))
        assert code == 0
        summary = (tmp_path / "counterexample-a3-summary.txt").read_text(
            encoding="utf-8"
        )
        assert "verdict = converges" in summary

    def test_a3_divergent_certificate(self, tmp_path):
        code = run_cli(
            "counterexample", "a3", "--s", "-0.75", "--out", str(tmp_path)
        )
        assert code == 0
        summary = (tmp_path / "counterexample-a3-summary.txt").read_text(
            encoding="utf-8"
        )
        assert "verdict = diverges" in summary

    def test_truncation_flag(self, tmp_path):
        code = run_cli(
            "counterexample", "a1", "--trials", "4", "--out", str(tmp_path)
        )
        assert code == 0
        rows = read_csv(tmp_path / "counterexample-a1.csv")
        assert [int(r[0]) for r in rows[1:]] == [2, 3, 4]


class TestUniquenessCommand:
    def test_endpoint_ladder_and_twins(self, tmp_path):
        code = run_cli("uniqueness", "endpoint", "--out", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "uniqueness-endpoint.csv")
        body = rows[1:]
        assert len(body) == 4
        factors = [float(r[1]) for r in body]
        assert all(a < b for a, b in zip(factors, factors[1:]))
        assert factors[0] < 1.0
        summary = (tmp_path / "uniqueness-endpoint-summary.txt").read_text(
            encoding="utf-8"
        )
        assert "identical_twin_gap = 0.000000000000000e+00" in summary
        assert summary.endswith("status = pass\n")

    def test_each_configuration_solved_once(self, tmp_path, monkeypatch):
        # only the twin configuration (T/4, 2 dt) from theta0 is solved
        # twice: the second solve is the determinism check.  Every solve
        # is one march; the ladder marches the solution and, beside it,
        # the linear evolution of the same datum.  The twins' dt/2
        # refinement (T/4, dt) is the ladder's own march, not a sixth
        # nonlinear one
        calls = []

        def counting_march(theta0, params):
            calls.append((theta0, params))
            return march(theta0, params)

        # every module that binds march; the cli's binding serves only
        # the solve command
        for module in (sqglab.mild, sqglab.uniqueness):
            monkeypatch.setattr(module, "march", counting_march)
        argv = ("uniqueness", "endpoint", "--T", "0.04", "--threads", "1")
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        linear = [params for _, params in calls if not params.nonlinear]
        assert [params.n_steps() for params in linear] == [16]
        calls = [(datum, params) for datum, params in calls if params.nonlinear]
        assert len(calls) == 5
        assert sum(params.n_steps() for _, params in calls) == 30
        assert not any((params.t_final, params.dt) == (0.01, 0.0025) for _, params in calls)
        theta0 = calls[0][0]  # the ladder's march from the command's datum
        twins = [
            datum
            for datum, params in calls
            if (params.t_final, params.dt) == (0.01, 0.005)
        ]
        assert sum(np.array_equal(d.coef, theta0.coef) for d in twins) == 2

    def test_alpha_one_combined_norm(self, tmp_path):
        code = run_cli("uniqueness", "alpha1", "--out", str(tmp_path))
        assert code == 0
        summary = (tmp_path / "uniqueness-alpha1-summary.txt").read_text(
            encoding="utf-8"
        )
        assert "riesz_low = true" in summary
        assert "norm_s = -2.500000000000000e-01" in summary
        assert summary.endswith("status = pass\n")


class TestMarchOutputsFrozen:
    # the benchmark's march workload compares these outputs against its
    # references; any last-digit drift there fails the whole workload
    @pytest.mark.parametrize("case", ["endpoint", "alpha1", "mid", "super"])
    def test_bytes_match_benchmark_reference(self, tmp_path, case):
        argv = ("uniqueness", case, "--T", "0.04", "--n", "128", "--threads", "1")
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        slug = f"uniqueness-{case}"
        for suffix in (".csv", "-summary.txt"):
            got = read_bytes(tmp_path / f"{slug}{suffix}")
            assert got == read_bytes(MARCH_REFERENCE / f"march.{slug}{suffix}"), suffix

    def test_random_solve_matches_benchmark_reference(self, tmp_path):
        # the summary and the time, linf and mean columns match byte for
        # byte; the l2 and l4 columns have differed from the reference in
        # the last digits since it was recorded, so they are held to the
        # benchmark's own relative tolerance, 1e-6
        config = tmp_path / "random.cfg"
        config.write_text("data = random\n", encoding="utf-8")
        argv = ("solve", "--seed", "2", "--threads", "1", "--config", str(config))
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        ref = MARCH_REFERENCE / "march.solve.seed2"
        got = read_bytes(tmp_path / "solve-summary.txt")
        assert got == read_bytes(ref.with_name(ref.name + "-summary.txt"))
        got, want = read_csv(tmp_path / "solve.csv"), read_csv(ref.with_name(ref.name + ".csv"))
        assert got[0] == want[0] and len(got) == len(want)
        for row, ref_row in zip(got[1:], want[1:]):
            assert [row[0], *row[3:]] == [ref_row[0], *ref_row[3:]]
            for a, b in zip(row[1:3], ref_row[1:3]):
                assert math.isclose(float(a), float(b), rel_tol=1e-6)


class TestContinuityCommand:
    def test_dichotomy_table(self, tmp_path):
        code = run_cli("continuity", "--out", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "continuity.csv")
        body = np.array([[float(v) for v in row] for row in rows[1:]])
        assert body.shape == (4, 3)
        # vanishing-tail distance collapses, unit-tail distance holds
        assert body[0, 1] / body[-1, 1] > 10.0
        assert body[:, 2].min() >= 0.5 * body[0, 2]
        summary = (tmp_path / "continuity-summary.txt").read_text(encoding="utf-8")
        assert summary.endswith("status = pass\n")

    def test_empty_annulus_exits_cleanly(self, tmp_path):
        # level 1 of the quarter box holds no lattice point
        argv = ("continuity", "--n", "128", "--box", "1.5707963267948966")
        assert run_cli(*argv, "--out", str(tmp_path)) in (0, 1, 2)


if __name__ == "__main__":
    record_goldens()


# ---------------------------------------------------------------------------
# Fuzzing: any flag values exit 0, 1 or 2 without a traceback
# ---------------------------------------------------------------------------

# every command with the keys it reads besides n, box, out and threads;
# n, T and trials are always set, small, so that a run stays short
_FUZZ_KEYS = {
    ("solve",): ("alpha", "dt", "data"),
    ("continuity",): ("alpha", "s", "p"),
    ("counterexample", "a1"): ("s",),
    ("counterexample", "a3"): ("s",),
    **{("uniqueness", case): ("alpha", "dt", "s") for case in UNIQUENESS_CASES},
    ("verify-lemma", "bernstein"): ("p", "seed"),
    ("verify-lemma", "semigroup-decay"): ("alpha", "p", "seed"),
    ("verify-lemma", "paraproduct"): ("s", "eps", "p", "q", "seed"),
    ("verify-lemma", "bilinear-diagonal"): ("s", "s_prime", "p", "q", "seed"),
    ("verify-lemma", "advection-commutator"): ("seed",),
    ("verify-lemma", "riesz-commutator"): ("seed",),
    ("verify-lemma", "commutators"): ("seed",),
    ("verify-lemma", "velocity-multiplier"): ("s", "q", "seed"),
    ("verify-lemma", "duhamel-smoothing"): ("alpha", "p", "q"),
}
_EDGE_FLOATS = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
# values inside or near each key's working range, drawn most of the time
_FUZZ_VALUES = {
    "alpha": st.sampled_from([0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]) | st.floats(0.1, 2.5),
    "s": st.floats(-2.0, 1.0),
    "s_prime": st.floats(-2.0, 1.0),
    "eps": st.floats(0.0, 2.0),
    "p": st.sampled_from([1.0, 2.0, 4.0, math.inf]) | st.floats(0.5, 16.0),
    "q": st.sampled_from([1.0, 2.0, math.inf]) | st.floats(0.5, 16.0),
    "box": st.sampled_from([2.0 * math.pi, 0.5 * math.pi]) | st.floats(0.1, 20.0),
    "dt": st.sampled_from([0.0025, 0.005]),
    "data": st.sampled_from(["smooth", "zero", "random"]),
    "seed": st.integers(0, 2**64),
}
# and the rest of the time a value at or past the edge of its range; an
# edge of n, T, dt or trials never asks for a bigger grid or more steps
_FUZZ_EDGES = {
    "threads": st.integers(-1, 0),
    "n": st.integers(-16, 15) | st.sampled_from([17, 24, 33, 48]),
    "trials": st.integers(-2, 0),
    "T": st.sampled_from(_EDGE_FLOATS) | st.floats(0.0, 0.04),
    "dt": st.sampled_from(_EDGE_FLOATS),
    "data": st.just("noise"),
    "seed": st.integers(-2, -1),
}
_DT = 0.0025


def _flag(key, value) -> str:
    # --key=value, so that a value such as -1e+300 is not read as a flag
    return f"--{key}={value!r}" if isinstance(value, float) else f"--{key}={value}"


@st.composite
def cli_runs(draw):
    """argv of one short CLI run with fuzzed flag values."""
    command = draw(st.sampled_from(sorted(_FUZZ_KEYS)))

    def value(key, usual):
        if draw(st.integers(0, 15)) > 0:
            return draw(usual)
        return draw(_FUZZ_EDGES.get(key, st.sampled_from(_EDGE_FLOATS) | st.floats()))

    def maybe(key):
        return draw(st.none() | st.just(value(key, _FUZZ_VALUES[key])))

    flags = {"threads": value("threads", st.integers(1, 2))}
    if command[0] != "counterexample":
        # below n = 32 a verifier's bank is too shallow
        flags["n"] = value("n", st.sampled_from([16, 32, 64] if command[0] != "verify-lemma" else [32, 64]))
        flags["box"] = maybe("box")
    if command[0] == "solve":
        flags["T"] = value("T", st.integers(1, 16).map(lambda k: k * _DT))
    if command[0] == "uniqueness":
        # the ladder halves T three times and the twins step 2 dt to T/4
        flags["T"] = value("T", st.sampled_from([8 * _DT, 12 * _DT, 16 * _DT]))
    if command[0] in ("counterexample", "verify-lemma") and command[1] != "duhamel-smoothing":
        flags["trials"] = value("trials", st.integers(1, 6))
    for key in _FUZZ_KEYS[command]:
        flags[key] = maybe(key)
    # a seed is read by the randomized lemmas and by random data only
    if "seed" in flags and command[0] == "verify-lemma" or flags.get("data") == "random":
        flags["seed"] = value("seed", _FUZZ_VALUES["seed"])
    argv = list(command)
    return argv + [_flag(key, v) for key, v in flags.items() if v is not None]


def _parses(kind, text) -> bool:
    try:
        kind(text.strip())
    except ValueError:
        return False
    return True


# one line of text, in any characters but the line breaks
_LINE = st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)))
_TYPED_KEYS = sorted(key for key in _ALL_KEYS if _KEY_TYPES[key] is not str)
# lines that no run may end in a traceback on: unknown keys, lines without
# "=" and known keys whose value has the wrong type; none can ask for a
# bigger grid, more steps or more threads
_BAD_CONFIG_LINES = (
    st.from_regex(r"[a-z_]{1,8}", fullmatch=True)
    .filter(lambda key: key not in _ALL_KEYS)
    .map(lambda key: f"{key} = 1".encode())
    | _LINE.filter(lambda line: "=" not in line).map(str.encode)
    | st.sampled_from(_TYPED_KEYS).flatmap(
        lambda key: _LINE.filter(lambda raw: not _parses(_KEY_TYPES[key], raw))
        .map(lambda raw: f"{key} = {raw}".encode())
    )
)
# and random bytes, most of them not UTF-8; with no "=" they set no key
_RANDOM_BYTES = st.binary(min_size=1, max_size=12).filter(lambda raw: b"=" not in raw)


@st.composite
def config_runs(draw):
    """argv of one short CLI run and the bytes of its --config file: some of
    the run's flags moved into the file, some of them twice, perhaps once
    more with another usual value, mixed with bad lines and random bytes."""
    argv = draw(cli_runs())
    flags = [a for a in argv if a.startswith("--")]
    moved = draw(st.lists(st.sampled_from(flags), unique=True)) if flags else []
    lines = [flag[2:].replace("=", " = ", 1).encode() for flag in moved]
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=2))
    for flag in moved:
        key = flag[2:].partition("=")[0]
        if key in _FUZZ_VALUES and draw(st.booleans()):
            lines.append(_flag(key, draw(_FUZZ_VALUES[key]))[2:].encode())
    lines += draw(st.lists(_BAD_CONFIG_LINES, max_size=1))
    lines += draw(st.lists(_RANDOM_BYTES, max_size=1))
    text = b"\n".join(draw(st.permutations(lines)))
    return [a for a in argv if a not in moved], text


class TestFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=cli_runs())
    def test_any_run_exits_cleanly(self, tmp_path, capsys, argv):
        # a traceback or an escaping warning fails here; exit 1 is a
        # parameter error, exit 2 a failed verdict or a blow-up
        assert run_cli(*argv, "--out", str(tmp_path)) in (0, 1, 2)
        capsys.readouterr()

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(run=config_runs())
    def test_any_config_file_exits_cleanly(self, tmp_path, capsys, run):
        argv, text = run
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path)) in (0, 1, 2)
        capsys.readouterr()
