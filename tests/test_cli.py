import csv
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sbmimo import cli
from sbmimo.bench import BerRecord, snr_range, summary_table
from sbmimo.cli import (
    ConfigError,
    build_parser,
    main,
    parse_command,
    parse_config,
)


GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestDefaults:
    def test_no_arguments_gives_documented_defaults(self):
        cfg = parse_config([])
        assert (cfg.nt, cfg.nr, cfg.modulation) == (16, 16, "qpsk")
        assert cfg.snr_db == snr_range(0.0, 25.0, 2.5)
        assert cfg.instances == 10_000
        assert cfg.detectors == ("mmse", "sb-reg")
        assert (cfg.sb.n_steps, cfg.sb.dt, cfg.sb.n_restarts) == (100, 0.5, 1)
        assert cfg.r == 0.5 and cfg.seed == 0 and cfg.workers == 1
        assert parse_command([]) == (cfg, None, None)


class TestFlagParsing:
    def test_snr_spec(self):
        cfg = parse_config(["--snr", "0:10:2.5", "--instances", "1"])
        assert cfg.snr_db == (0.0, 2.5, 5.0, 7.5, 10.0)

    def test_snr_list(self):
        cfg = parse_config(["--snr-list", "3,1.5,8", "--instances", "1"])
        assert cfg.snr_db == (3.0, 1.5, 8.0)

    def test_negative_first_snr_needs_the_equals_form(self, capsys):
        # argparse reads "-10,10" after a space as a flag, so the help text
        # gives the "=" form, which parses.
        cfg = parse_config(["--snr-list=-10,10", "--instances", "1"])
        assert cfg.snr_db == (-10.0, 10.0)
        cfg = parse_config(["--snr=-10:0:5", "--instances", "1"])
        assert cfg.snr_db == (-10.0, -5.0, 0.0)
        with pytest.raises(SystemExit):
            parse_config(["--snr-list", "-10,10"])
        assert "expected one argument" in capsys.readouterr().err
        help_text = build_parser().format_help()
        assert "--snr-list=-10,10" in help_text
        assert "--snr=-10:0:5" in help_text

    def test_snr_and_snr_list_flags_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse_command(["--snr", "0:10:5", "--snr-list", "5"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_detectors_csv(self):
        cfg = parse_config(
            ["--detectors", "mmse,sb,sb-reg", "--instances", "1"]
        )
        assert cfg.detectors == ("mmse", "sb", "sb-reg")

    def test_solver_flags_reach_params(self):
        cfg = parse_config(
            ["--steps", "250", "--dt", "0.25", "--restarts", "4",
             "--r", "0.7", "--instances", "1"]
        )
        assert (cfg.sb.n_steps, cfg.sb.dt, cfg.sb.n_restarts) == (250, 0.25, 4)
        assert cfg.r == 0.7

    @pytest.mark.parametrize("spec", ["bad", "0:10", "5:1:1", "0:10:0"])
    def test_malformed_snr_spec(self, spec):
        with pytest.raises(ConfigError):
            parse_config(["--snr", spec])

    def test_unknown_detector_lists_valid_names(self):
        with pytest.raises(ConfigError, match="mmse"):
            parse_config(["--detectors", "zf"])

    def test_invalid_modulation_choice_exits(self, capsys):
        # Checked by SweepConfig alone, whose message lists the
        # valid names; main turns it into exit 2.
        with pytest.raises(ConfigError, match="qpsk"):
            parse_config(["--mod", "qam64"])
        assert main(["--mod", "qam64", "--instances", "1"]) == 2
        assert "qam16" in capsys.readouterr().err

    def test_modulation_name_is_canonical(self, capsys):
        # Stored and echoed as the CSV writes it, not as typed.
        assert parse_config(["--mod", "QPSK"]).modulation == "qpsk"
        assert parse_config(["--mod", "QaM16"]).modulation == "qam16"
        assert main([
            "--nt", "2", "--nr", "2", "--snr-list", "5", "--instances", "1",
            "--detectors", "mmse", "--mod", "QPSK",
        ]) == 0
        assert " mod=qpsk " in capsys.readouterr().err


class TestConfigFile:
    def test_file_overrides_defaults(self, tmp_path):
        path = write_config(tmp_path, {
            "mod": "bpsk", "nt": 2, "nr": 3, "snr": "0:5:5",
            "instances": 7, "detectors": "mmse", "seed": 9,
        })
        cfg = parse_config(["--config", path])
        assert (cfg.nt, cfg.nr, cfg.modulation) == (2, 3, "bpsk")
        assert cfg.snr_db == (0.0, 5.0)
        assert cfg.instances == 7
        assert cfg.detectors == ("mmse",) and cfg.seed == 9

    def test_cli_flag_beats_file(self, tmp_path):
        path = write_config(tmp_path, {"instances": 10_000})
        cfg = parse_config(["--config", path, "--instances", "100"])
        assert cfg.instances == 100

    def test_cli_grid_replaces_file_grid(self, tmp_path):
        path = write_config(tmp_path, {"snr_list": [1, 2, 3]})
        cfg = parse_config(["--config", path, "--snr", "0:10:5",
                            "--instances", "1"])
        assert cfg.snr_db == (0.0, 5.0, 10.0)

    def test_hyphenated_keys_accepted(self, tmp_path):
        path = write_config(tmp_path, {"snr-list": [4, 2], "instances": 1})
        cfg = parse_config(["--config", path])
        assert cfg.snr_db == (4.0, 2.0)

    @pytest.mark.parametrize(
        "value, text", [(10, "10"), (["1", "2"], "1,2")],
        ids=["bare-number", "numeric-strings"],
    )
    def test_snr_list_file_forms_match_the_flag(self, value, text, tmp_path):
        # A bare number is a one-point list, and a list item that is a
        # string reads as flag text does.
        path = write_config(tmp_path, {"snr_list": value})
        assert parse_config(["--config", path]) == parse_config(
            ["--snr-list", text]
        )

    @pytest.mark.parametrize("sep", ["_", "-"])
    def test_every_flag_is_a_config_key(self, tmp_path, sep):
        # A non-default value per flag; a new flag needs an entry here.
        # The sweep settings resolve into the SweepConfig, --out and
        # --trace into the paths beside it.
        values = {
            "nt": "3", "nr": "5", "mod": "bpsk", "snr": "0:4:2",
            "snr_list": "1,2", "instances": "3", "detectors": "mmse",
            "steps": "7", "dt": "0.25", "restarts": "2", "r": "0.75",
            "seed": "9", "out": "o.csv", "trace": "t.csv", "workers": "2",
        }
        flags = [
            opt for action in build_parser()._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt not in ("--help", "--config")
        ]
        assert len(flags) == len(values)
        for flag in flags:
            value = values[flag[2:].replace("-", "_")]
            path = write_config(tmp_path, {flag[2:].replace("-", sep): value})
            resolved = parse_command(["--config", path])
            assert resolved == parse_command([flag, value])
            assert resolved != parse_command([])

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"snr_start": 0})
        with pytest.raises(ConfigError, match="snr_start"):
            parse_config(["--config", path])

    def test_conflicting_grids_in_file_rejected(self, tmp_path):
        path = write_config(tmp_path, {"snr": "0:5:5", "snr_list": [1]})
        with pytest.raises(ConfigError):
            parse_config(["--config", path])

    def test_key_under_both_spellings_returns_2(self, tmp_path, capsys):
        # A hyphen and an underscore spell one key, so neither value wins
        # (the later one used to, silently).
        path = write_config(tmp_path, {"snr-list": [5], "snr_list": [7]})
        assert main(["--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: config file sets snr_list twice" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"nt": 2, "nt": 3, "nr": 2, "snr_list": [5], '
             '"detectors": "mmse"}', "nt"),
            ('{"nt": {"a": 1, "a": 2}}', "a"),
        ],
        ids=["top-level", "nested"],
    )
    def test_repeated_key_returns_2(self, text, key, tmp_path, capsys):
        # json.load keeps a repeated name's last value, so the first file
        # used to run at nt=3, silently.
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["--config", str(path), "--instances", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: config file repeats the key {key!r}\n"

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            parse_config(["--config", str(path)])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(["--config", str(tmp_path / "nope.json")])


class TestMain:
    def test_smoke_run_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main([
            "--nt", "2", "--nr", "2", "--mod", "qpsk",
            "--snr-list", "5,10", "--instances", "10",
            "--detectors", "mmse,sb", "--steps", "20",
            "--seed", "3", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.startswith("config:")
        assert "rx:E[|Hx|^2]/E[|n|^2]" in captured.err
        assert "snr_db" in captured.out
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert {r["detector"] for r in rows} == {"mmse", "sb"}

    def test_floats_are_echoed_and_summarized_exactly(self, capsys):
        # Six significant digits would show 5 twice and dt as 0.123457.
        assert main([
            "--nt", "2", "--nr", "2", "--snr-list", "5,5.0000001",
            "--instances", "1", "--detectors", "mmse", "--dt", "0.123456789",
        ]) == 0
        out, err = capsys.readouterr()
        assert " snr_db=5,5.0000001 " in err and " dt=0.123456789 " in err
        assert [row.split()[0] for row in out.splitlines()[1:]] == [
            "5", "5.0000001"
        ]

    def test_echo_line_of_a_golden_config(self, capsys):
        # The whole line as the hand-kept echo wrote it.
        resolved = parse_command([
            "--config", str(GOLDEN / "qam16-2x2-restarts5.json"),
            "--out", "o.csv", "--trace", "t.csv",
        ])
        cli._echo_config(*resolved)
        assert capsys.readouterr().err == (
            "config: nt=2 nr=2 mod=qam16 snr_db=5,15,25 instances=50 "
            "detectors=mmse,sb,sb-reg,ml-oracle steps=60 dt=0.25 restarts=5 "
            "r=0.5 seed=13 workers=1 out=o.csv trace=t.csv "
            "snr_definition=rx:E[|Hx|^2]/E[|n|^2]\n"
        )

    def test_config_file_paths_are_written(self, tmp_path, capsys):
        out, trace = tmp_path / "x.csv", tmp_path / "t.csv"
        path = write_config(tmp_path, {
            "nt": 2, "nr": 2, "snr_list": [5], "instances": 2,
            "detectors": "mmse,sb", "steps": 5,
            "out": str(out), "trace": str(trace),
        })
        assert main(["--config", path]) == 0
        assert f" out={out} trace={trace} " in capsys.readouterr().err
        assert len(list(csv.DictReader(out.open()))) == 2
        assert len(list(csv.reader(trace.open()))) == 1 + 5

    def test_infeasible_oracle_returns_2(self, capsys):
        code = main([
            "--mod", "qam16", "--nt", "8", "--nr", "8",
            "--detectors", "ml-oracle", "--instances", "1",
            "--snr-list", "10",
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "24" in err

    def test_unknown_flag_exits_2_before_sweeping(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--snr-db", "10"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    def test_config_error_returns_2(self, capsys):
        assert main(["--snr", "oops"]) == 2
        assert capsys.readouterr().err != ""

    def test_unwritable_out_returns_1(self, tmp_path, capsys):
        code = main([
            "--nt", "2", "--nr", "2", "--snr-list", "5",
            "--instances", "2", "--detectors", "mmse",
            "--out", str(tmp_path / "no-dir" / "x.csv"),
        ])
        assert code == 1
        assert "no-dir" in capsys.readouterr().err

    def test_unwritable_trace_returns_1_and_keeps_csv(self, tmp_path, capsys):
        # Before, the sweep wrote the trace itself, unguarded: a
        # FileNotFoundError traceback, and the CSV never written.
        out, trace = tmp_path / "x.csv", tmp_path / "no-dir" / "t.csv"
        code = main([
            "--nt", "2", "--nr", "2", "--snr-list", "5",
            "--instances", "2", "--detectors", "mmse,sb", "--steps", "5",
            "--out", str(out), "--trace", str(trace),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: cannot write {trace}" in captured.err
        assert "snr_db" in captured.out
        assert len(list(csv.DictReader(out.open()))) == 2

    @pytest.mark.parametrize(
        "flag, writer", [("--out", "write_csv"), ("--trace", "write_trace")]
    )
    def test_write_error_names_the_path(
        self, flag, writer, tmp_path, monkeypatch, capsys
    ):
        # A full disk fails the write or the close, whose OSError carries
        # no file name (as --out /dev/full does).
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, writer, full)
        path = tmp_path / "x.csv"
        code = main([
            "--nt", "2", "--nr", "2", "--snr-list", "5", "--instances", "2",
            "--detectors", "mmse,sb", "--steps", "5", flag, str(path),
        ])
        assert code == 1
        assert f"error: cannot write {path}: " in capsys.readouterr().err

    def test_modulation_flag_and_file_spellings_agree(self, tmp_path):
        # Names are matched case-blind; the CSV holds the canonical name.
        common = [
            "--nt", "2", "--nr", "2", "--snr-list", "5", "--instances", "2",
            "--detectors", "mmse",
        ]
        config = write_config(tmp_path, {"mod": "QPSK"})
        runs = {
            "lower": ["--mod", "qpsk"],
            "flag": ["--mod", "QPSK"],
            "file": ["--config", config],
        }
        texts = {}
        for name, extra in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main(common + extra + ["--out", str(out)]) == 0
            texts[name] = out.read_bytes()
        assert texts["flag"] == texts["file"] == texts["lower"]
        rows = list(csv.DictReader(texts["flag"].decode().splitlines()))
        assert {r["modulation"] for r in rows} == {"qpsk"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--snr-list", "nan"], "snr_list must be finite, got nan"),
            (["--snr-list", "inf"], "snr_list must be finite, got inf"),
            # -inf was refused only by the noise check, as out of range.
            (["--snr-list=-inf"], "snr_list must be finite, got -inf"),
            (["--snr", "0:inf:1"], "bounds must be finite"),
            (["--snr-list", "4000"], "[4000.0] out of range"),
            (["--snr-list", "-4000"], "[-4000.0] out of range"),
            (["--snr-list", "-3080"], "[-3080.0] out of range"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
            (["--snr-list", "5,5"], "duplicate snr_list values"),
            (["--snr", "0:1e308:1e-300"], "the grid has inf points"),
            (["--snr", "0:1e308:1e300"], "the grid has 100000001 points"),
        ],
        ids=["snr-nan", "snr-inf", "snr-neg-inf", "snr-grid-inf",
             "snr-overflow", "snr-underflow", "snr-inf-noise",
             "negative-seed", "snr-duplicate", "snr-grid-inf-count",
             "snr-grid-huge-count"],
    )
    def test_bad_value_returns_2(self, argv, message, capsys):
        assert main(argv + ["--instances", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--dt", "inf"), ("--dt", "nan"), ("--r", "inf"), ("--r", "nan")],
        ids=["dt-inf", "dt-nan", "r-inf", "r-nan"],
    )
    def test_non_finite_solver_float_returns_2(self, flag, value, capsys):
        # Before, these ran with every sb / sb-reg detection failed and
        # a BER of 0 printed for them.
        code = main([
            "--nt", "2", "--nr", "2", "--snr-list", "5", "--instances", "3",
            "--detectors", "mmse,sb,sb-reg", flag, value,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert flag.lstrip("-") in captured.err
        assert captured.out == ""

    def test_summary_shows_dash_when_no_instance_counted(self):
        rec = dict(
            nt=2, nr=2, modulation="qpsk", snr_db=5.0, total_bits=0,
            bit_errors=0, ber=0.0, steps=100, dt=0.5, restarts=1, r=0.5,
            seed=0,
        )
        table = summary_table([
            BerRecord(detector="sb", instances=0, failures=3, **rec),
            BerRecord(detector="mmse", instances=3, **rec),
        ])
        header, row = table.splitlines()
        assert header.split() == ["snr_db", "mmse", "sb"]
        assert row.split() == ["5", "0.000e+00", "-"]

    @pytest.mark.parametrize(
        "key", ["nt", "nr", "instances", "steps", "restarts", "seed", "workers"]
    )
    @pytest.mark.parametrize(
        "value", [2.7, True, False, "abc", None, [1, 2]],
        ids=["2.7", "true", "false", "text", "null", "list"],
    )
    def test_non_integral_count_returns_2(self, key, value, tmp_path, capsys):
        # Before, {"nt": 2.7} ran as nt=2 and {"instances": true} as 1.
        path = write_config(tmp_path, {key: value})
        assert main(["--config", path, "--snr-list", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert re.search(rf"\b{key}\b", captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key, source",
        [
            ("nt", {"nt": "abc"}),
            ("dt", {"dt": "fast"}),
            ("nt", {"nt": None}),
            ("r", {"r": None}),
            ("seed", {"seed": [1, 2]}),
            ("nt", ["--nt", "abc"]),
        ],
        ids=["nt-text", "dt-text", "nt-null", "r-null", "seed-list",
             "nt-flag-text"],
    )
    def test_unreadable_setting_is_named(self, key, source, tmp_path, capsys):
        # Before, int() and float() refused these file values with messages
        # that named no setting, and argparse refused --nt abc itself.
        argv = source if isinstance(source, list) else [
            "--config", write_config(tmp_path, source)
        ]
        assert main(argv + ["--instances", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(rf"\b{key}\b", captured.err)

    @pytest.mark.parametrize(
        "source, message",
        [
            ({"restarts": 0}, "restarts must be an integer >= 1, got 0"),
            (["--steps", "0"], "steps must be an integer >= 1, got 0"),
            ({"snr_list": [True]}, "snr_list must be finite, got True"),
            (["--mod", "foo"], "unknown mod 'foo'; choose from "),
            # A quoted value is the user's text and keeps its words.
            (["--mod", "modulation"], "unknown mod 'modulation'; choose "),
        ],
        ids=["restarts-file", "steps-flag", "snr-list-file", "mod-flag",
             "mod-value-kept"],
    )
    def test_refusal_names_the_key_not_the_field(
        self, source, message, tmp_path, capsys
    ):
        # SBParams and SweepConfig name their fields (n_restarts, n_steps,
        # snr_db, modulation); the command line names the key the user set.
        argv = source if isinstance(source, list) else [
            "--config", write_config(tmp_path, source)
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_refusal_names_every_bad_setting(self, capsys):
        # One error line names the sweep's and the solver's bad settings
        # together; before, a refused solver setting hid every other.
        argv = ["--dt", "0", "--restarts", "0", "--nt", "0", "--instances", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: nt must be an integer >= 1, got 0; "
            "dt must be finite and > 0, got 0.0; "
            "restarts must be an integer >= 1, got 0\n"
        )

    def test_integral_float_count_is_accepted(self, tmp_path):
        path = write_config(tmp_path, {"nt": 2.0, "instances": 3.0})
        cfg = parse_config(["--config", path])
        assert (cfg.nt, cfg.instances) == (2, 3)
        assert isinstance(cfg.nt, int) and isinstance(cfg.instances, int)

    def test_non_integer_config_value_returns_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"steps": [1, 2]})
        assert main(["--config", path, "--instances", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "payload",
        [
            {"snr_list": ["a"]},
            {"snr_list": [[1]]},
            {"nt": 1e400},
            {"out": 5},
            {"trace": True},
            {"dt": True},
            {"r": False},
            {"snr_list": [True, 5]},
            {"mod": True},
            {"snr": True},
            {"snr_list": True},
            {"detectors": True},
            {"out": True},
        ],
        ids=["snr-list-text", "snr-list-nested", "nt-overflow",
             "out-not-path", "trace-not-path", "dt-bool", "r-bool",
             "snr-list-bool", "mod-bool", "snr-bool", "snr-list-true",
             "detectors-bool", "out-bool"],
    )
    def test_bad_config_value_returns_2(self, payload, tmp_path, capsys):
        path = write_config(tmp_path, payload)
        assert main(["--config", path, "--instances", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


def test_command_runs_as_a_module():
    # The other tests call main in-process; this runs the entry point that
    # the installed sbmimo-bench script also calls, in its own process.
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "sbmimo", *argv],
            env=env, capture_output=True, text=True,
        )

    assert run("--help").returncode == 0
    refused = run("--restarts", "0", "--instances", "1")
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert "Traceback" not in refused.stderr
    [line] = refused.stderr.splitlines()
    assert line.startswith("error: restarts ")
