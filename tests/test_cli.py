"""Command line: precedence, validation, CSV schema, sweeps, exit codes."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentsim import (
    ConfigurationError,
    MetricsRow,
    ParseError,
    PartitionError,
    ProtocolError,
    RunConfig,
    ShapeError,
    UsageError,
    run,
)
from decentsim.cli import (
    _FIELD_TYPES,
    _build_parser,
    compress_self_check,
    emit_metrics_csv,
    main,
    parse_config,
    read_config_file,
    read_metrics_csv,
    run_sweep,
    write_config_file,
)
from decentsim.simulator import CHOICES


def test_empty_invocation_resolves_to_documented_defaults():
    config, seeds, _ = parse_config([])
    assert config.algorithm == "ngc"
    assert config.agents == 5
    assert config.topology == "ring"
    assert config.alpha == 1.0
    assert config.beta == 0.9
    assert config.eta == 0.01
    assert config.gamma == 0.5
    assert config.batch_size == 32
    assert seeds == [config.seed]


def test_flags_override_config_file_which_overrides_defaults(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# sweep base\nagents=8\ntopology=full\neta=0.2\n")
    config, _, _ = parse_config(["--config", str(cfg_file), "--eta", "0.05"])
    assert config.agents == 8          # from file
    assert config.topology == "full"   # from file
    assert config.eta == 0.05          # flag wins


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("agents=4\nlearning_rate=0.1\n")
    with pytest.raises(UsageError, match="learning_rate"):
        parse_config(["--config", str(cfg_file)])


def test_config_file_comments_start_at_a_line_start_or_after_whitespace(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# header\n   # indented\nagents=4  # note\ntopology=full\t# tab\n"
                        "dataset=runs/data#2.csv\n")
    assert read_config_file(str(cfg_file)) == {
        "agents": 4, "topology": "full", "dataset": "runs/data#2.csv"}


def test_config_file_reports_the_bad_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("agents=4\nepochs=ten\n")
    with pytest.raises(UsageError, match="line 2"):
        parse_config(["--config", str(cfg_file)])


def test_dpsgd_with_alpha_is_a_usage_error():
    with pytest.raises(UsageError, match="alpha"):
        parse_config(["--algorithm", "dpsgd", "--alpha", "0.5"])


def test_dpsgd_with_alpha_from_file_is_also_rejected(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("algorithm=dpsgd\nalpha=1.0\n")
    with pytest.raises(UsageError):
        parse_config(["--config", str(cfg_file)])


def test_out_of_range_values_are_usage_errors():
    with pytest.raises(UsageError, match="alpha"):
        parse_config(["--alpha", "1.5"])
    with pytest.raises(UsageError, match="beta"):
        parse_config(["--beta", "1.0"])
    with pytest.raises(UsageError, match="gamma"):
        parse_config(["--gamma", "0.0"])
    with pytest.raises(UsageError, match="eta"):
        parse_config(["--eta", "-0.01"])


def test_eta_zero_is_accepted_as_pure_gossip():
    config, _, _ = parse_config(["--eta", "0"])
    assert config.eta == 0.0


def test_seeds_flag_parses_a_comma_list():
    _, seeds, _ = parse_config(["--seeds", "3,5,8"])
    assert seeds == [3, 5, 8]
    with pytest.raises(UsageError):
        parse_config(["--seeds", "3,x"])


def test_seeds_flag_rejects_an_empty_item():
    # One seed syntax for the CLI and the scripts: benchmarks.seed_list.
    for text in ("1,,2", "3,", ""):
        with pytest.raises(UsageError, match="comma-separated integers"):
            parse_config(["--seeds", text])


def test_config_echo_round_trips(tmp_path):
    config = RunConfig(
        algorithm="compngc", agents=6, topology="torus", torus_rows=2, partition="iid",
        alpha=0.25, beta=0.5, eta=0.125, gamma=0.75, schedule="constant", epochs=7,
        batch_size=9, seed=11, dataset="runs/data#2.csv", data_seed=13, classes=4, dim=3,
        per_class=17, spread=0.3, val_per_class=6, val_fraction=0.4, model="logistic",
        hidden_dim=8, activation="relu", workers=1,
    )
    defaults = RunConfig()
    for f in dataclasses.fields(RunConfig):
        if f.name != "workers":  # its one valid value is the default
            assert getattr(config, f.name) != getattr(defaults, f.name), f.name
    path = tmp_path / "config.txt"
    write_config_file(config, str(path))
    overrides = read_config_file(str(path))
    assert RunConfig(**overrides) == config


def test_workers_is_no_longer_a_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        parse_config(["--workers", "1"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


CONFIG_FLAGS = ["algorithm", "agents", "topology", "partition", "alpha", "beta", "eta",
                "gamma", "epochs", "batch_size", "dataset"]


def test_config_flags_take_their_runconfig_types_and_leave_values_to_validate():
    # One schema: argparse converts each flag's text with its RunConfig
    # annotation and checks no value itself, so RunConfig.validate is the
    # one check for flags and config files alike.
    hints = typing.get_type_hints(RunConfig)
    actions = {a.dest: a for a in _build_parser()._actions if a.dest in _FIELD_TYPES}
    assert list(actions) == CONFIG_FLAGS
    for name, action in actions.items():
        assert action.type is hints[name] is _FIELD_TYPES[name], name
        assert action.choices is None, name
        assert action.option_strings == ["--" + name.replace("_", "-")]


def test_help_lists_the_allowed_values(capsys):
    with pytest.raises(SystemExit) as exc_info:
        parse_config(["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    for name in ("algorithm", "topology", "partition"):
        assert f"--{name} {{{','.join(CHOICES[name])}}}" in out
    assert "{dpsgd,ngc,compngc}" in out and "{ring,chain,torus,full}" in out
    assert "--dataset DATASET" in out and "'synthetic' or a CSV path" in out
    assert "--agents AGENTS" in out and "--batch-size BATCH_SIZE" in out


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key, value", [("algorithm", "sgd"), ("topology", "star"),
                                        ("partition", "dirichlet")])
def test_unknown_value_fails_alike_from_a_flag_or_a_file(source, key, value, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--epochs", "1", "--out-dir", str(out)]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg)]
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: unknown {key} {value!r} "
                   f"(choose from {', '.join(CHOICES[key])})\n")
    assert not out.exists()


@pytest.mark.parametrize("dataset", [
    "a\nagents=99", "a\rb.csv", "a\r\n", " lead.csv", "trail.csv ", "trail.csv\t",
    "\u3000wide.csv", "runs/my data #2.csv", "runs/data\t#2.csv", "x.csv #note",
    "\udcff.csv",
])
def test_dataset_the_echo_cannot_carry_back_is_rejected(dataset, tmp_path, capsys):
    # Rejected rather than quoted, so the echo keeps its plain key=value
    # lines. Before the check, "a\nagents=99" echoed and read back as
    # agents=99 and "runs/my data #2.csv" as "runs/my data".
    with pytest.raises(ConfigurationError, match="cannot be echoed"):
        RunConfig(dataset=dataset).validate()
    out = tmp_path / "out"
    assert run_main(["--dataset", dataset, "--out-dir", str(out)]) == 2
    assert "cannot be echoed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dataset", [
    "synthetic", "runs/data#2.csv", "#lead.csv", "my data.csv", "a=b.csv", "tab\tinside.csv",
    "d\u00e5t\u00e4/\u5b57.csv", "",
])
def test_dataset_the_echo_carries_back_is_accepted(dataset, tmp_path):
    config = RunConfig(dataset=dataset)
    config.validate()
    path = tmp_path / "config.txt"
    write_config_file(config, str(path))
    assert RunConfig(**read_config_file(str(path))) == config


_HOSTILE_CHARS = st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\u2028\u3000#=\u00e9\u5b57")
_HOSTILE_TEXT = st.text(_HOSTILE_CHARS | st.characters() | st.just("\udcff"), max_size=10)
_HOSTILE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, math.inf, -math.inf, math.nan, 0.5]),
    st.floats())
_KNOWN = {**CHOICES, "dataset": ("synthetic", "runs/data#2.csv", "my data.csv")}


def _field_values(field):
    kind = _FIELD_TYPES[field.name]
    if kind is str:
        values = st.sampled_from(_KNOWN[field.name]) | _HOSTILE_TEXT
    elif kind is float:
        values = _HOSTILE_FLOATS
    else:
        values = st.integers(-3, 2**63)
    return values | st.none() if field.default is None else values


_FIELD_VALUES = {f.name: _field_values(f) for f in dataclasses.fields(RunConfig)}


@st.composite
def hostile_configs(draw):
    """A RunConfig whose dataset and up to four other fields are drawn, the rest defaults."""
    others = sorted(set(_FIELD_VALUES) - {"dataset"})
    names = draw(st.lists(st.sampled_from(others), max_size=4, unique=True))
    return RunConfig(**{name: draw(_FIELD_VALUES[name]) for name in ["dataset", *names]})


@settings(max_examples=150, deadline=None)
@given(config=hostile_configs())
def test_every_config_validate_accepts_reads_back_from_its_echo(config, tmp_path_factory):
    # Either validate rejects the config, or write_config_file then
    # read_config_file gives it back. reprs are compared, which tells -0.0
    # from 0.0 and reads nan as equal to itself.
    try:
        config.validate()
    except ConfigurationError:
        return
    path = tmp_path_factory.getbasetemp() / "echo-config.txt"
    write_config_file(config, str(path))
    again = RunConfig(**read_config_file(str(path)))
    if config.algorithm == "dpsgd":  # the echo omits alpha by design
        config = dataclasses.replace(config, alpha=RunConfig.alpha)
    assert repr(again) == repr(config)


def test_dpsgd_config_echo_is_reusable(tmp_path):
    # The echo must not write the alpha that parse_config rejects for dpsgd.
    config, _, _ = parse_config(["--algorithm", "dpsgd", "--epochs", "1"])
    path = tmp_path / "config.txt"
    write_config_file(config, str(path))
    assert "alpha=" not in path.read_text()
    again, _, _ = parse_config(["--config", str(path)])
    assert again == config


# ------------------------------------------------------------------- CSV


def sample_rows():
    return [
        MetricsRow(0, 0, 2.302585093, 2.302585093, 0.1, 0.0, 0.0, 0.0, 0, 0),
        MetricsRow(12, 1, 1.234567891234, 1.1, 0.5, 3.25e-4, 0.125, 2.5,
                   34960, 34960),
    ]


def test_metrics_csv_round_trips_and_keeps_nine_significant_digits(tmp_path):
    path = tmp_path / "metrics.csv"
    emit_metrics_csv(sample_rows(), str(path))
    text = path.read_text().splitlines()
    assert text[0].startswith("#") and "v1" in text[0]
    assert text[1] == ("round,epoch,train_loss,val_loss,val_acc,consensus_error,"
                       "eps_l1,omega_l1,param_bytes,crossgrad_bytes")
    assert "1.23456789," in text[3]  # 9 significant digits, not more
    rows = read_metrics_csv(str(path))
    assert rows[0].round == 0 and rows[1].param_bytes == 34960
    assert rows[1].train_loss == pytest.approx(1.234567891234, rel=1e-9)


def test_metrics_csv_rejects_malformed_files(tmp_path):
    from decentsim import ParseError
    bad = tmp_path / "bad.csv"
    bad.write_text("round,epoch\n1,2\n")
    with pytest.raises(ParseError):
        read_metrics_csv(str(bad))


def test_metrics_csv_that_is_not_utf8_is_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "metrics.csv"
    emit_metrics_csv(sample_rows(), str(path))
    path.write_bytes(path.read_bytes() + b"\xff,1,2\n")
    with pytest.raises(ParseError, match=f"{path}: not UTF-8 text"):
        read_metrics_csv(str(path))
    with pytest.raises(ParseError, match="cannot open metrics file"):
        read_metrics_csv(str(tmp_path / "missing.csv"))


# ------------------------------------------------------------------ sweeps


def sweep_config(**kw):
    base = dict(algorithm="ngc", agents=4, topology="ring", partition="skew",
                classes=4, dim=6, per_class=24, val_per_class=8, spread=0.3,
                epochs=2, batch_size=8, model="mlp", hidden_dim=5)
    base.update(kw)
    return RunConfig(**base)


def test_run_sweep_writes_per_seed_csvs_and_summary(tmp_path):
    out = tmp_path / "out"
    summary = run_sweep(sweep_config(), [1, 2], str(out))
    assert (out / "seed_1" / "metrics.csv").exists()
    assert (out / "seed_2" / "metrics.csv").exists()
    assert (out / "seed_1" / "config.txt").exists()
    persisted = json.loads((out / "summary.json").read_text())
    assert persisted["algorithm"] == "ngc"
    assert persisted["agents"] == 4
    assert persisted["seeds"] == [1, 2]
    assert persisted["completed"] == [1, 2]
    assert persisted["failed"] == []
    accs = []
    for seed in (1, 2):
        rows = read_metrics_csv(str(out / f"seed_{seed}" / "metrics.csv"))
        accs.append(rows[-1].val_acc)
    assert summary["final_acc_mean"] == pytest.approx(np.mean(accs))
    assert summary["final_acc_std"] == pytest.approx(np.std(accs))
    ref = run(sweep_config(seed=1))
    assert summary["total_bytes_per_agent"] == pytest.approx(
        ref.ledger.total_bytes / 4
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_sweep_reports_partial_failures(tmp_path):
    cfg = sweep_config(algorithm="dpsgd", eta=1e308, schedule="constant", epochs=4)
    summary = run_sweep(cfg, [1], str(tmp_path / "out"))
    # An aborted run still echoes its config, but writes no metrics.
    assert (tmp_path / "out" / "seed_1" / "config.txt").exists()
    assert not (tmp_path / "out" / "seed_1" / "metrics.csv").exists()
    assert json.loads((tmp_path / "out" / "summary.json").read_text()) == summary
    assert summary["completed"] == []
    assert summary["failed"][0]["seed"] == 1
    assert "round" in summary["failed"][0]["error"]
    assert summary["final_acc_mean"] is None


# --------------------------------------------------------------- main/exits


def run_main(argv):
    return main(argv)


def test_main_success_exit_zero(tmp_path, capsys):
    code = run_main([
        "--agents", "4", "--epochs", "1", "--topology", "ring",
        "--partition", "iid", "--out-dir", str(tmp_path / "runs"),
        "--config", str(_small_cfg(tmp_path)),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "summary.json" in captured.out


def _small_cfg(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text("classes=4\ndim=6\nper_class=24\nval_per_class=8\n"
                 "batch_size=8\nhidden_dim=5\n")
    return p


def test_main_usage_error_exit_two(capsys):
    assert run_main(["--alpha", "7"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_main_missing_dataset_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run_main(["--dataset", str(missing), "--out-dir", str(tmp_path / "runs")]) == 2
    assert "missing.csv" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ShapeError, ProtocolError, PartitionError])
def test_main_maps_every_library_error_to_exit_two(error, monkeypatch, capsys):
    def failing_sweep(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr("decentsim.cli.run_sweep", failing_sweep)
    assert run_main([]) == 2
    assert "boom" in capsys.readouterr().err


def test_main_long_chain_exit_zero(tmp_path):
    # 200 agents: the spectral gap of a chain this long is about 8e-5.
    assert run_main(["--agents", "200", "--topology", "chain", "--epochs", "1",
                     "--batch-size", "8", "--out-dir", str(tmp_path / "runs")]) == 0


def test_main_non_finite_dataset_exit_two_naming_the_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("0,1.0,2.0\n1,nan,0.5\n")
    assert run_main(["--dataset", str(data), "--out-dir", str(tmp_path / "runs")]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_main_runtime_abort_exit_three(tmp_path, capsys):
    code = run_main([
        "--algorithm", "dpsgd", "--eta", "1e308", "--epochs", "4",
        "--agents", "4", "--out-dir", str(tmp_path / "runs"),
        "--config", str(_small_cfg(tmp_path)),
    ])
    assert code == 3
    assert "failed seeds" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("agents=4\nagents=6", "line 2: key 'agents' repeats line 1"),
    ("algorithm=sgd", "unknown algorithm 'sgd'"),
    ("topology=star", "unknown topology 'star'"),
    ("activation=softplus", "unknown activation 'softplus'"),
    ("schedule=cosine", "unknown schedule 'cosine' (choose from step, constant)"),
    ("data_seed=-3", "seeds must be nonnegative"),
    ("workers=2", "workers must be 1: the round engine is serial"),
    # Only set-up (data, partition, W, shard sizes) finds these.
    ("spread=-1", "spread must be positive"),
    ("spread=1e308", "spread 1e+308 overflows the synthetic features"),
    ("spread=nan", "spread must be positive and finite"),
    ("spread=inf", "spread must be positive and finite"),
    ("agents=1", "ring needs at least two agents"),
    ("classes=1", "need at least two classes"),
    ("per_class=0", "per_class must be positive"),
    ("batch_size=500", "batch_size exceeds the smallest shard"),
    ("topology=torus\nagents=8\ntorus_rows=3", "torus_rows 3 does not factor 8 agents"),
])
def test_bad_config_file_value_exits_two_and_writes_nothing(line, message, tmp_path, capsys):
    # read_config_file must catch the repeated key, and RunConfig.validate,
    # the one value check for flags and config files, the next six, before
    # run_sweep creates any directory; the rest fail in set-up, before a
    # seed directory is written.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\nepochs=1\n")
    out = tmp_path / "badout"
    assert run_main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, content", [
    ("--config", b"agents=4\n# caf\xe9 in Latin-1\n"),
    ("--dataset", b"0,1.0,2.0\n1,0.5,\xff\n"),
], ids=["config", "dataset"])
def test_non_utf8_input_exits_two_naming_the_file_and_writes_nothing(flag, content, tmp_path,
                                                                     capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    out = tmp_path / "out"
    assert run_main([flag, str(bad), "--epochs", "1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
    assert not out.exists()


# What the CLI fuzz below draws: every config key, valid four times in five,
# else hostile, while each run stays tiny (at most one epoch, four agents
# and 20 samples a class; the base lines stand in for keys the file leaves
# out). Integers are drawn from [valid low, high], or down to -2 if hostile.
_CLI_INTS = {"agents": (2, 4), "torus_rows": (2, 3), "epochs": (1, 1),
             "batch_size": (1, 40), "seed": (0, 3), "data_seed": (0, 3),
             "classes": (2, 4), "dim": (1, 4), "per_class": (1, 20),
             "val_per_class": (1, 5), "hidden_dim": (1, 4), "workers": (1, 1)}
_CLI_FLOATS = {"alpha": (0.0, 1.0), "beta": (0.0, 0.99), "eta": (0.0, 1.0),
               "gamma": (1e-3, 1.0), "spread": (1e-3, 1e308), "val_fraction": (0.05, 0.5)}
_CLI_BASE = {"epochs": "1", "agents": "3", "per_class": "20", "val_per_class": "5"}
_CLI_FLAGS = [name for name in vars(_build_parser().parse_args([])) if name in _FIELD_TYPES]
_CLI_JUNK = st.sampled_from(["", "sgd", "1.5", "0x10", "nan", "-inf", "1e308", "-"])


def _cli_values(name, csv_path):
    """A key's value as config text: valid four times in five, else hostile."""
    if name in _CLI_INTS:
        low, high = _CLI_INTS[name]
        valid, hostile = st.integers(low, high), st.integers(-2, high)
    elif name in _CLI_FLOATS:
        valid, hostile = st.floats(*_CLI_FLOATS[name]), _HOSTILE_FLOATS
    elif name == "dataset":
        valid, hostile = st.sampled_from(["synthetic", csv_path]), _HOSTILE_TEXT
    else:
        valid, hostile = st.sampled_from(CHOICES[name]), _HOSTILE_TEXT
    hostile = hostile.map(repr if name in _CLI_FLOATS else str) | _CLI_JUNK
    valid = valid.map(repr if name in _CLI_FLOATS else str)
    return st.integers(0, 4).flatmap(lambda k: hostile if k == 0 else valid)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_on_hostile_files_and_flags_exits_0_2_or_3_and_exit_2_writes_nothing(
        data, tmp_path_factory):
    # Config-file text and argv drawn over the known keys, a key repeated
    # one time in four. main returns 0, 2 or 3 (argparse exits 2 itself)
    # and raises nothing; on exit 2 the out-dir does not exist, otherwise
    # summary.json does.
    assert {*_CLI_INTS, *_CLI_FLOATS, *CHOICES, "dataset"} == set(_FIELD_TYPES)
    tmp = tmp_path_factory.mktemp("cli")
    csv = tmp / "data.csv"
    csv.write_text("".join(f"{k % 3},{k * 0.1},{-k * 0.2}\n" for k in range(30)))
    values = {name: _cli_values(name, str(csv)) for name in _FIELD_TYPES}
    names = data.draw(st.lists(st.sampled_from(sorted(values)), max_size=6, unique=True))
    names += data.draw(st.integers(0, 3).map(lambda k: names[:1] if k == 0 else []))
    lines = [(name, data.draw(values[name], name)) for name in names]
    text = [f"{key}={value}" for key, value in _CLI_BASE.items() if key not in names]
    text = "\n".join(text + [f"{key}={value}" for key, value in lines]) + "\n"
    cfg = tmp / "run.cfg"
    cfg.write_bytes(text.encode("utf-8", "surrogatepass"))  # a surrogate makes it non-UTF-8
    out = tmp / "out"
    argv = ["--config", str(cfg), "--out-dir", str(out)]
    argv += data.draw(st.sampled_from([[], [], ["--seeds", "2,1"], ["--seeds", "1,1"],
                                       ["--seed", "-1"], ["--seeds", ""]]), "seeds")
    for name in data.draw(st.lists(st.sampled_from(_CLI_FLAGS), max_size=3), "flags"):
        argv.append(f"--{name.replace('_', '-')}={data.draw(values[name], name)}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 2, 3)
    assert out.exists() == (code != 2)
    if code != 2:
        assert (out / "summary.json").exists()


def test_seed_is_a_second_spelling_of_seeds():
    assert parse_config(["--seed", "4"])[1] == [4]
    assert parse_config(["--seed", "4,5"])[1] == [4, 5]


def test_negative_seed_in_a_sweep_exits_two_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_main(["--seeds", "1,-2", "--epochs", "1", "--out-dir", str(out)]) == 2
    assert "seeds must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_seed_exits_two_and_writes_nothing(tmp_path, capsys):
    # A repeat would rerun into seed_1/ and count twice in final_acc_std.
    out = tmp_path / "out"
    assert run_main(["--seeds", "1,2,1", "--epochs", "1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --seeds: seeds must not repeat, got '1,2,1'\n"
    assert not out.exists()


def test_set_up_error_in_a_sweep_exits_two_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_main(["--seeds", "1,2", "--batch-size", "500", "--epochs", "1",
                     "--out-dir", str(out)]) == 2
    assert "batch_size exceeds the smallest shard" in capsys.readouterr().err
    assert not out.exists()


def write_three_class_csv(path):
    # 60 rows, 20 per class. The validation split depends on the seed, and
    # under seed 1 (not seed 2) it leaves some skewed shard below 14 rows.
    rows = [f"{c},{c + 0.01 * k:.2f},{k % 7 - c:.1f}" for c in range(3) for k in range(20)]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_set_up_error_in_a_later_seed_removes_what_the_sweep_wrote(tmp_path, capsys):
    data = write_three_class_csv(tmp_path / "data.csv")
    argv = ["--dataset", str(data), "--agents", "3", "--partition", "skew",
            "--batch-size", "14", "--epochs", "1"]
    assert run_main(argv + ["--seeds", "2", "--out-dir", str(tmp_path / "ok")]) == 0
    out = tmp_path / "runs" / "new" / "out"  # makedirs would create runs/ too
    assert run_main(argv + ["--seeds", "2,1", "--out-dir", str(out)]) == 2
    assert "batch_size exceeds the smallest shard" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_a_failed_sweep_into_an_existing_out_dir_removes_only_what_it_created(tmp_path):
    data = write_three_class_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    (out / "seed_2").mkdir(parents=True)
    (out / "notes.txt").write_text("mine\n")
    (out / "seed_2" / "config.txt").write_text("old echo\n")
    config = RunConfig(dataset=str(data), agents=3, partition="skew", batch_size=14, epochs=1)
    with pytest.raises(ConfigurationError, match="batch_size exceeds the smallest shard"):
        run_sweep(config, [3, 2, 1], str(out))
    # seed_3/ and seed_2/metrics.csv were new and are gone; seed_2/config.txt
    # existed, so it stays, rewritten by seed 2's run.
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "notes.txt", "seed_2", "seed_2/config.txt"]
    assert (out / "notes.txt").read_text() == "mine\n"


def test_main_compress_check_exit_zero(capsys):
    assert run_main(["--compress-check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_compress_self_check_reports_all_green():
    lines = compress_self_check(dim=10_000, calls=50)
    assert all("PASS" in line for line in lines)


def test_verbose_prints_per_agent_accuracies(tmp_path, capsys):
    code = run_main([
        "--agents", "4", "--epochs", "1", "--partition", "iid", "--verbose",
        "--out-dir", str(tmp_path / "runs"), "--config", str(_small_cfg(tmp_path)),
    ])
    assert code == 0
    assert "per-agent val_acc" in capsys.readouterr().out
