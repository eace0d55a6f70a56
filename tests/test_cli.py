"""Command line behavior: outputs, exit codes, config files."""

import os
import re
import subprocess
import sys

import pytest

import tbltag
from tbltag.cli import main
from tbltag.corpus import ParseError, parse_corpus
from tbltag.synth import ChainSpec, markov_corpus

# baseline gets b and c wrong in the first sentence only; training with the
# left-context template repairs them in two chained passes
CHAIN = (
    "a/DT b/X c/Y\n"
    "f1/Z b/P f2/Z\n"
    "f1/Z b/P f2/Z\n"
    "f1/Z c/Q f2/Z\n"
    "f1/Z c/Q f2/Z\n"
)

CHAIN_MODEL = (
    "tblmodel 1\n"
    "templates -1\n"
    "threshold 1\n"
    "strategy greedy\n"
    "seed 0\n"
    "max-passes \n"
    "deps 1\n"
    "default-tag Z\n"
    "tags 6 DT P Q X Y Z\n"
    "lexicon 5\n"
    "a DT 1\n"
    "b P 2 X 1\n"
    "c Q 2 Y 1\n"
    "f1 Z 4\n"
    "f2 Z 4\n"
    "rules 2\n"
    "P>X @ -1:DT\n"
    "Q>Y @ -1:X\n"
)


@pytest.fixture
def chain(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN)
    return path


def _train(tmp_path, chain, *extra, name="m.model"):
    model = tmp_path / name
    rc = main(
        [
            "train",
            "--corpus", str(chain),
            "--default-tag", "Z",
            "--templates", "-1",
            "--threshold", "1",
            "-o", str(model),
            *extra,
        ]
    )
    assert rc == 0
    return model


def _body(text: str) -> str:
    """Drop the reproducibility header comments."""
    return "".join(
        line + "\n" for line in text.splitlines() if not line.startswith("# ")
    )


# --- train -----------------------------------------------------------------------


def test_train_writes_expected_model(tmp_path, chain, capsys):
    model = _train(tmp_path, chain, "--deps")
    assert model.read_text() == CHAIN_MODEL
    err = capsys.readouterr().err
    assert "trained 2 rules" in err
    assert (tmp_path / "m.model.trace.tsv").exists()
    assert (tmp_path / "m.model.curve.tsv").exists()
    assert (tmp_path / "m.model.deps.txt").exists()


def test_train_engines_byte_identical(tmp_path, chain):
    m_inc = _train(tmp_path, chain, "--engine", "incremental", name="inc.model")
    m_nai = _train(tmp_path, chain, "--engine", "naive", name="nai.model")
    assert m_inc.read_bytes() == m_nai.read_bytes()
    trace_inc = _body((tmp_path / "inc.model.trace.tsv").read_text())
    trace_nai = _body((tmp_path / "nai.model.trace.tsv").read_text())
    assert trace_inc == trace_nai
    curve_inc = _body((tmp_path / "inc.model.curve.tsv").read_text())
    curve_nai = _body((tmp_path / "nai.model.curve.tsv").read_text())
    assert curve_inc == curve_nai


def test_train_trace_content(tmp_path, chain):
    _train(tmp_path, chain)
    trace = _body((tmp_path / "m.model.trace.tsv").read_text())
    lines = trace.splitlines()
    assert lines[0] == "pass\trule_canonical\trule_display\tpos\tneg\tneut\ttrain_acc"
    assert lines[1].startswith("1\tP>X @ -1:DT\t— DT P/X — —\t1\t0\t0\t")
    assert lines[2].startswith("2\tQ>Y @ -1:X\t— X Q/Y — —\t1\t0\t0\t1.0")


def test_train_curve_content(tmp_path, chain):
    _train(tmp_path, chain)
    curve = _body((tmp_path / "m.model.curve.tsv").read_text())
    rows = [line.split("\t") for line in curve.splitlines()]
    assert rows[0] == ["pass", "train_acc"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert float(rows[-1][1]) == 1.0


def test_train_header_records_settings(tmp_path, chain):
    _train(tmp_path, chain, "--deps")
    head = (tmp_path / "m.model.trace.tsv").read_text()
    assert head.startswith("# tbltag train\n")
    assert "# templates=-1\n" in head
    assert "# threshold=1\n" in head
    assert "# engine=incremental\n" in head
    assert "# deps=1\n" in head


def test_train_test_corpus_curve_column(tmp_path, chain):
    test_path = tmp_path / "test.txt"
    test_path.write_text("a/DT b/X c/Y\nf1/Z b/P f2/Z\n")
    _train(tmp_path, chain, "--test-corpus", str(test_path))
    curve = _body((tmp_path / "m.model.curve.tsv").read_text())
    lines = curve.splitlines()
    assert lines[0] == "pass\ttrain_acc\ttest_acc"
    last = lines[-1].split("\t")
    assert float(last[1]) == 1.0
    assert float(last[2]) == 1.0


def test_train_test_corpus_curve_equals_curve_command(tmp_path, capsys):
    # the training run's curve file against the streamed `tbltag curve`:
    # same body, and its train column is the trainer's own curve
    spec = ChainSpec(structure_seed=7)
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    train.write_text(markov_corpus(spec, draw_seed=1, n_tokens=3000))
    test.write_text(markov_corpus(spec, draw_seed=2, n_tokens=3000))
    argv = ["train", "--corpus", str(train), "--default-tag", "T00"]
    assert main([*argv, "--test-corpus", str(test), "-o", str(tmp_path / "t.model")]) == 0
    assert main([*argv, "-o", str(tmp_path / "p.model")]) == 0
    capsys.readouterr()
    assert main(["curve", "--model", str(tmp_path / "t.model"),
                 "--train", str(train), "--test", str(test)]) == 0
    streamed = _body(capsys.readouterr().out)
    trained = _body((tmp_path / "t.model.curve.tsv").read_text())
    assert trained == streamed
    rows = [line.split("\t") for line in trained.splitlines()]
    assert rows[0] == ["pass", "train_acc", "test_acc"] and len(rows) > 10
    plain = _body((tmp_path / "p.model.curve.tsv").read_text())
    assert [row[:2] for row in rows] == [line.split("\t") for line in plain.splitlines()]


def test_train_audit_log(tmp_path, chain):
    log = tmp_path / "audit.tsv"
    _train(tmp_path, chain, "--audit", "--audit-log", str(log))
    body = _body(log.read_text())
    lines = body.splitlines()
    assert lines[0] == "pass\tcandidates\tkeys\tnew_keys\tsites_rechecked"
    assert len(lines) == 3
    assert lines[1].split("\t")[0] == "1"


@pytest.mark.parametrize("flag", ["--audit", "--audit-log"])
def test_exit_1_on_audit_flag_with_naive_engine(tmp_path, chain, capsys, flag):
    # the naive engine keeps no index, so it would ignore --audit and leave
    # the audit log with no rows
    extra = [flag, str(tmp_path / "audit.tsv")] if flag == "--audit-log" else [flag]
    rc = main(
        ["train", "--corpus", str(chain), "--default-tag", "Z", "--engine", "naive",
         "-o", str(tmp_path / "m.model"), *extra]
    )
    assert rc == 1
    assert "incremental engine" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.txt"]


def test_train_explicit_output_paths(tmp_path, chain):
    trace = tmp_path / "t.tsv"
    curve = tmp_path / "c.tsv"
    deps = tmp_path / "d.txt"
    _train(
        tmp_path, chain, "--deps",
        "--trace", str(trace), "--curve", str(curve), "--deps-out", str(deps),
    )
    assert trace.exists() and curve.exists() and deps.exists()
    assert not (tmp_path / "m.model.trace.tsv").exists()


def test_train_max_passes(tmp_path, chain):
    model = _train(tmp_path, chain, "--max-passes", "1")
    text = model.read_text()
    assert "max-passes 1\n" in text
    assert text.endswith("rules 1\nP>X @ -1:DT\n")


# --- tag / eval / curve / deps ------------------------------------------------------


def test_tag_round_trip_stdout(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    capsys.readouterr()
    rc = main(["tag", "--model", str(model), "--in", str(chain)])
    assert rc == 0
    assert capsys.readouterr().out == CHAIN


def test_tag_and_eval_write_speed_summary(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    capsys.readouterr()
    summary = re.compile(r"tagged 15 tokens with 2 rules in \d+\.\d{3} s \(\d+ tokens/s\)\n")
    assert main(["tag", "--model", str(model), "--in", str(chain)]) == 0
    out, err = capsys.readouterr()
    assert out == CHAIN
    assert summary.fullmatch(err)
    assert main(["eval", "--model", str(model), "--corpus", str(chain)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("# tbltag eval\n")
    assert summary.fullmatch(err)


def test_tag_raw_input(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    raw = tmp_path / "raw.txt"
    raw.write_text("a b c\nnovel\n")
    capsys.readouterr()
    rc = main(["tag", "--model", str(model), "--in", str(raw), "--raw"])
    assert rc == 0
    out = capsys.readouterr().out
    # a/DT then b: P>X fires after DT; then c: Q>Y fires after X; unknown
    # word gets the default tag
    assert out == "a/DT b/X c/Y\nnovel/Z\n"


# Long enough that tagging reads it in more than one chunk.
LONG = "f1/Z b/P f2/Z\n" * 10_000


def test_tag_warns_on_unknown_tag(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    weird = tmp_path / "weird.txt"
    weird.write_text("a/WEIRD b/P\n" + LONG + "c/ODD a/WEIRD\nb/NEW b/ODD\n")
    capsys.readouterr()
    rc = main(["tag", "--model", str(model), "--in", str(weird), "-o", str(tmp_path / "o.txt")])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert err[:-1] == [
        f"warning: tag {tag!r} not in the model's tagset" for tag in ("WEIRD", "ODD", "NEW")
    ]
    assert err[-1].startswith("tagged 30006 tokens ")


def test_malformed_item_in_a_later_chunk(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    text = LONG + "a/DT c\n"
    with pytest.raises(ParseError) as parsed:
        parse_corpus(text)
    assert str(parsed.value).startswith("line 10001, column 6: ")
    corpus = tmp_path / "bad.txt"
    corpus.write_text(text)
    out = tmp_path / "out.txt"
    out.write_bytes(b"old\n")
    capsys.readouterr()
    rc = main(["tag", "--model", str(model), "--in", str(corpus), "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {parsed.value}\n"
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["chain.txt", "m.model", "m.model.trace.tsv", "m.model.curve.tsv", "bad.txt", "out.txt"]
    )
    # on stdout the chunks before the malformed line are already written
    assert main(["tag", "--model", str(model), "--in", str(corpus)]) == 2
    written, err = capsys.readouterr()
    assert written and LONG.startswith(written) and written.endswith("\n")
    assert err == f"error: {parsed.value}\n"
    assert main(["eval", "--model", str(model), "--corpus", str(corpus)]) == 2
    assert capsys.readouterr() == ("", f"error: {parsed.value}\n")


def test_eval_output(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--corpus", str(chain)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tokens\t15\n" in out
    assert "errors\t0\n" in out
    assert "accuracy\t1.0\n" in out


def test_curve_command(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    capsys.readouterr()
    rc = main(["curve", "--model", str(model), "--train", str(chain)])
    assert rc == 0
    out = _body(capsys.readouterr().out)
    lines = out.splitlines()
    assert lines[0] == "pass\ttrain_acc"
    assert len(lines) == 4


def test_curve_errored_only(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    capsys.readouterr()
    rc = main(
        ["curve", "--model", str(model), "--train", str(chain), "--errored-only"]
    )
    assert rc == 0
    body = _body(capsys.readouterr().out)
    rows = [line.split("\t") for line in body.splitlines()[1:]]
    assert float(rows[0][1]) == 0.0
    assert float(rows[-1][1]) == 1.0


def test_deps_command(tmp_path, chain, capsys):
    model = _train(tmp_path, chain, "--deps")
    capsys.readouterr()
    rc = main(["deps", "--model", str(model), "--corpus", str(chain)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sites-changed\t2" in out
    assert "multi-node-sites\t1" in out
    assert "leverage\t0.5" in out
    assert "-1: — DT P/X — — (1)" in out
    # the replayed report matches the one the training run wrote, minus headers
    trained = _body((tmp_path / "m.model.deps.txt").read_text())
    assert _body(out) == trained


def test_deps_refuses_other_corpus(tmp_path, chain, capsys):
    model = _train(tmp_path, chain, "--deps")
    other = tmp_path / "other.txt"
    other.write_text(CHAIN.replace("f1/Z c/Q f2/Z\n", "", 1))
    capsys.readouterr()
    rc = main(["deps", "--model", str(model), "--corpus", str(other)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "lexicon" in err


def test_deps_no_pass_in_key(tmp_path, chain, capsys):
    model = _train(tmp_path, chain, "--deps")
    capsys.readouterr()
    rc = main(
        ["deps", "--model", str(model), "--corpus", str(chain), "--no-pass-in-key"]
    )
    assert rc == 0
    assert "sites-changed\t2" in capsys.readouterr().out


def test_deps_refuses_plain_model(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    capsys.readouterr()
    rc = main(["deps", "--model", str(model), "--corpus", str(chain)])
    assert rc == 1
    assert "retrain" in capsys.readouterr().err


# --- config files ---------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, chain):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("templates = -1\nthreshold = 1\ndeps = true\n# comment\n\n")
    model = tmp_path / "m.model"
    rc = main(
        [
            "train", "--config", str(cfg),
            "--corpus", str(chain), "--default-tag", "Z",
            "-o", str(model),
        ]
    )
    assert rc == 0
    assert model.read_text() == CHAIN_MODEL


def test_config_file_flag_overrides(tmp_path, chain):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("templates=-1\nthreshold=2\n")
    model = tmp_path / "m.model"
    rc = main(
        [
            "train", f"--config={cfg}",
            "--corpus", str(chain), "--default-tag", "Z",
            "--threshold", "1",
            "-o", str(model),
        ]
    )
    assert rc == 0
    assert "threshold 1\n" in model.read_text()
    assert "rules 2\n" in model.read_text()


def test_config_file_underscore_keys(tmp_path, chain):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("default_tag=Z\ntemplates=-1\nthreshold=1\n")
    model = tmp_path / "m.model"
    rc = main(["train", "--config", str(cfg), "--corpus", str(chain), "-o", str(model)])
    assert rc == 0


@pytest.mark.parametrize(
    "content",
    ["nonsense line\n", "config=other.cfg\n", "deps=maybe\n"],
)
def test_config_file_malformed(tmp_path, chain, content, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    rc = main(
        [
            "train", "--config", str(cfg),
            "--corpus", str(chain), "--default-tag", "Z",
            "-o", str(tmp_path / "m.model"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "spelling",
    [["--conf", "{cfg}"], ["--conf={cfg}"], ["--con", "{cfg}"]],
    ids=["conf", "conf=", "con"],
)
def test_config_flag_abbreviation_refused(tmp_path, chain, spelling, capsys):
    # argparse would take these for --config and leave the file unread
    cfg = tmp_path / "train.cfg"
    cfg.write_text("templates=-1\nthreshold=1\n")
    model = tmp_path / "m.model"
    rc = main(
        [
            "train", *[s.format(cfg=cfg) for s in spelling],
            "--corpus", str(chain), "--default-tag", "Z",
            "-o", str(model),
        ]
    )
    assert rc == 1
    assert "--config" in capsys.readouterr().err
    assert not model.exists()


def test_config_file_missing(tmp_path, chain):
    rc = main(
        [
            "train", "--config", str(tmp_path / "nope.cfg"),
            "--corpus", str(chain), "--default-tag", "Z",
            "-o", str(tmp_path / "m.model"),
        ]
    )
    assert rc == 1


# --- exit codes -------------------------------------------------------------------------


def test_exit_1_on_usage(capsys):
    assert main([]) == 1
    assert main(["train"]) == 1  # missing required flags
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_exit_1_on_missing_corpus(tmp_path, capsys):
    rc = main(
        [
            "train", "--corpus", str(tmp_path / "absent.txt"),
            "--default-tag", "Z", "-o", str(tmp_path / "m.model"),
        ]
    )
    assert rc == 1
    assert "cannot read corpus" in capsys.readouterr().err


def test_exit_1_on_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    rc = main(
        ["train", "--corpus", str(empty), "--default-tag", "Z", "-o", str(tmp_path / "m")]
    )
    assert rc == 1
    assert "no tokens" in capsys.readouterr().err


def test_exit_1_on_bad_template_spec(tmp_path, chain, capsys):
    rc = main(
        [
            "train", "--corpus", str(chain), "--default-tag", "Z",
            "--templates", "0", "-o", str(tmp_path / "m"),
        ]
    )
    assert rc == 1
    capsys.readouterr()


def test_exit_1_on_bad_threshold(tmp_path, chain, capsys):
    rc = main(
        [
            "train", "--corpus", str(chain), "--default-tag", "Z",
            "--threshold", "0", "-o", str(tmp_path / "m"),
        ]
    )
    assert rc == 1
    capsys.readouterr()


def test_exit_2_on_malformed_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("word_without_tag\n")
    rc = main(
        ["train", "--corpus", str(bad), "--default-tag", "Z", "-o", str(tmp_path / "m")]
    )
    assert rc == 2
    assert "line 1, column 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        # baseline tag A>B for y, fixed after D: learns A>B>C @ -1:D
        "x/D y/C\nx/D y/C\nw/E y/A>B\nw/E y/A>B\nw/E y/A>B\n",
        # the learned rule's context tag is D,1:Q
        "x/D,1:Q y/C\nx/D,1:Q y/C\nw/E y/A\nw/E y/A\nw/E y/A\n",
    ],
)
def test_exit_2_on_rule_the_model_file_cannot_hold(tmp_path, capsys, text):
    corpus = tmp_path / "c.txt"
    corpus.write_text(text)
    model = tmp_path / "m.model"
    rc = main(
        ["train", "--corpus", str(corpus), "--default-tag", "Z", "--templates", "-1",
         "-o", str(model)]
    )
    assert rc == 2
    assert "would not read back" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]


@pytest.mark.parametrize("engine", ["incremental", "naive"])
def test_exit_2_on_unencodable_tag_before_training(tmp_path, capsys, monkeypatch, engine):
    # The A>B token is never mistagged, so one pass would learn and save a
    # storable rule; the tagset is refused up front all the same.
    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr("tbltag.trainer_incremental.train_incremental", no_training)
    monkeypatch.setattr("tbltag.trainer_naive.train_naive", no_training)
    corpus = tmp_path / "c.txt"
    corpus.write_text(CHAIN + "q/A>B\n")
    rc = main(
        ["train", "--corpus", str(corpus), "--default-tag", "Z", "--templates", "-1",
         "--threshold", "1", "--max-passes", "1", "--engine", engine,
         "-o", str(tmp_path / "m.model")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'A>B' would not read back" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]


def test_exit_2_on_default_tag_with_whitespace(tmp_path, chain, capsys, monkeypatch):
    # The model file splits its tags line on whitespace, so a model with
    # this default tag would be written but could not be loaded.
    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr("tbltag.trainer_incremental.train_incremental", no_training)
    rc = main(
        ["train", "--corpus", str(chain), "--default-tag", "N N", "-o", str(tmp_path / "m.model")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'N N' would not read back" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.txt"]


def test_exit_2_on_malformed_test_corpus_before_training(tmp_path, chain, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr("tbltag.trainer_incremental.train_incremental", no_training)
    (tmp_path / "test.txt").write_text("a/DT b/P\nword_without_tag\n")
    rc = main(
        ["train", "--corpus", str(chain), "--default-tag", "Z",
         "--test-corpus", str(tmp_path / "test.txt"), "-o", str(tmp_path / "m.model")]
    )
    assert rc == 2
    assert "line 2, column 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.txt", "test.txt"]


def test_exit_2_on_corrupt_model(tmp_path, chain, capsys):
    model = _train(tmp_path, chain)
    model.write_text(model.read_text().replace("tblmodel 1", "tblmodel 99"))
    rc = main(["eval", "--model", str(model), "--corpus", str(chain)])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "default, message",
    [("<B>", "bad default tag: default_tag may not be the reserved '<B>'"),
     ("Z Z", "bad default tag: a lexicon tag must be non-empty and free of whitespace")],
)
def test_exit_2_on_unusable_default_tag(tmp_path, chain, capsys, default, message):
    model = _train(tmp_path, chain)
    model.write_text(model.read_text().replace("default-tag Z", f"default-tag {default}"))
    capsys.readouterr()
    for argv in (["tag", "--in", str(chain)], ["eval", "--corpus", str(chain)]):
        assert main([*argv, "--model", str(model)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "line, bad",
    [
        ("templates -1", "templates -01"),
        ("threshold 1", "threshold 01"),
        ("seed 0", "seed +0"),
        ("max-passes ", "max-passes 1_0"),
        ("deps 1", "deps 2"),
        ("tags 6 DT P Q X Y Z", "tags +6 DT P Q X Y Z"),
        ("lexicon 5", "lexicon 05"),
        ("b P 2 X 1", "b P 2 X +1"),
        ("rules 2", "rules 02"),
    ],
)
def test_exit_2_on_model_line_not_written_as_saving_writes_it(tmp_path, chain, capsys, line, bad):
    # int() and the template parser read each bad line, but saving the
    # model would write it back changed; deps 2 would read as deps off.
    model = tmp_path / "m.model"
    model.write_text(CHAIN_MODEL.replace(f"\n{line}\n", f"\n{bad}\n"))
    assert model.read_text() != CHAIN_MODEL
    assert main(["tag", "--model", str(model), "--in", str(chain)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, what",
    [
        (["tag", "--model", "m.model", "--in", "bad.txt", "-o", "out.txt"], "input corpus bad.txt"),
        (["tag", "--model", "m.model", "--in", "late.txt", "-o", "out.txt"], "input corpus late.txt"),
        (["tag", "--raw", "--model", "m.model", "--in", "bad.txt"], "input corpus bad.txt"),
        (["eval", "--model", "m.model", "--corpus", "bad.txt", "-o", "out.txt"], "corpus bad.txt"),
        (["train", "--corpus", "bad.txt", "--default-tag", "Z", "-o", "out.txt"], "corpus bad.txt"),
        (["train", "--corpus", "chain.txt", "--default-tag", "Z", "--test-corpus", "bad.txt",
          "-o", "out.txt"], "test corpus bad.txt"),
        (["train", "--config", "bad.txt", "--corpus", "chain.txt", "--default-tag", "Z",
          "-o", "out.txt"], "config file bad.txt"),
        (["curve", "--model", "m.model", "--train", "chain.txt", "--test", "bad.txt"],
         "test corpus bad.txt"),
        (["tag", "--model", "bad.model", "--in", "chain.txt", "-o", "out.txt"], "model bad.model"),
    ],
    ids=["tag", "tag-later-chunk", "tag-raw-stdout", "eval", "train", "train-test-corpus",
         "train-config", "curve", "model"],
)
def test_exit_2_on_input_that_is_not_utf8(tmp_path, chain, capsys, monkeypatch, argv, what):
    model = _train(tmp_path, chain)
    (tmp_path / "bad.txt").write_bytes(b"a/DT b/P\n\xff/X\n")
    # the bad byte comes after the first chunk has been tagged and written
    (tmp_path / "late.txt").write_bytes(LONG.encode() + b"b/P\xff\n")
    (tmp_path / "bad.model").write_bytes(b"\xff" + model.read_bytes())
    (tmp_path / "out.txt").write_bytes(b"old\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {what} is not valid UTF-8: byte 0xff, invalid start byte\n"
    assert (tmp_path / "out.txt").read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("target", ["missing/m.model", "adir"], ids=["no-such-dir", "a-dir"])
def test_exit_1_on_unwritable_model_path(tmp_path, chain, capsys, target):
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    model = tmp_path / target
    rc = main(["train", "--corpus", str(chain), "--default-tag", "Z", "-o", str(model)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"cannot write {model}: ")
    # no temp file is left behind either
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("target", ["missing/out.txt", "adir"], ids=["no-such-dir", "a-dir"])
@pytest.mark.parametrize("flag", ["--trace", "--curve", "--deps-out", "--audit-log"])
def test_exit_1_before_training_on_unwritable_output(
    tmp_path, chain, capsys, monkeypatch, flag, target
):
    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr("tbltag.trainer_incremental.train_incremental", no_training)
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / target
    rc = main(["train", "--corpus", str(chain), "--default-tag", "Z", "--deps",
               flag, str(out), "-o", str(tmp_path / "m.model")])
    assert rc == 1
    err = capsys.readouterr().err
    # one line naming the target, not its temp file
    assert err.startswith(f"cannot write {out}: ")
    assert err.count("\n") == 1 and ".tmp" not in err
    # nothing written: no model, no other output, no temp file
    assert sorted(tmp_path.rglob("*")) == before


_TRAIN = ["train", "--corpus", "chain.txt", "--default-tag", "Z", "-o", "new.model"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_TRAIN, "--trace", "chain.txt"],
        [*_TRAIN, "--curve", "new.model"],
        [*_TRAIN, "--audit-log", "new.model"],
        [*_TRAIN, "--deps", "--deps-out", "new.model.trace.tsv"],
        [*_TRAIN, "--trace", "x.tsv", "--curve", "sub/../x.tsv"],
        [*_TRAIN, "--test-corpus", "test.txt", "--curve", "test.txt"],
        [*_TRAIN, "--config", "cfg.txt", "--trace", "cfg.txt"],
        [*_TRAIN[:-1], "link.txt"],
        ["tag", "--model", "m.model", "--in", "chain.txt", "-o", "chain.txt"],
        ["tag", "--model", "m.model", "--in", "chain.txt", "-o", "m.model"],
        ["eval", "--model", "m.model", "--corpus", "chain.txt", "-o", "./chain.txt"],
        ["eval", "--config", "cfg.txt", "--model", "m.model", "--corpus", "chain.txt",
         "-o", "cfg.txt"],
        ["curve", "--model", "m.model", "--train", "chain.txt", "--test", "test.txt",
         "-o", "test.txt"],
        ["curve", "--model", "m.model", "--train", "chain.txt", "-o", "m.model"],
        ["deps", "--model", "m.model", "--corpus", "chain.txt", "-o", "link.txt"],
    ],
    ids=["train-trace-corpus", "train-curve-model", "train-audit-model", "train-deps-trace",
         "train-trace-curve", "train-curve-test", "train-trace-config", "train-model-corpus",
         "tag-output-input", "tag-output-model", "eval-output-corpus", "eval-output-config",
         "curve-output-test", "curve-output-model", "deps-output-corpus"],
)
def test_exit_1_when_an_output_would_overwrite_a_file_of_the_run(
    tmp_path, chain, capsys, monkeypatch, argv
):
    _train(tmp_path, chain, "--deps")
    (tmp_path / "test.txt").write_text(CHAIN)
    (tmp_path / "cfg.txt").write_text("# defaults\n")
    (tmp_path / "link.txt").symlink_to(chain)
    (tmp_path / "sub").mkdir()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and " would overwrite the " in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "command, flag",
    [("tag", "--in"), ("eval", "--corpus"), ("curve", "--train"), ("deps", "--corpus")],
)
def test_exit_1_before_reading_on_unwritable_output(
    tmp_path, chain, capsys, monkeypatch, command, flag
):
    def no_reading(*args, **kwargs):
        raise AssertionError("the model was read")

    model = _train(tmp_path, chain, "--deps")
    monkeypatch.setattr("tbltag.cli._load_model", no_reading)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "missing" / "out.txt"
    capsys.readouterr()
    argv = [command, flag, str(chain), "--model", str(model), "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"cannot write {out}: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_outputs_on_stdout_do_not_clash(tmp_path, chain, capsys):
    rc = main(["train", "--corpus", str(chain), "--default-tag", "Z", "--templates", "-1",
               "--trace", "-", "--curve", "-", "-o", str(tmp_path / "m.model")])
    assert rc == 0
    assert capsys.readouterr().out.count("# tbltag train\n") == 2


def test_exit_1_on_missing_model(tmp_path, chain, capsys):
    rc = main(["eval", "--model", str(tmp_path / "no.model"), "--corpus", str(chain)])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["tag", "--model", "m.model", "--in", "chain.txt"],
        ["eval", "--model", "m.model", "--corpus", "chain.txt"],
        ["curve", "--model", "m.model", "--train", "chain.txt"],
        ["deps", "--model", "m.model", "--corpus", "chain.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_loads_only_the_modules_it_runs(tmp_path, chain, argv):
    # Only train runs a trainer, and only train and deps record dependencies.
    unloaded = {"tbltag.trainer_incremental", "tbltag.trainer_naive"}
    if argv[0] != "deps":
        unloaded.add("tbltag.dependency")
    (tmp_path / "m.model").write_text(CHAIN_MODEL)
    script = (
        "import sys\n"
        "from tbltag.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('tbltag')))\n"
        "sys.exit(rc)\n"
    )
    # The package's own directory, since the child runs in tmp_path.
    src = os.path.dirname(os.path.dirname(tbltag.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "-o", "out.txt"],
        cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines())
    assert "tbltag.cli" in loaded
    assert not loaded & unloaded


def test_module_entry_point():
    # python -m tbltag must behave like the console script
    proc = subprocess.run(
        [sys.executable, "-m", "tbltag"], capture_output=True, text=True
    )
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "tbltag", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout
