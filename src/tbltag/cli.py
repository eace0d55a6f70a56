"""Command line interface: train, tag, eval, curve, deps.

Exit codes: 0 on success, 1 on usage problems (bad flags, missing files,
reports that need retraining), 2 on malformed data (corpus, model, or
rule text that does not parse).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from functools import partial

from .corpus import (ParseError, accuracy_of, count_tagged, file_chunks, lexicon_of,
                     parse_corpus, text_chunks)
from .evaluate import Tally, tag_stream
from .rules import DEFAULT_TEMPLATE_SPEC, DEFAULT_WINDOW, DecodeError, parse_template_spec
from .training import (
    Model,
    ModelFormatError,
    Strategy,
    TrainerConfig,
    atomic_writer,
    check_tagset,
    check_writable,
    config_pairs,
    curve_tsv,
    load_model,
    save_model,
    trace_tsv,
    tsv,
    write_text_atomic,
)


class _UsageError(Exception):
    pass


class _DataError(Exception):
    """Input files that parse but cannot be used together; exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this package reserves 2
    # for data errors, so route usage problems through exit code 1.
    def error(self, message):
        if message.endswith(": expected one argument"):
            # argparse reads a separate value such as "-2,-1" as a flag
            message += "; write a value that starts with '-' in one piece, as --templates=-2,-1"
        raise _UsageError(f"{self.prog}: {message}")


# Options that are plain switches; config files give them true/false values.
_BOOL_OPTIONS = {"deps", "raw", "audit", "errored-only", "no-pass-in-key"}


def _read_config_file(path: str) -> list[str]:
    """Turn key=value lines into an argv fragment the flags can override."""
    argv = []
    for lineno, line in enumerate(_read_text(path, "config file").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if key == "config":
            raise _UsageError(f"{path}:{lineno}: config files cannot nest")
        if key in _BOOL_OPTIONS:
            if value.lower() in ("1", "true", "yes", "on"):
                argv.append(f"--{key}")
            elif value.lower() in ("0", "false", "no", "off"):
                pass
            else:
                raise _UsageError(f"{path}:{lineno}: {key} wants true/false, got {value!r}")
        else:
            # one token, so that a value starting with "-" is not read as a flag
            argv.append(f"--{key}={value}")
    return argv


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file options right after the subcommand name.

    The path itself goes last, so that ``args.config`` names the file.
    argparse would take an abbreviation such as ``--conf`` for
    ``--config`` but leave the file unread, so one is refused.
    """
    path = None
    cleaned = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        flag = arg.partition("=")[0]
        if 2 < len(flag) < len("--config") and "--config".startswith(flag):
            raise _UsageError(f"{flag}: write --config in full")
        if arg == "--config":
            if i + 1 >= len(argv):
                raise _UsageError("--config needs a file argument")
            path = argv[i + 1]
            i += 2
            continue
        if arg.startswith("--config="):
            path = arg.split("=", 1)[1]
            i += 1
            continue
        cleaned.append(arg)
        i += 1
    if path is None:
        return argv
    if not cleaned:
        raise _UsageError("--config requires a subcommand")
    return [cleaned[0], *_read_config_file(path), *cleaned[1:], f"--config={path}"]


@contextmanager
def _reading(what: str, path: str):
    """Turn a failed read of the ``what`` at ``path`` into exit 1, or 2 if it is not UTF-8."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        reason = f"byte 0x{exc.object[exc.start]:02x}, {exc.reason}"
        raise _DataError(f"{what} {path} is not valid UTF-8: {reason}") from None


def _read_text(path: str, what: str) -> str:
    with _reading(what, path), open(path, encoding="utf-8") as fh:
        return fh.read()


@contextmanager
def _writing(path: str):
    """Turn a failed write of ``path`` into exit 1, naming ``path``."""
    try:
        yield
    except OSError as exc:
        # The exception's own text may name the temp file rather than path.
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with _writing(path):
        write_text_atomic(path, text)


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.normcase(os.path.realpath(a)) == os.path.normcase(os.path.realpath(b))


# The files the commands read, by argument name.
_INPUTS = {"corpus": "corpus", "test_corpus": "test corpus", "input": "input corpus",
           "train": "train corpus", "test": "test corpus", "config": "config file"}


def _resolve_outputs(args) -> None:
    """Resolve the command's output paths and try each before any work.

    An output that is empty, one of the command's inputs or an earlier
    output stops the command, as does one that cannot be written, so a
    failed run writes nothing.  "-" is stdout, except for the model train writes.
    """
    inputs = [(what, getattr(args, name, None)) for name, what in _INPUTS.items()]
    if args.command == "train":
        if args.trace is None:
            args.trace = args.model + ".trace.tsv"
        if args.curve is None:
            args.curve = args.model + ".curve.tsv"
        if args.deps and args.deps_out is None:
            args.deps_out = args.model + ".deps.txt"
        elif not args.deps and args.deps_out is not None:
            raise _UsageError("--deps-out names the report of --deps; give --deps too")
        outputs = {"model": args.model, "trace": args.trace, "curve": args.curve,
                   "deps report": args.deps_out, "audit log": args.audit_log}
    else:
        inputs.append(("model", args.model))
        outputs = {"output": args.output}
    earlier = []
    for what, path in outputs.items():
        if path is None or (path == "-" and what != "model"):
            continue
        if not path:
            raise _UsageError(f"{what} path is empty")
        for other, other_path in earlier + inputs:
            if other_path is not None and _same_file(path, other_path):
                raise _UsageError(f"{what} {path} would overwrite the {other} {other_path}")
        with _writing(path):
            check_writable(path)
        earlier.append((what, path))


def _header(cmd: str, pairs: dict) -> str:
    lines = [f"# tbltag {cmd}"]
    for key in sorted(pairs):
        lines.append(f"# {key}={pairs[key]}")
    return "\n".join(lines) + "\n"


def _load_model(path: str) -> Model:
    with _reading("model", path):
        return load_model(path)


def _cmd_train(args) -> int:
    """Train on the corpus and write the model, trace, curve and reports.

    Both engines share one front end, ``corpus.count_tagged``, which gives
    the token count and the lexicon, and every refusal of the input is
    made there.  The naive engine trains on ``parse_corpus(text)``; the
    incremental engine codes the text straight into its strings
    (``trainer_incremental.train_text``).  One loop writes the reports.
    """
    # The trainers and the dependency layer are imported only by the
    # commands that run them, so tag, eval and curve load none of them,
    # and a naive run does not load the incremental trainer.
    from .dependency import dependency_report, record_pass

    naive = args.engine == "naive"
    if naive and (args.audit or args.audit_log is not None):
        raise _UsageError("--audit and --audit-log check the index of the incremental engine")
    text = _read_text(args.corpus, "corpus")
    pairs = count_tagged(text_chunks(text))
    if not pairs:
        raise _UsageError(f"corpus {args.corpus} has no tokens")
    # The test corpus is checked now and tagged after training, kept as
    # text rather than as a Corpus.
    test_text = "" if args.test_corpus is None else _read_text(args.test_corpus, "test corpus")
    count_tagged(text_chunks(test_text))
    # A default tag no model file can carry exits 2, before Lexicon refuses it.
    check_tagset([args.default_tag])
    lexicon = lexicon_of(pairs, args.default_tag)
    check_tagset(lexicon.tags())
    templates = parse_template_spec(args.templates, window=args.window)
    config = TrainerConfig(
        templates=templates,
        threshold=args.threshold,
        strategy=Strategy(args.strategy),
        rng_seed=args.seed,
        max_passes=args.max_passes,
        record_deps=args.deps,
    )

    audit_log = None if args.audit_log is None else []
    links = {}
    on_rule = partial(record_pass, links) if args.deps else None
    if naive:
        from .trainer_naive import train_naive

        model, trace, curve = train_naive(parse_corpus(text), lexicon, config, on_rule)
    else:
        from .trainer_incremental import AUDIT_LOG_COLUMNS, train_text

        model, trace, curve = train_text(text, lexicon, config, audit_log, on_rule,
                                         audit=args.audit)

    effective = {
        **dict(config_pairs(config)),
        "corpus": args.corpus,
        "default-tag": args.default_tag,
        "engine": args.engine,
        "window": args.window,
        "model": args.model,
    }
    if args.test_corpus is not None:
        effective["test-corpus"] = args.test_corpus

    with _writing(args.model):
        save_model(model, args.model)

    test_acc = None
    if args.test_corpus is not None:
        test_acc = tag_stream(model, text_chunks(test_text), tagged=True).accuracies()
    reports = [
        (args.trace, trace_tsv(trace)),
        (args.curve, curve_tsv(curve, test_acc)),
    ]
    if args.deps:
        reports.append((args.deps_out, dependency_report(links)))
    if audit_log is not None:  # refused above for the naive engine
        reports.append((args.audit_log, tsv([AUDIT_LOG_COLUMNS, *audit_log])))
    header = _header("train", effective)
    for path, body in reports:
        _write_text(path, header + body)

    sys.stderr.write(f"trained {len(model.rules)} rules; final train accuracy {curve[-1]!r}\n")
    return 0


def _tag_file(model: Model, path: str, what: str, output: str | None = None,
              tagged: bool = True, on_new_tag=None) -> Tally:
    """Stream the file at path through ``tag_stream`` and return its tally.

    The tagged text goes to the file ``output``, or to stdout for "-";
    with no ``output`` nothing is written.  A failed read names the input,
    and a failed write the output.
    """

    def chunks():
        with _reading(what, path), open(path, encoding="utf-8") as src:
            yield from file_chunks(src)

    if output is None or output == "-":
        sink = nullcontext(sys.stdout if output else None)
    else:
        sink = atomic_writer(output)
    with _writing(output), sink as out:
        return tag_stream(model, chunks(), out, tagged, on_new_tag)


def _tag_timed(model: Model, path: str, what: str, output: str | None = None,
               tagged: bool = True, on_new_tag=None) -> Tally:
    """``_tag_file``, writing a one-line speed summary to stderr."""
    start = time.perf_counter()
    tally = _tag_file(model, path, what, output, tagged, on_new_tag)
    seconds = time.perf_counter() - start
    rate = tally.tokens / seconds if seconds > 0 else 0.0
    sys.stderr.write(
        f"tagged {tally.tokens} tokens with {len(model.rules)} rules "
        f"in {seconds:.3f} s ({rate:.0f} tokens/s)\n"
    )
    return tally


def _warn_new_tag(tag: str) -> None:
    sys.stderr.write(f"warning: tag {tag!r} not in the model's tagset\n")


def _cmd_tag(args) -> int:
    model = _load_model(args.model)
    _tag_timed(model, args.input, "input corpus", args.output, not args.raw, _warn_new_tag)
    return 0


def _cmd_eval(args) -> int:
    model = _load_model(args.model)
    tally = _tag_timed(model, args.corpus, "corpus")
    pairs = {"model": args.model, "corpus": args.corpus}
    body = tsv([("tokens", tally.tokens), ("errors", tally.errors),
                ("accuracy", accuracy_of(tally.tokens, tally.errors))])
    _write_text(args.output, _header("eval", pairs) + body)
    return 0


def _cmd_curve(args) -> int:
    model = _load_model(args.model)
    # One file at a time, so an error names the file it is in.
    train = _tag_file(model, args.train, "train corpus").accuracies(args.errored_only)
    test = None
    if args.test is not None:
        test = _tag_file(model, args.test, "test corpus").accuracies(args.errored_only)
    pairs = {
        "model": args.model,
        "train": args.train,
        "errored-only": int(args.errored_only),
    }
    if args.test is not None:
        pairs["test"] = args.test
    _write_text(args.output, _header("curve", pairs) + curve_tsv(train, test))
    return 0


def _cmd_deps(args) -> int:
    from .dependency import dependency_report, record_pass

    model = _load_model(args.model)
    if not model.record_deps:
        raise _UsageError(
            "model was trained without --deps; retrain with dependency recording"
        )
    text = _read_text(args.corpus, "corpus")
    not_trained_on = f"corpus {args.corpus} is not the one the model was trained on"
    counts = lexicon_of(count_tagged(text_chunks(text)), model.default_tag).counts
    if counts != model.lexicon.counts:
        raise _DataError(f"{not_trained_on}: its word/tag counts differ from the model's lexicon")
    # Replaying the training application order with recording on rebuilds
    # the training run's structures.  Each rule lowered the errors at its
    # training sites, which the replay finds.
    links = {}
    tally = tag_stream(model, text_chunks(text), tagged=True, on_rule=partial(record_pass, links))
    for pass_no, fixed in enumerate(tally.fixed, start=1):
        if fixed < 1:
            raise _DataError(f"{not_trained_on}: rule {pass_no} does not lower its errors there")
    report = dependency_report(links, include_pass=not args.no_pass_in_key)
    pairs = {
        "model": args.model,
        "corpus": args.corpus,
        "no-pass-in-key": int(args.no_pass_in_key),
    }
    _write_text(args.output, _header("deps", pairs) + report)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tbltag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument(
            "--config",
            metavar="FILE",
            help="key=value defaults; explicit flags override",
        )

    p = sub.add_parser("train", help="learn a rule sequence from a gold corpus")
    p.add_argument("--corpus", required=True, help="gold training corpus (word/TAG lines)")
    p.add_argument("--default-tag", required=True, help="tag for words never seen in training")
    p.add_argument("--templates", default=DEFAULT_TEMPLATE_SPEC, metavar="SPEC",
                   help="semicolon-separated offset groups, e.g. '-1; -2,-1; +1'")
    p.add_argument("--threshold", type=int, default=2,
                   help="stop when the best net score falls below this (default 2)")
    p.add_argument("--strategy", choices=["greedy", "random"], default="greedy")
    p.add_argument("--seed", type=int, default=0, help="rng seed for random strategy")
    p.add_argument("--engine", choices=["incremental", "naive"], default="incremental",
                   help="naive rescans everything each pass; results are identical")
    p.add_argument("--max-passes", type=int, default=None)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help="largest template offset allowed (default 5)")
    p.add_argument("--test-corpus", help="held-out corpus for the curve's test column")
    p.add_argument("--deps", action="store_true", help="record rule dependency structures")
    p.add_argument("--audit", action="store_true",
                   help="recount the incremental index every pass, in time linear in the corpus")
    p.add_argument("--audit-log", metavar="FILE", help="per-pass index statistics")
    p.add_argument("-o", "--model", required=True, help="model file to write")
    p.add_argument("--trace", metavar="FILE", help="default MODEL.trace.tsv")
    p.add_argument("--curve", metavar="FILE", help="default MODEL.curve.tsv")
    p.add_argument("--deps-out", metavar="FILE", help="default MODEL.deps.txt")
    add_config(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tag", help="tag a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True, help="corpus to tag")
    p.add_argument("--raw", action="store_true", help="input is bare words, no /TAG")
    p.add_argument("-o", "--output", default="-", help="default stdout")
    add_config(p)
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("eval", help="accuracy of a model on a gold corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("-o", "--output", help="default stdout")
    add_config(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("curve", help="accuracy after each rule of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True, help="gold corpus to sweep")
    p.add_argument("--test", help="optional held-out gold corpus")
    p.add_argument("--errored-only", action="store_true",
                   help="measure only tokens the baseline got wrong")
    p.add_argument("-o", "--output", help="default stdout")
    add_config(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("deps", help="dependency report for a deps-enabled model")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True, help="the corpus the model was trained on")
    p.add_argument("--no-pass-in-key", action="store_true",
                   help="group structures ignoring pass numbers")
    p.add_argument("-o", "--output", help="default stdout")
    add_config(p)
    p.set_defaults(func=_cmd_deps)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        argv = _inject_config(list(argv))
        args = parser.parse_args(argv)
        _resolve_outputs(args)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except _DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        if isinstance(exc, (ParseError, DecodeError, ModelFormatError)):
            sys.stderr.write(f"error: {exc}\n")
            return 2
        sys.stderr.write(f"{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
