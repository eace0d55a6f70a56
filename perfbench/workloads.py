"""The benchmark's workloads: generated inputs, tbltag command lines and
the reference each timed run's output must match.

Every input comes from `tbltag.synth` with draw seeds derived from the
harness's --seed; seed 0 gives the draws the ROADMAP baseline was measured
on. The chain structure is fixed per workload, so another seed draws
another sample of the same synthetic language and the amount of work stays
comparable across seeds. tag-200k always tags with the model of draw 5, so
that its seed varies only the text tagged and not the number of rules
replayed.

    python3 perfbench/workloads.py WORKLOAD SEED DIR

writes one workload's inputs for one seed into DIR; set-up runs that.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from tbltag.corpus import build_lexicon, parse_corpus, serialize_corpus
from tbltag.evaluate import tag
from tbltag.synth import ChainSpec, markov_corpus
from tbltag.trainer_incremental import train_incremental
from tbltag.training import Strategy, TrainerConfig, format_model, load_model

# The acceptance criterion 5 chain, on which the ROADMAP numbers were taken.
CHAIN_A = ChainSpec(
    n_tags=12, words_per_tag=8, ambiguous_words=24, ambiguous_rate=0.4, structure_seed=3
)
# More tags and more ambiguity: many more net-positive rules per pass.
CHAIN_B = ChainSpec(
    n_tags=20, words_per_tag=6, ambiguous_words=40, ambiguous_rate=0.5, structure_seed=11
)
DEFAULT_TAG = "T00"

# Inputs are generated this many times per run; setup_s takes the median
# and the repeats must agree byte for byte.
SETUP_REPEATS = 3

# At 5K tokens the naive trainer's cost differs up to 2x between draws, so
# its runs take turns over four corpora and report the median.
NAIVE_DRAWS = (5, 1005, 2005, 3005)


@dataclass(frozen=True)
class Workload:
    name: str
    tokens: int  # input tokens of the timed command, the base of tokens_per_s
    train_args: tuple[str, ...] = ()  # tbltag train flags; empty for tag-200k
    config: TrainerConfig = TrainerConfig()  # library twin of train_args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-50k", 50_000),
        Workload(
            "train-random-deps-30k",
            30_000,
            ("--strategy", "random", "--seed", "1", "--deps"),
            TrainerConfig(strategy=Strategy.RANDOM, rng_seed=1, record_deps=True),
        ),
        Workload("tag-200k", 200_000),
        Workload("train-naive-5k", 5_000, ("--engine", "naive")),
    )
}


def strip_tags(text: str) -> str:
    """Bare words, as `tbltag tag --raw` reads them."""
    return "".join(
        " ".join(item.rsplit("/", 1)[0] for item in line.split()) + "\n"
        for line in text.splitlines()
    )


def generate(name: str, seed: int) -> dict[str, str]:
    """Input files (name -> text) of one workload for one harness seed."""
    if name == "train-50k":
        return {"train.txt": markov_corpus(CHAIN_A, 5 + seed, 50_000)}
    if name == "train-random-deps-30k":
        return {"train.txt": markov_corpus(CHAIN_B, 13 + seed, 30_000)}
    if name == "train-naive-5k":
        return {
            f"train{i}.txt": markov_corpus(CHAIN_A, draw + seed, 5_000)
            for i, draw in enumerate(NAIVE_DRAWS)
        }
    if name == "tag-200k":
        return {
            "train.txt": markov_corpus(CHAIN_A, 5, 50_000),
            "input.raw": strip_tags(markov_corpus(CHAIN_A, 99 + seed, 200_000)),
        }
    raise KeyError(name)


def train_model(text: str, config: TrainerConfig):
    corpus = parse_corpus(text)
    model, _, _ = train_incremental(corpus, build_lexicon(corpus, DEFAULT_TAG), config)
    return model


@dataclass
class Case:
    """One timed command and the output it must produce."""

    argv: list[str]  # tbltag command line, without the program name
    output: Path  # the file the command writes
    expected: bytes  # what that file must hold


@dataclass
class Prepared:
    """One workload made ready in a work directory."""

    cases: list[Case]  # the timed runs take turns over these
    setup_s: float  # median input generation, plus the tag model for tag-200k,
    # at the reference speed
    reference_s: float  # time to build the expected outputs; not part of setup_s


def prepare(workload: Workload, seed: int, workdir: Path,
            launch: Callable[[list[str]], float]) -> Prepared:
    """Generate the inputs into workdir and build the references.

    `launch(argv)` runs one set-up command in a fresh interpreter and
    returns its wall time at the reference speed; set-up runs that way, so
    that it is timed like the commands. The inputs are generated
    SETUP_REPEATS times; the copies must agree byte for byte. For
    tag-200k, `tbltag train` then makes the model to tag with.

    For train-* the reference is the model the library's incremental
    engine learns in-process from the same corpus, so train-naive-5k also
    checks that the two engines agree. For tag-200k it is the tagged text
    computed in-process with the same model file.
    """
    inputs = workdir / "inputs"
    gen_times = []
    texts = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        gen_times.append(launch([sys.executable, str(Path(__file__).resolve()),
                                 workload.name, str(seed), str(inputs)]))
        got = {f.name: f.read_text(encoding="utf-8") for f in sorted(inputs.iterdir())}
        if texts is not None and got != texts:
            raise RuntimeError(f"{workload.name}: input generation is not deterministic")
        texts = got
    setup_s = statistics.median(gen_times)

    if workload.name == "tag-200k":
        model_path = workdir / "train.model"
        setup_s += launch([sys.executable, "-m", "tbltag", "train",
                           "--corpus", str(inputs / "train.txt"), "--default-tag", DEFAULT_TAG,
                           "-o", str(model_path)])
        t0 = time.perf_counter()
        raw = parse_corpus(texts["input.raw"], tagged=False)
        expected = serialize_corpus(tag(load_model(str(model_path)), raw), "current")
        reference_s = time.perf_counter() - t0
        output = workdir / "tagged.txt"
        argv = ["tag", "--model", str(model_path), "--in", str(inputs / "input.raw"),
                "--raw", "-o", str(output)]
        return Prepared([Case(argv, output, expected.encode())], setup_s, reference_s)

    cases = []
    t0 = time.perf_counter()
    for fname, text in texts.items():
        expected = format_model(train_model(text, workload.config))
        output = workdir / (Path(fname).stem + ".model")
        argv = ["train", "--corpus", str(inputs / fname), "--default-tag", DEFAULT_TAG,
                *workload.train_args, "-o", str(output)]
        cases.append(Case(argv, output, expected.encode()))
    return Prepared(cases, setup_s, time.perf_counter() - t0)


if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out.mkdir(parents=True)
    for fname, text in generate(name, seed).items():
        (out / fname).write_text(text, encoding="utf-8")
