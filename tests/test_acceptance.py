"""Release gate: the nine package acceptance criteria.

Each test covers one numbered criterion and prints exactly one
``ACCEPTANCE <n> PASS|FAIL`` line.  Tolerances are pinned here, not in
helper code:

1. engine equivalence over 100 generated corpora, exact, under 2 minutes
2. audited incremental run, 2,000 tokens, at least 50 passes, exact
3. per-pass error drop equals pos - neg, monotone train curve, suite-wide
4. saved models replay the trainer's final tags bit-exactly
5. 50,000-token benchmark: incremental wall-clock <= 1/10 of naive,
   identical output
6. irrelevant-context training overtrains; relevant templates shrink the
   margin (sign test, 10 trials)
7. random selection matches greedy's final train accuracy within 0.005
   using at least as many rules, 10 trials
8. crafted chaining and correction corpora yield the expected dependency
   shapes
9. corpus and model files round-trip byte-identically; rule encoding is a
   bijection over 10,000 fuzzed rules
"""

import random
import time

import pytest

from helpers import clone, lex_of, links_of, node_count, replayed, streamed
from tbltag.corpus import (
    baseline_assign,
    build_lexicon,
    error_count,
    parse_corpus,
    serialize_corpus,
    text_chunks,
)
from tbltag.dependency import collect_classes
from tbltag.evaluate import tag_stream
from tbltag.rules import (
    DEFAULT_TEMPLATES,
    Rule,
    apply_rule,
    decode_rule,
    encode_rule,
    parse_template_spec,
)
from tbltag.synth import ChainSpec, markov_corpus, random_family_corpus
from tbltag.trainer_incremental import AuditError, train_incremental
from tbltag.trainer_naive import train_naive
from tbltag.training import (
    Strategy,
    TrainerConfig,
    format_model,
    load_model,
    save_model,
)

T3 = parse_template_spec("-1; +1; -1,+1")


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}" + (f" [{detail}]" if detail else "")


# --- shared equivalence suite (criteria 1, 3, 4) -----------------------------------


def _suite_config(seed: int) -> TrainerConfig:
    rng = random.Random(seed)
    return TrainerConfig(
        templates=rng.choice([T3, DEFAULT_TEMPLATES]),
        threshold=rng.choice([1, 1, 2]),
        strategy=rng.choice([Strategy.GREEDY, Strategy.RANDOM]),
        rng_seed=rng.randrange(100),
    )


@pytest.fixture(scope="module")
def suite1():
    """Train both engines on 100 generated corpora; cache everything."""
    runs = []
    started = time.perf_counter()
    for seed in range(100):
        text, params = random_family_corpus(seed)
        cfg = _suite_config(seed)
        corpus_n = parse_corpus(text)
        corpus_i = clone(corpus_n)
        lexicon = build_lexicon(corpus_n, "T00")
        model_n, trace_n, curve_n = train_naive(corpus_n, lexicon, cfg)
        model_i, trace_i, curve_i = train_incremental(corpus_i, lexicon, cfg)
        runs.append(
            {
                "seed": seed,
                "params": params,
                "text": text,
                "cfg": cfg,
                "lexicon": lexicon,
                "naive": (model_n, trace_n, curve_n, serialize_corpus(corpus_n, "current")),
                "incr": (model_i, trace_i, curve_i, serialize_corpus(corpus_i, "current")),
            }
        )
    return {"runs": runs, "elapsed": time.perf_counter() - started}


def test_criterion_1_engine_equivalence(suite1):
    bad = []
    for run in suite1["runs"]:
        model_n, trace_n, curve_n, tags_n = run["naive"]
        model_i, trace_i, curve_i, tags_i = run["incr"]
        same = (
            model_n.rules == model_i.rules
            and trace_n == trace_i
            and curve_n == curve_i
            and tags_n == tags_i
        )
        if not same:
            bad.append((run["seed"], run["params"]))
    elapsed = suite1["elapsed"]
    ok = not bad and elapsed < 120.0
    _report(
        1,
        f"both engines identical on 100 corpora (seeds 0-99) in {elapsed:.1f}s",
        ok,
        detail=f"mismatched: {bad}" if bad else f"elapsed {elapsed:.1f}s",
    )


def test_criterion_3_error_drop_and_monotone(suite1):
    bad = []
    for run in suite1["runs"]:
        model, trace, curve, final_tags = run["incr"]
        corpus = parse_corpus(run["text"])
        baseline_assign(corpus, run["lexicon"])
        for rec in trace:
            before = error_count(corpus)
            apply_rule(rec.rule, corpus)
            if before - error_count(corpus) != rec.pos - rec.neg:
                bad.append((run["seed"], rec.pass_no, "drop"))
                break
        else:
            if any(b < a for a, b in zip(curve, curve[1:])):
                bad.append((run["seed"], None, "curve"))
            if serialize_corpus(corpus, "current") != final_tags:
                bad.append((run["seed"], None, "tags"))
    _report(
        3,
        "per-pass error drop equals pos - neg and train curves are monotone "
        "across all 100 corpora",
        not bad,
        detail=str(bad),
    )


def test_criterion_4_replay_bit_exact(suite1, tmp_path):
    bad = []
    for run in suite1["runs"][::10]:
        model = run["incr"][0]
        final_tags = run["incr"][3]
        path = tmp_path / f"m{run['seed']}.model"
        save_model(model, str(path))
        loaded = load_model(str(path))
        if not streamed(loaded, run["text"]) == final_tags == replayed(loaded, run["text"]):
            bad.append(run["seed"])
    _report(
        4,
        "saved models replay training tags bit-exactly on 10 corpora",
        not bad,
        detail=f"seeds {bad}",
    )


# --- criterion 2: audited incremental run ----------------------------------------


def test_criterion_2_audited_bookkeeping():
    spec = ChainSpec(
        n_tags=10,
        words_per_tag=6,
        ambiguous_words=20,
        ambiguous_rate=0.45,
        structure_seed=7,
    )
    corpus = parse_corpus(markov_corpus(spec, draw_seed=11, n_tokens=2000))
    assert corpus.n_tokens == 2000
    lexicon = build_lexicon(corpus, "T00")
    cfg = TrainerConfig(templates=T3, threshold=1)
    try:
        model, _, _ = train_incremental(corpus, lexicon, cfg, audit=True)
    except AuditError as exc:
        _report(2, "audited 2,000-token run stays exact", False, detail=str(exc))
        return
    _report(
        2,
        f"index recount exact after every one of {len(model.rules)} passes "
        "on a 2,000-token corpus",
        len(model.rules) >= 50,
        detail=f"only {len(model.rules)} passes, need 50",
    )


# --- criterion 5: benchmark --------------------------------------------------------


def test_criterion_5_incremental_speedup():
    spec = ChainSpec(
        n_tags=12,
        words_per_tag=8,
        ambiguous_words=24,
        ambiguous_rate=0.4,
        structure_seed=3,
    )
    corpus = parse_corpus(markov_corpus(spec, draw_seed=5, n_tokens=50_000))
    assert corpus.n_tokens == 50_000
    lexicon = build_lexicon(corpus, "T00")
    cfg = TrainerConfig()  # the 7 default templates, threshold 2

    started = time.perf_counter()
    model_i, trace_i, curve_i = train_incremental(clone(corpus), lexicon, cfg)
    t_inc = time.perf_counter() - started

    started = time.perf_counter()
    model_n, trace_n, curve_n = train_naive(clone(corpus), lexicon, cfg)
    t_nai = time.perf_counter() - started

    identical = (
        model_n.rules == model_i.rules
        and trace_n == trace_i
        and curve_n == curve_i
        and format_model(model_n) == format_model(model_i)
    )
    ok = identical and t_inc <= t_nai / 10.0
    _report(
        5,
        f"50K tokens, {len(model_i.rules)} passes: incremental {t_inc:.1f}s vs "
        f"naive {t_nai:.1f}s ({t_nai / t_inc:.1f}x), identical output",
        ok,
        detail=f"identical={identical} ratio={t_nai / max(t_inc, 1e-9):.2f}",
    )


# --- criterion 6: overtraining shape ------------------------------------------------


IRRELEVANT = parse_template_spec("-5,+5")
MIXED = parse_template_spec("-1; -2; -2,-1; +1; +2; +1,+2; -1,+1; -5,+5")


def _overtraining_margin(templates, spec, train_seed, test_seed):
    train_text = markov_corpus(spec, train_seed, 800)
    test_text = markov_corpus(spec, test_seed, 4000)
    train = parse_corpus(train_text)
    lexicon = build_lexicon(train, "T00")
    cfg = TrainerConfig(templates=templates, threshold=1)
    model, _, train_accs = train_incremental(train, lexicon, cfg)
    test_accs = tag_stream(model, text_chunks(test_text), tagged=True).accuracies()
    monotone = all(b >= a for a, b in zip(train_accs, train_accs[1:]))
    return max(test_accs) - test_accs[-1], monotone


def test_criterion_6_overtraining_sign_test():
    positive = 0
    reduced = 0
    monotone_all = True
    margins = []
    for trial in range(10):
        spec = ChainSpec(
            n_tags=20,
            words_per_tag=4,
            ambiguous_words=30,
            ambiguous_rate=0.5,
            structure_seed=100 + trial,
        )
        m_irr, mono_irr = _overtraining_margin(IRRELEVANT, spec, 2 * trial, 2 * trial + 1)
        m_mix, mono_mix = _overtraining_margin(MIXED, spec, 2 * trial, 2 * trial + 1)
        positive += m_irr > 0.0
        reduced += m_irr > m_mix
        monotone_all = monotone_all and mono_irr and mono_mix
        margins.append((round(m_irr, 4), round(m_mix, 4)))
    ok = positive == 10 and reduced >= 8 and monotone_all
    _report(
        6,
        f"distant-context training overtrains in 10/10 trials; relevant "
        f"templates shrink the margin in {reduced}/10 (sign test, need 8)",
        ok,
        detail=f"positive={positive}/10 reduced={reduced}/10 "
        f"monotone={monotone_all} margins={margins}",
    )


# --- criterion 7: random-selection convergence ----------------------------------------


def test_criterion_7_random_vs_greedy():
    spec = ChainSpec(
        n_tags=20,
        words_per_tag=4,
        ambiguous_words=30,
        ambiguous_rate=0.5,
        structure_seed=55,
    )
    text = markov_corpus(spec, draw_seed=1, n_tokens=2000)
    lexicon = build_lexicon(parse_corpus(text), "T00")
    greedy_cfg = TrainerConfig(templates=T3, threshold=1)
    model_g, _, curve_g = train_incremental(parse_corpus(text), lexicon, greedy_cfg)
    acc_g = curve_g[-1]

    bad = []
    for seed in range(10):
        cfg = TrainerConfig(
            templates=T3, threshold=1, strategy=Strategy.RANDOM, rng_seed=seed
        )
        model_r, _, curve_r = train_incremental(parse_corpus(text), lexicon, cfg)
        acc_r = curve_r[-1]
        if abs(acc_r - acc_g) > 0.005 or len(model_r.rules) < len(model_g.rules):
            bad.append((seed, round(acc_r - acc_g, 5), len(model_r.rules)))
    _report(
        7,
        f"random selection ends within 0.005 of greedy train accuracy "
        f"({acc_g:.4f}) with >= {len(model_g.rules)} rules in 10/10 trials",
        not bad,
        detail=f"failing trials {bad}",
    )


# --- criterion 8: dependency structures -------------------------------------------------


def test_criterion_8_dependency_shapes():
    problems = []

    # chaining: the second rule's context was created by the first
    chain = parse_corpus("a/DT b/X c/Y\n")
    lex = lex_of({"a": "DT", "b": "P", "c": "Q"}, "Z")
    cfg = TrainerConfig(templates=parse_template_spec("-1"), threshold=1, record_deps=True)
    model, trace, _ = train_incremental(chain, lex, cfg)
    links = links_of(trace)
    if [r.canonical for r in model.rules] != ["P>X @ -1:DT", "Q>Y @ -1:X"]:
        problems.append(f"chain rules {[r.canonical for r in model.rules]}")
    multi = [tc for tc in collect_classes(links) if node_count(tc.representative) > 1]
    if len(multi) != 1 or multi[0].count != 1:
        problems.append(f"chain multi-node classes {[(tc.key, tc.count) for tc in multi]}")
    else:
        root = multi[0].representative
        child_offsets = sorted(root.children)
        if node_count(root) != 2 or child_offsets != [-1]:
            problems.append(f"chain shape offsets={child_offsets} nodes={node_count(root)}")
        elif root.children[-1].pass_no >= root.pass_no:
            problems.append("chain pass order")

    # correction: one site retagged twice links its own earlier node at 0
    correction = parse_corpus(
        "a/D b/X c/F\na/D b/X c/F\na/D b/Y c2/E\n"
        "g/Z b/P g2/Z2\ng/Z b/P g2/Z2\ng/Z b/P g2/Z2\n"
    )
    lex2 = build_lexicon(clone(correction), "D")
    cfg2 = TrainerConfig(
        templates=parse_template_spec("-1; +1"), threshold=1, record_deps=True
    )
    model2, trace2, _ = train_incremental(correction, lex2, cfg2)
    links2 = links_of(trace2)
    node = links2.get((2, 1))
    if node is None or 0 not in node.children:
        problems.append("correction site lacks an offset-0 child")
    elif node.children[0].pass_no >= node.pass_no:
        problems.append("correction pass order")

    _report(
        8,
        "chaining corpus gives one depth-2 class (child at -1); correction "
        "corpus gives a node with child at offset 0",
        not problems,
        detail="; ".join(problems),
    )


# --- criterion 9: format round-trips ------------------------------------------------------


_FUZZ_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "_.,:;$#%&*+='?!|~^()[]{}<-"
)


def _fuzz_tag(rng: random.Random) -> str:
    return "".join(
        rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(1, 5))
    )


def test_criterion_9_round_trips(tmp_path):
    problems = []

    # corpus files: parse -> serialize -> parse is byte-stable
    for seed in (0, 1, 2, 3, 4):
        text, _ = random_family_corpus(seed)
        path = tmp_path / f"c{seed}.txt"
        path.write_text(text, encoding="utf-8")
        corpus = parse_corpus(path.read_text(encoding="utf-8"))
        if serialize_corpus(corpus) != text:
            problems.append(f"corpus seed {seed}")

    # model files: save -> load -> save is byte-identical
    for seed in (0, 5, 9):
        text, _ = random_family_corpus(seed)
        corpus = parse_corpus(text)
        lexicon = build_lexicon(corpus, "T00")
        model, _, _ = train_incremental(corpus, lexicon, _suite_config(seed))
        p1 = tmp_path / f"m{seed}a.model"
        p2 = tmp_path / f"m{seed}b.model"
        save_model(model, str(p1))
        save_model(load_model(str(p1)), str(p2))
        if p1.read_bytes() != p2.read_bytes():
            problems.append(f"model seed {seed}")

    # rule text encoding is a bijection on 10,000 random rules
    rng = random.Random(2024)
    fuzz_failures = 0
    for _ in range(10_000):
        frm = _fuzz_tag(rng)
        to = _fuzz_tag(rng)
        if frm == to:
            to = to + "'"
        n_ctx = rng.randint(1, 3)
        offsets = rng.sample([o for o in range(-9, 10) if o != 0], n_ctx)
        ctx = []
        for off in offsets:
            tag_text = "<B>" if rng.random() < 0.05 else _fuzz_tag(rng)
            ctx.append((off, tag_text))
        rule = Rule(frm, to, ctx)
        encoded = encode_rule(rule)
        decoded = decode_rule(encoded)
        if decoded != rule or encode_rule(decoded) != encoded:
            fuzz_failures += 1
    if fuzz_failures:
        problems.append(f"{fuzz_failures} fuzz failures")

    _report(
        9,
        "corpus and model files round-trip byte-identically; 10,000-rule "
        "encode/decode fuzz is clean",
        not problems,
        detail="; ".join(problems),
    )
