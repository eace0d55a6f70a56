"""Seeded synthetic corpora with learnable contextual structure.

Tag sequences come from a first-order Markov chain, so a token's tag
correlates with its immediate neighbors and almost nothing else.  Words
are emitted per tag from a vocabulary where a configurable slice of
words is shared between two tags; the minority occurrences of those
shared words are exactly what a most-frequent-tag baseline gets wrong
and what contextual rules can repair.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True, slots=True)
class ChainSpec:
    """Structural parameters of one synthetic language."""

    n_tags: int = 10
    words_per_tag: int = 6
    ambiguous_words: int = 12
    ambiguous_rate: float = 0.45
    sentence_len: tuple[int, int] = (5, 14)
    structure_seed: int = 0


class _Chain:
    def __init__(self, spec: ChainSpec):
        rng = random.Random(spec.structure_seed)
        self.spec = spec
        self.tags = [f"T{i:02d}" for i in range(spec.n_tags)]
        # Each tag strongly prefers two successors; the rest share a thin
        # uniform remainder so lag-1 context is predictive and lag-5 is not.
        # Weights are kept cumulative, over self.tags, for _draw.
        self.nxt: dict[str, list[float]] = {}
        for t in self.tags:
            succ = rng.sample(self.tags, k=min(2, len(self.tags)))
            weights = []
            for other in self.tags:
                if other == succ[0]:
                    weights.append(0.55)
                elif len(succ) > 1 and other == succ[1]:
                    weights.append(0.30)
                else:
                    weights.append(0.15 / max(1, len(self.tags) - len(succ)))
            self.nxt[t] = list(accumulate(weights))
        self.start = list(accumulate([1.0] * len(self.tags)))

        self.words: dict[str, list[str]] = {
            t: [f"w{t}x{j}" for j in range(spec.words_per_tag)] for t in self.tags
        }
        self.ambiguous: dict[str, list[str]] = {t: [] for t in self.tags}
        for j in range(spec.ambiguous_words):
            a, b = rng.sample(self.tags, k=2)
            word = f"u{j:03d}"
            self.ambiguous[a].append(word)
            self.ambiguous[b].append(word)

    def _draw(self, rng: random.Random, cum: list[float]) -> str:
        """A tag drawn by its cumulative weights, with the arithmetic of
        ``rng.choices(self.tags, weights)[0]``, from one ``rng.random()``."""
        return self.tags[bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)]

    def emit(self, rng: random.Random, n_tokens: int) -> str:
        spec = self.spec
        lines = []
        produced = 0
        while produced < n_tokens:
            length = rng.randint(*spec.sentence_len)
            length = min(length, n_tokens - produced) or 1
            tags = []
            tag = self._draw(rng, self.start)
            for _ in range(length):
                tags.append(tag)
                tag = self._draw(rng, self.nxt[tag])
            items = []
            for t in tags:
                shared = self.ambiguous[t]
                if shared and rng.random() < spec.ambiguous_rate:
                    word = rng.choice(shared)
                else:
                    word = rng.choice(self.words[t])
                items.append(f"{word}/{t}")
            lines.append(" ".join(items))
            produced += length
        return "\n".join(lines) + "\n"


def markov_corpus(spec: ChainSpec, draw_seed: int, n_tokens: int) -> str:
    """Tagged text of exactly n_tokens drawn from the spec's chain.

    The chain itself depends only on spec.structure_seed, so two calls
    with different draw seeds give train/test samples of one language.
    """
    return _Chain(spec).emit(random.Random(draw_seed), n_tokens)


def random_family_corpus(seed: int) -> tuple[str, dict]:
    """One corpus from a broad randomized family, for equivalence suites.

    Draws tagset size in 5..20, size in 200..2000 tokens, and ambiguity
    settings from the seed; returns (text, parameters actually used).
    """
    rng = random.Random(seed)
    n_tags = rng.randint(5, 20)
    n_tokens = rng.randint(200, 2000)
    spec = ChainSpec(
        n_tags=n_tags,
        words_per_tag=rng.randint(3, 8),
        ambiguous_words=rng.randint(n_tags // 2 + 1, 2 * n_tags),
        ambiguous_rate=rng.uniform(0.25, 0.6),
        sentence_len=(rng.randint(3, 6), rng.randint(8, 18)),
        structure_seed=rng.randrange(2**30),
    )
    text = markov_corpus(spec, draw_seed=rng.randrange(2**30), n_tokens=n_tokens)
    params = {
        "seed": seed,
        "n_tags": n_tags,
        "n_tokens": n_tokens,
        "ambiguous_words": spec.ambiguous_words,
        "ambiguous_rate": round(spec.ambiguous_rate, 3),
    }
    return text, params
