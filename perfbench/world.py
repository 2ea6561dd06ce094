"""Scaled synthetic world for the benchmark's corpus-preparation workload.

The toy world of ``splithygiene.toydata`` has fixed entity counts. This
module rebuilds the same nine predicates with the same wiring, with every
entity count multiplied by ``scale``, and names built from a syllable
alphabet. No name word may equal a word of the toy question patterns, so
slot matching on generated questions stays unambiguous, exactly as in the
toy builder. The world is a pure function of ``(seed, scale)``: the same
arguments give the same bytes.
"""

from __future__ import annotations

import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from splithygiene.qlang import Word  # noqa: E402
from splithygiene.toydata import ONTOLOGY, RESOURCE, family_templates, toy_seeds_path  # noqa: E402

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# toy entity counts per kind; the scaled world multiplies each by `scale`
TOY_COUNTS = {
    "company": 120, "person": 80, "city": 24, "country": 12,
    "industry": 12, "occupation": 12, "product": 20,
    "company_head": 20, "company_tail": 15, "first_name": 20, "last_name": 14,
}
_SUFFIX_COUNT = 3


def pattern_words() -> set[str]:
    """Every literal word of the toy question patterns."""
    return {
        e.token
        for t in family_templates()
        for e in t.nlq_pattern.elements
        if isinstance(e, Word)
    }


def _word_pool(rnd: random.Random, needed: int, banned: set[str]) -> list[str]:
    """`needed` distinct capitalised syllable words, none of them in `banned`."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = [a + b for a in syllables for b in syllables]
    if needed > len(words) // 2:
        words += [a + b + c for a in syllables for b in syllables for c in syllables]
    rnd.shuffle(words)
    out = [w.capitalize() for w in words if w not in banned][:needed]
    if len(out) < needed:
        raise ValueError(f"syllable alphabet too small for {needed} words")
    return out


def build_triples(seed: int, scale: int) -> list[tuple[str, str, str]]:
    """The scaled world as sorted (subject, predicate, object) IRI triples."""
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    rnd = random.Random(seed)
    n = {kind: count * scale for kind, count in TOY_COUNTS.items()}
    sizes = [
        n["company_head"], n["company_tail"], _SUFFIX_COUNT, n["first_name"], n["last_name"],
        n["city"], n["country"], n["industry"], n["occupation"], 2 * n["product"],
    ]
    pool = iter(_word_pool(rnd, sum(sizes), pattern_words()))
    heads, tails, suffixes, firsts, lasts, cities, countries, industries, occupations, product_words = (
        [next(pool) for _ in range(size)] for size in sizes
    )
    products = [f"{a} {b}" for a, b in zip(product_words[::2], product_words[1::2])]

    def pick(seq):
        return seq[rnd.randrange(len(seq))]

    combos = rnd.sample([(h, t) for h in heads for t in tails], n["company"])
    companies = []
    for i, (head, tail) in enumerate(combos):
        name = f"{head} {tail}"
        if i % 3 == 0:
            name += f" {suffixes[(i // 3) % len(suffixes)]}"
        companies.append(name)
    persons = [f"{f} {l}" for f, l in rnd.sample([(f, l) for f in firsts for l in lasts], n["person"])]

    def entity(name: str) -> str:
        return RESOURCE + name.replace(" ", "_")

    def predicate(name: str) -> str:
        return ONTOLOGY + name

    triples: set[tuple[str, str, str]] = set()
    city_order = list(range(len(cities)))
    rnd.shuffle(city_order)
    for slot, city_idx in enumerate(city_order):
        triples.add((entity(cities[city_idx]), predicate("country"), entity(countries[slot % len(countries)])))
    for i, person in enumerate(persons):
        triples.add((entity(person), predicate("birthplace"), entity(pick(cities))))
        triples.add((entity(person), predicate("occupation"), entity(occupations[i % len(occupations)])))
        if i % 3 == 0:
            triples.add((entity(person), predicate("occupation"), entity(pick(occupations))))
        triples.add((entity(person), predicate("employer"), entity(pick(companies))))
    for i, company in enumerate(companies):
        triples.add((entity(company), predicate("industry"), entity(industries[i % len(industries)])))
        triples.add((entity(company), predicate("headquarters"), entity(pick(cities))))
        triples.add((entity(company), predicate("product"), entity(products[i % len(products)])))
        if i % 2 == 0:
            triples.add((entity(company), predicate("product"), entity(pick(products))))
        triples.add((entity(company), predicate("founder"), entity(persons[i % len(persons)])))
        if i % 2 == 1:
            triples.add((entity(company), predicate("founder"), entity(pick(persons))))
        if i % 3 != 0:
            other = pick(companies)
            if other != company:
                triples.add((entity(company), predicate("acquired"), entity(other)))

    labels = [name.lower() for name in companies + persons + cities + countries + industries + occupations + products]
    if len(set(labels)) != len(labels):
        raise AssertionError("entity labels must be unique")
    overlap = {w for label in labels for w in label.split()} & pattern_words()
    if overlap:
        raise AssertionError(f"entity words collide with pattern words: {sorted(overlap)}")
    return sorted(triples)


def ntriples_text(triples) -> str:
    return "".join(f"<{s}> <{p}> <{o}> .\n" for s, p, o in triples)


def write_world(out_dir, seed: int, scale: int) -> dict:
    """Write world.nt and seeds.jsonl into out_dir; return their counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    triples = build_triples(seed, scale)
    (out / "world.nt").write_text(ntriples_text(triples), encoding="utf-8", newline="\n")
    shutil.copyfile(toy_seeds_path(), out / "seeds.jsonl")
    return {"triples": len(triples), "templates": len(family_templates())}

