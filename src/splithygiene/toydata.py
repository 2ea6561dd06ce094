"""The toy knowledge graph and seed set bundled with the package.

A small world of companies, people, cities, countries, industries,
occupations, and products, wired by nine predicates, plus one seed
question-query pair per question wording. The files under ``data/`` are the
source; the tests pin their digests, and check that no entity label word is a
literal word of a question pattern, which keeps slot matching unambiguous on
generated instances.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .corpus import read_seeds
from .synthesis import Template, extract_template

ONTOLOGY = "http://toy.example.org/ontology/"
RESOURCE = "http://toy.example.org/resource/"


def family_templates() -> list[Template]:
    """The toy wordings as templates: those of the bundled seeds, in file order."""
    return [extract_template(seed) for seed in read_seeds(toy_seeds_path())]


def toy_kg_path() -> Path:
    return Path(str(resources.files("splithygiene").joinpath("data/toy.nt")))


def toy_seeds_path() -> Path:
    return Path(str(resources.files("splithygiene").joinpath("data/seeds.jsonl")))
