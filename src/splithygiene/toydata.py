"""Deterministic toy knowledge graph and seed set bundled with the package.

A small world of companies, people, cities, countries, industries,
occupations, and products, wired by nine predicates, plus one seed
question-query pair per question wording. Everything is a pure function of a
fixed seed, so the checked-in data files under ``data/`` can be regenerated
byte-for-byte with ``write_toy_dataset``.

Entity name words are chosen to be disjoint from every question-pattern word;
the builder asserts this, which keeps slot matching unambiguous on generated
instances.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from . import rng
from .corpus import Seed, SurfaceForm, write_lines, write_seeds
from .kgstore import Graph
from .qlang import NlqPattern, Word, match_nlq, parse_query, tokenize_nlq
from .synthesis import Template, generate_instances

ONTOLOGY = "http://toy.example.org/ontology/"
RESOURCE = "http://toy.example.org/resource/"

TOY_BUILD_SEED = 7

_INDUSTRIES = [
    "Software", "Pizza", "Publishing", "Aerospace", "Banking", "Robotics",
    "Textiles", "Shipping", "Gaming", "Insurance", "Mining", "Forestry",
]
_OCCUPATIONS = [
    "Engineer", "Baker", "Writer", "Pilot", "Banker", "Miner",
    "Sailor", "Designer", "Chemist", "Printer", "Farmer", "Potter",
]
_COUNTRIES = [
    "Norway", "Iceland", "Estonia", "Portugal", "Chile", "Laos",
    "Kenya", "Peru", "Fiji", "Nepal", "Malta", "Ghana",
]
_CITIES = [
    "Oslo", "Bergen", "Tromso", "Reykjavik", "Tartu", "Porto",
    "Santiago", "Vientiane", "Nairobi", "Lima", "Suva", "Kathmandu",
    "Valletta", "Accra", "Lake Forest", "Port Victoria", "New Harbor",
    "East Dalton", "Silver Creek", "North Quay", "Iron Hill", "Green Bay",
    "Star Valley", "Old Bridge",
]
_FIRST_NAMES = [
    "Ada", "Bram", "Cleo", "Dag", "Edda", "Finn", "Greta", "Hugo", "Ines",
    "Jorn", "Kaia", "Lars", "Mari", "Nils", "Oda", "Per", "Runa", "Sten",
    "Tove", "Ulf",
]
_LAST_NAMES = [
    "Varga", "Holt", "Brandt", "Lund", "Eriksen", "Moen", "Sand",
    "Vik", "Foss", "Berg", "Dahl", "Hagen", "Nes", "Rud",
]
_COMPANY_HEADS = [
    "Nordic", "Solar", "Arctic", "Delta", "Crystal", "Summit", "Coastal",
    "Prime", "Atlas", "Vertex", "Lunar", "Copper", "Rapid", "Silent",
    "Golden", "Cedar", "Falcon", "Ember", "Velvet", "Granite",
]
_COMPANY_TAILS = [
    "Pixel", "Forge", "Grain", "Orbit", "Anchor", "Circuit", "Quill",
    "Loom", "Ledger", "Gear", "Mast", "Crest", "Spark", "Vault", "Bloom",
]
_COMPANY_SUFFIXES = ["Labs", "Group", "Systems"]
_PRODUCTS = [
    "Sky Lamp", "River Drone", "Cloud Kite", "Flame Stove", "Wave Canoe",
    "Night Piano", "Dawn Radio", "Frost Robe", "Storm Tent", "Sun Clock",
    "Moss Boat", "Echo Bell", "Pine Sled", "Glass Harp", "Dune Cart",
    "Mist Fan", "Snow Plow", "Leaf Press", "Star Chart", "Wind Mill",
]

N_COMPANIES = 120
N_PERSONS = 80

# one seed per wording; NLQ pattern paired with its placeholder query
_FAMILIES = [
    ("Is <B> in the <A> industry?",
     "ASK WHERE { <Placeholder:B> <P:industry> <Placeholder:A> }"),
    ("Is <B> active in the <A> business?",
     "ASK WHERE { <Placeholder:B> <P:industry> <Placeholder:A> }"),
    ("Was <B> founded by <A>?",
     "ASK WHERE { <Placeholder:B> <P:founder> <Placeholder:A> }"),
    ("Is a <A> industry company based in <B>?",
     "ASK WHERE { ?u <P:industry> <Placeholder:A> . ?u <P:headquarters> <Placeholder:B> }"),
    ("Is <A> headquartered in <B>?",
     "ASK WHERE { <Placeholder:A> <P:headquarters> <Placeholder:B> }"),
    ("Does the founder of <A> work for <B>?",
     "ASK WHERE { <Placeholder:A> <P:founder> ?w . ?w <P:employer> <Placeholder:B> }"),
    ("Was <A> born in <B>?",
     "ASK WHERE { <Placeholder:A> <P:birthplace> <Placeholder:B> }"),
    ("Is <A> located in <B>?",
     "ASK WHERE { <Placeholder:A> <P:country> <Placeholder:B> }"),
    ("Did <A> acquire <B>?",
     "ASK WHERE { <Placeholder:A> <P:acquired> <Placeholder:B> }"),
    ("Does <A> work as a <B>?",
     "ASK WHERE { <Placeholder:A> <P:occupation> <Placeholder:B> }"),
    ("Does <A> make the <B>?",
     "ASK WHERE { <Placeholder:A> <P:product> <Placeholder:B> }"),
    ("Is <A> employed by <B>?",
     "ASK WHERE { <Placeholder:A> <P:employer> <Placeholder:B> }"),
    ("Which companies are in the <A> industry?",
     "SELECT DISTINCT ?x WHERE { ?x <P:industry> <Placeholder:A> }"),
    ("Who founded <A>?",
     "SELECT DISTINCT ?y WHERE { <Placeholder:A> <P:founder> ?y }"),
    ("Which companies did <A> found?",
     "SELECT DISTINCT ?z WHERE { ?z <P:founder> <Placeholder:A> }"),
    ("Where is <A> headquartered?",
     "SELECT DISTINCT ?u WHERE { <Placeholder:A> <P:headquarters> ?u }"),
    ("Which companies are headquartered in <A>?",
     "SELECT DISTINCT ?v WHERE { ?v <P:headquarters> <Placeholder:A> }"),
    ("Where was <A> born?",
     "SELECT DISTINCT ?w WHERE { <Placeholder:A> <P:birthplace> ?w }"),
    ("Who was born in <A>?",
     "SELECT DISTINCT ?x WHERE { ?x <P:birthplace> <Placeholder:A> }"),
    ("Which country is <A> located in?",
     "SELECT DISTINCT ?y WHERE { <Placeholder:A> <P:country> ?y }"),
    ("Which industry is <A> in?",
     "SELECT DISTINCT ?z WHERE { <Placeholder:A> <P:industry> ?z }"),
    ("Which companies did <A> acquire?",
     "SELECT DISTINCT ?u WHERE { <Placeholder:A> <P:acquired> ?u }"),
    ("Who works as a <A>?",
     "SELECT DISTINCT ?v WHERE { ?v <P:occupation> <Placeholder:A> }"),
    ("What does <A> make?",
     "SELECT DISTINCT ?w WHERE { <Placeholder:A> <P:product> ?w }"),
    ("Who is employed by <A>?",
     "SELECT DISTINCT ?x WHERE { ?x <P:employer> <Placeholder:A> }"),
    ("Which cities are in <A>?",
     "SELECT DISTINCT ?y WHERE { ?y <P:country> <Placeholder:A> }"),
    ("Was the founder of <A> born in <B>?",
     "ASK WHERE { <Placeholder:A> <P:founder> ?z . ?z <P:birthplace> <Placeholder:B> }"),
    ("Did <A> acquire a company based in <B>?",
     "ASK WHERE { <Placeholder:A> <P:acquired> ?u . ?u <P:headquarters> <Placeholder:B> }"),
    ("Is <A> headquartered in a city in <B>?",
     "ASK WHERE { <Placeholder:A> <P:headquarters> ?v . ?v <P:country> <Placeholder:B> }"),
    ("Did <A> found a company in the <B> industry?",
     "ASK WHERE { ?w <P:founder> <Placeholder:A> . ?w <P:industry> <Placeholder:B> }"),
    ("Was <A> born in a city in <B>?",
     "ASK WHERE { <Placeholder:A> <P:birthplace> ?x . ?x <P:country> <Placeholder:B> }"),
    ("Does a <A> industry company make the <B>?",
     "ASK WHERE { ?y <P:industry> <Placeholder:A> . ?y <P:product> <Placeholder:B> }"),
    ("Did <A> acquire a company in the <B> industry?",
     "ASK WHERE { <Placeholder:A> <P:acquired> ?z . ?z <P:industry> <Placeholder:B> }"),
    ("Is the employer of <A> based in <B>?",
     "ASK WHERE { <Placeholder:A> <P:employer> ?u . ?u <P:headquarters> <Placeholder:B> }"),
    ("Was <B> acquired by a company in the <A> industry?",
     "ASK WHERE { ?v <P:acquired> <Placeholder:B> . ?v <P:industry> <Placeholder:A> }"),
    ("Does <A> employ a <B>?",
     "ASK WHERE { ?w <P:employer> <Placeholder:A> . ?w <P:occupation> <Placeholder:B> }"),
    ("Does the company <A> have a founder who works as a <B>?",
     "ASK WHERE { <Placeholder:A> <P:founder> ?x . ?x <P:occupation> <Placeholder:B> }"),
    ("Was a <A> made by a company based in <B>?",
     "ASK WHERE { ?y <P:product> <Placeholder:A> . ?y <P:headquarters> <Placeholder:B> }"),
    ("Who founded a company in the <A> industry?",
     "SELECT DISTINCT ?z WHERE { ?u <P:founder> ?z . ?u <P:industry> <Placeholder:A> }"),
    ("Which cities host a company in the <A> industry?",
     "SELECT DISTINCT ?u WHERE { ?v <P:headquarters> ?u . ?v <P:industry> <Placeholder:A> }"),
    ("In which country was <A> born?",
     "SELECT DISTINCT ?v WHERE { <Placeholder:A> <P:birthplace> ?w . ?w <P:country> ?v }"),
    ("Which countries have a company in the <A> industry?",
     "SELECT DISTINCT ?w WHERE { ?x <P:industry> <Placeholder:A> . ?x <P:headquarters> ?y . ?y <P:country> ?w }"),
    ("Which industries do companies based in <A> belong to?",
     "SELECT DISTINCT ?x WHERE { ?y <P:headquarters> <Placeholder:A> . ?y <P:industry> ?x }"),
    ("Who founded the companies headquartered in <A>?",
     "SELECT DISTINCT ?y WHERE { ?z <P:headquarters> <Placeholder:A> . ?z <P:founder> ?y }"),
    ("Which products are made in the <A> industry?",
     "SELECT DISTINCT ?z WHERE { ?u <P:industry> <Placeholder:A> . ?u <P:product> ?z }"),
    ("Where are the companies founded by <A> headquartered?",
     "SELECT DISTINCT ?u WHERE { ?v <P:founder> <Placeholder:A> . ?v <P:headquarters> ?u }"),
    ("Which occupations do people born in <A> have?",
     "SELECT DISTINCT ?v WHERE { ?w <P:birthplace> <Placeholder:A> . ?w <P:occupation> ?v }"),
    ("Which companies does the employer of <A> own?",
     "SELECT DISTINCT ?w WHERE { <Placeholder:A> <P:employer> ?x . ?x <P:acquired> ?w }"),
]


def _entity(name: str) -> str:
    return RESOURCE + name.replace(" ", "_")


def _predicate(name: str) -> str:
    return ONTOLOGY + name


def _family_query(marker: str) -> str:
    return marker.replace("<P:", f"<{ONTOLOGY}")


def family_templates() -> list[Template]:
    """The toy wordings as ready-made templates (ids fam00..famNN)."""
    out = []
    for num, (nlq_marker, query_marker) in enumerate(_FAMILIES):
        out.append(Template(
            id=f"fam{num:02d}",
            nlq_pattern=NlqPattern.from_text(nlq_marker),
            query_pattern=parse_query(_family_query(query_marker)),
            origin_seed_id=f"s{num:03d}",
        ))
    return out


def build_triples() -> list[tuple[str, str, str]]:
    """The toy world as deterministic (subject, predicate, object) triples."""
    gen = rng.generator(TOY_BUILD_SEED, "toy-world")

    def pick(seq):
        return seq[int(gen.integers(len(seq)))]

    companies = []
    combos = [(h, t) for h in _COMPANY_HEADS for t in _COMPANY_TAILS]
    order = gen.permutation(len(combos))
    for i in range(N_COMPANIES):
        head, tail = combos[int(order[i])]
        name = f"{head} {tail}"
        if i % 3 == 0:
            name += f" {_COMPANY_SUFFIXES[(i // 3) % len(_COMPANY_SUFFIXES)]}"
        companies.append(name)

    persons = []
    pairs = [(f, l) for f in _FIRST_NAMES for l in _LAST_NAMES]
    order = gen.permutation(len(pairs))
    for i in range(N_PERSONS):
        first, last = pairs[int(order[i])]
        persons.append(f"{first} {last}")

    triples: set[tuple[str, str, str]] = set()
    city_order = [int(i) for i in gen.permutation(len(_CITIES))]
    for slot, city_idx in enumerate(city_order):
        triples.add((_entity(_CITIES[city_idx]), _predicate("country"),
                     _entity(_COUNTRIES[slot % len(_COUNTRIES)])))

    for i, person in enumerate(persons):
        triples.add((_entity(person), _predicate("birthplace"), _entity(pick(_CITIES))))
        triples.add((_entity(person), _predicate("occupation"), _entity(_OCCUPATIONS[i % len(_OCCUPATIONS)])))
        if i % 3 == 0:
            triples.add((_entity(person), _predicate("occupation"), _entity(pick(_OCCUPATIONS))))
        triples.add((_entity(person), _predicate("employer"), _entity(pick(companies))))

    for i, company in enumerate(companies):
        triples.add((_entity(company), _predicate("industry"), _entity(_INDUSTRIES[i % len(_INDUSTRIES)])))
        triples.add((_entity(company), _predicate("headquarters"), _entity(pick(_CITIES))))
        triples.add((_entity(company), _predicate("product"), _entity(_PRODUCTS[i % len(_PRODUCTS)])))
        if i % 2 == 0:
            triples.add((_entity(company), _predicate("product"), _entity(pick(_PRODUCTS))))
        triples.add((_entity(company), _predicate("founder"), _entity(persons[i % len(persons)])))
        if i % 2 == 1:
            triples.add((_entity(company), _predicate("founder"), _entity(pick(persons))))
        if i % 3 != 0:
            other = pick(companies)
            if other != company:
                triples.add((_entity(company), _predicate("acquired"), _entity(other)))

    _check_vocabulary(companies, persons)
    return sorted(triples)


def _check_vocabulary(companies, persons) -> None:
    entity_names = (
        companies + persons + _CITIES + _COUNTRIES + _INDUSTRIES + _OCCUPATIONS + _PRODUCTS
    )
    labels = [name.lower() for name in entity_names]
    if len(set(labels)) != len(labels):
        raise AssertionError("entity labels must be unique")
    entity_words = {word for label in labels for word in tokenize_nlq(label)}
    pattern_words = {
        e.token
        for t in family_templates()
        for e in t.nlq_pattern.elements
        if isinstance(e, Word)
    }
    overlap = entity_words & pattern_words
    if overlap:
        raise AssertionError(f"entity words collide with pattern words: {sorted(overlap)}")


def build_seeds() -> list[Seed]:
    """One seed per family, instantiated from the toy graph.

    The surface-form spans come from matching the family pattern back
    against the sampled question, so extracting a template from each seed
    reproduces its family exactly.
    """
    graph = Graph(build_triples())
    seeds = []
    for num, template in enumerate(family_templates()):
        instances = generate_instances(template, graph, limit=1, rng_seed=TOY_BUILD_SEED)
        if not instances:
            raise AssertionError(f"family {template.id} has no bindings in the toy graph")
        pair = instances[0].pair
        bindings = match_nlq(template.nlq_pattern, pair.nlq)
        forms = {label: SurfaceForm(start, end) for label, (start, end) in bindings.items()}
        seeds.append(Seed(id=f"s{num:03d}", pair=pair, surface_forms=forms))
    return seeds


def write_toy_dataset(out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_lines(out / "toy.nt", [f"<{s}> <{p}> <{o}> ." for s, p, o in build_triples()])
    write_seeds(out / "seeds.jsonl", build_seeds())


def toy_kg_path() -> Path:
    return Path(str(resources.files("splithygiene").joinpath("data/toy.nt")))


def toy_seeds_path() -> Path:
    return Path(str(resources.files("splithygiene").joinpath("data/seeds.jsonl")))
