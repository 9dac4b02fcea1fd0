"""Seeded benchmark inputs and the plain-Python model they describe.

Everything the program under test receives is text made here: snapshot
text, script text and statement text. The model holds the same data as
plain Python values, so every answer can be checked without the program.

Naming keeps base data and benchmark writes apart: base authors are
``A#####`` and base titles ``T######``; rows created by write operations
are ``X######`` authors and ``U######`` titles. Writes touch only ``X``/``U``
rows, so answers about the base data never depend on the write history.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

DDL = (
    "relation (author (name text) (birthdate timestamp))",
    "relation (book author (title text) timestamp)",
    "relation (genre text)",
    "relation (book_genre book genre)",
)
GENRES = tuple(f"g{i:02d}" for i in range(20))
BULK_TUPLES = 50

Date = Tuple[int, Optional[int], Optional[int]]


def ts_literal(d: Date) -> str:
    """Statement literal for a date, e.g. ``1950-03-04`` or ``1990``."""
    y, m, dd = d
    out = f"{y:04d}"
    if m is not None:
        out += f"-{m:02d}"
        if dd is not None:
            out += f"-{dd:02d}"
    return out


def ts_canonical(d: Date) -> str:
    """The engine's canonical rendering (snapshots, csv, tabular)."""
    return "+" + ts_literal(d)


@dataclass
class Model:
    """The database contents as plain values.

    A plain row is a tuple of str and date tuples; a reference position
    holds the referenced plain row, as the benchmark dereferences answers
    before comparing them.
    """

    authors: Dict[str, Date] = field(default_factory=dict)
    books: Dict[str, Tuple[str, int]] = field(default_factory=dict)  # title -> (author, year)
    links: Set[Tuple[str, str]] = field(default_factory=set)  # (title, genre)
    genres: Tuple[str, ...] = GENRES

    def copy(self) -> "Model":
        return Model(dict(self.authors), dict(self.books), set(self.links), self.genres)

    def author_row(self, name: str):
        return (name, self.authors[name])

    def book_row(self, title: str):
        author, year = self.books[title]
        return (self.author_row(author), title, (year, None, None))

    def books_of(self, name: str) -> List[str]:
        return [t for t, (a, _y) in self.books.items() if a == name]

    def genre_pairs(self, name: str) -> Set[tuple]:
        """Plain answer of ``{genre (book (author name .) . .)}``."""
        titles = set(self.books_of(name))
        return {(g,) + self.book_row(t) for t, g in self.links if t in titles}

    def row_counts(self) -> Dict[str, int]:
        return {
            "author": len(self.authors),
            "book": len(self.books),
            "genre": len(self.genres),
            "book_genre": len(self.links),
        }


def _apportion(weights: List[float], total: int) -> List[int]:
    """Whole shares of ``total`` in proportion to ``weights``, largest
    remainders rounded up."""
    scale = total / sum(weights)
    shares = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: shares[i] - weights[i] * scale)
    for i in by_remainder[: total - sum(shares)]:
        shares[i] += 1
    return shares


def make_model(rng: random.Random, n_authors: int, n_books: int, links_per_book: Tuple[int, int]) -> Model:
    """Random base data. Books per author follow a Zipf-like skew, so
    ``navigate`` answers range from one row to a few hundred. The skew
    is the same for every seed (the author of rank r gets the same number
    of books); the seed picks which author has which rank, and which
    titles are whose."""
    model = Model()
    for num in sorted(rng.sample(range(100_000), n_authors)):
        model.authors[f"A{num:05d}"] = (rng.randint(1900, 1999), rng.randint(1, 12), rng.randint(1, 28))
    names = list(model.authors)
    rng.shuffle(names)
    weights = [1.0 / (rank + 1) ** 0.7 for rank in range(n_authors)]
    owners = [name for name, count in zip(names, _apportion(weights, n_books)) for _ in range(count)]
    rng.shuffle(owners)
    for num, owner in zip(sorted(rng.sample(range(1_000_000), n_books)), owners):
        model.books[f"T{num:06d}"] = (owner, rng.randint(1950, 2020))
    lo, hi = links_per_book
    for title in model.books:
        for genre in rng.sample(GENRES, rng.randint(lo, hi)):
            model.links.add((title, genre))
    return model


# --- text the program receives ------------------------------------------------


def _q(s: str) -> str:
    return '"' + s + '"'


def snapshot_text(model: Model) -> str:
    """Snapshot of ``model`` in the engine's export order (canonical key
    order with references replaced by ordinals), so a load-save cycle
    returns exactly this text."""
    lines = [";; relang snapshot v1", *DDL, ""]
    authors = sorted(model.authors)
    a_ord = {name: i + 1 for i, name in enumerate(authors)}
    for i, name in enumerate(authors):
        lines.append(f"row author {i + 1} {{{_q(name)} {ts_canonical(model.authors[name])}}}")
    books = sorted(model.books, key=lambda t: (a_ord[model.books[t][0]], t))
    b_ord = {title: i + 1 for i, title in enumerate(books)}
    for i, title in enumerate(books):
        author, year = model.books[title]
        lines.append(f"row book {i + 1} {{#author:{a_ord[author]} {_q(title)} +{year:04d}}}")
    g_ord = {g: i + 1 for i, g in enumerate(sorted(model.genres))}
    for g, i in g_ord.items():
        lines.append(f"row genre {i} {{{_q(g)}}}")
    links = sorted((b_ord[t], g_ord[g]) for t, g in model.links)
    for i, (b, g) in enumerate(links):
        lines.append(f"row book_genre {i + 1} {{#book:{b} #genre:{g}}}")
    return "\n".join(lines) + "\n"


def setup_script() -> str:
    """DDL plus the genre list: the empty library a script loads into."""
    genres = " ".join("{" + _q(g) + "}" for g in GENRES)
    return "\n".join(DDL) + f"\nadd genre ({genres})\ncommit\n"


def _chunks(items, n):
    return [items[i : i + n] for i in range(0, len(items), n)]


def bulk_scripts(model: Model) -> List[str]:
    """The model's authors, books and links as ``add`` statements of
    ``BULK_TUPLES`` tuples each, every one followed by ``commit``. Books
    name their author and links their book by nested selections."""
    out = []
    for chunk in _chunks(sorted(model.authors), BULK_TUPLES):
        body = " ".join(f"{{{_q(a)} {_q(ts_literal(model.authors[a]))}}}" for a in chunk)
        out.append(f"add author ({body})\ncommit\n")
    for chunk in _chunks(sorted(model.books), BULK_TUPLES):
        body = " ".join(
            f'{{(author {_q(model.books[t][0])} .) {_q(t)} "{model.books[t][1]:04d}"}}'
            for t in chunk
        )
        out.append(f"add book ({body})\ncommit\n")
    for chunk in _chunks(sorted(model.links), BULK_TUPLES):
        body = " ".join(f"{{(book . {_q(t)} .) (genre {_q(g)})}}" for t, g in chunk)
        out.append(f"add book_genre ({body})\ncommit\n")
    return out
