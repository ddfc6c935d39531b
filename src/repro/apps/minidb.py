"""Mini relational engine: the database substrate behind TORI.

The paper's second application converts TORI — a "Task-Oriented database
Retrieval Interface" — to a cooperative tool (§4).  TORI ran against a real
DBMS; this module is the substitution: an in-memory relational engine with
exactly the query surface TORI's forms need, including the comparison
operators the paper lists ("substring", "like-one-of", …).

The engine counts rows scanned per query, which is the cost model behind
experiment E8 (multiple query evaluation vs. evaluate-once-share-results).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError


class QueryError(ReproError, ValueError):
    """Malformed query: unknown table, column, or operator."""


# Comparison operators TORI's operator menus offer (§4 names two of them;
# the rest complete a plausible retrieval vocabulary).
OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": lambda cell, value: cell == value,
    "ne": lambda cell, value: cell != value,
    "lt": lambda cell, value: cell is not None and cell < value,
    "le": lambda cell, value: cell is not None and cell <= value,
    "gt": lambda cell, value: cell is not None and cell > value,
    "ge": lambda cell, value: cell is not None and cell >= value,
    "substring": lambda cell, value: str(value) in str(cell),
    "prefix": lambda cell, value: str(cell).startswith(str(value)),
    "like-one-of": lambda cell, value: str(cell)
    in [v.strip() for v in str(value).split(",")],
}


@dataclass(frozen=True)
class Condition:
    """One WHERE clause: ``column <op> value``."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise QueryError(f"unknown operator {self.op!r}")

    def matches(self, row: Mapping[str, Any]) -> bool:
        if self.column not in row:
            raise QueryError(f"unknown column {self.column!r}")
        return OPERATORS[self.op](row[self.column], self.value)

    def to_wire(self) -> Dict[str, Any]:
        return {"column": self.column, "op": self.op, "value": self.value}

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "Condition":
        return cls(str(data["column"]), str(data["op"]), data["value"])


@dataclass
class QueryResult:
    """Rows matching a query plus its execution cost."""

    columns: Tuple[str, ...]
    rows: List[Tuple[Any, ...]]
    rows_scanned: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def formatted(self, separator: str = " | ") -> List[str]:
        """Human-readable row strings, for ListBox display."""
        return [
            separator.join(str(cell) for cell in row) for row in self.rows
        ]


class Table:
    """One relation: named columns, list-of-dict rows."""

    def __init__(self, name: str, columns: Sequence[str]):
        if not columns:
            raise QueryError("a table needs at least one column")
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self._rows: List[Dict[str, Any]] = []

    def insert(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise QueryError(
                f"table {self.name!r} has no columns {sorted(unknown)}"
            )
        row = {column: values.get(column) for column in self.columns}
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    def scan(self) -> Iterable[Mapping[str, Any]]:
        return iter(self._rows)


class Database:
    """A named collection of tables with a query API and cost accounting."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        #: Cumulative rows scanned over the database's lifetime (E8).
        self.total_rows_scanned = 0
        self.queries_executed = 0

    def create_table(self, name: str, columns: Sequence[str]) -> Table:
        if name in self._tables:
            raise QueryError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"no table named {name!r}") from None

    def tables(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def select(
        self,
        table_name: str,
        conditions: Sequence[Condition] = (),
        columns: Optional[Sequence[str]] = None,
        *,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> QueryResult:
        """Evaluate a conjunctive query over one table (full scan)."""
        table = self.table(table_name)
        out_columns = tuple(columns) if columns else table.columns
        unknown = set(out_columns) - set(table.columns)
        if unknown:
            raise QueryError(
                f"table {table_name!r} has no columns {sorted(unknown)}"
            )
        if order_by is not None and order_by not in table.columns:
            raise QueryError(f"cannot order by unknown column {order_by!r}")
        scanned = 0
        matches: List[Mapping[str, Any]] = []
        for row in table.scan():
            scanned += 1
            if all(condition.matches(row) for condition in conditions):
                matches.append(row)
        if order_by is not None:
            matches.sort(key=lambda r: (r[order_by] is None, r[order_by]))
        if limit is not None:
            matches = matches[: max(0, limit)]
        self.total_rows_scanned += scanned
        self.queries_executed += 1
        return QueryResult(
            columns=out_columns,
            rows=[tuple(row[c] for c in out_columns) for row in matches],
            rows_scanned=scanned,
        )


# ---------------------------------------------------------------------------
# Sample dataset: a publications catalogue (what a retrieval UI browses)
# ---------------------------------------------------------------------------

_FIRST_AUTHORS = (
    "Zhao", "Hoppe", "Stefik", "Ellis", "Greenberg", "Patterson", "Dewan",
    "Rein", "Haake", "Knister", "Lauwers", "Baloian", "Tewissen", "Kalter",
)
_TOPICS = (
    "groupware", "hypertext", "user interfaces", "databases", "CSCW",
    "distributed systems", "education", "graphics", "version control",
)
_VENUES = ("CSCW", "CHI", "UIST", "ICDCS", "InterCHI", "ECSCW")

PUBLICATIONS_COLUMNS = ("id", "author", "title", "topic", "venue", "year", "pages")


def sample_publications(n_rows: int = 500, seed: int = 1994) -> Database:
    """A deterministic publications database for TORI demos and benches."""
    rng = random.Random(seed)
    db = Database("library")
    table = db.create_table("publications", PUBLICATIONS_COLUMNS)
    for i in range(n_rows):
        author = rng.choice(_FIRST_AUTHORS)
        topic = rng.choice(_TOPICS)
        table.insert(
            id=i,
            author=author,
            title=f"On {topic} ({author} et al., study {i})",
            topic=topic,
            venue=rng.choice(_VENUES),
            year=rng.randint(1986, 1994),
            pages=rng.randint(4, 24),
        )
    return db
