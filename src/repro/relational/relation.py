"""A small in-memory, column-oriented relation.

This is the storage substrate for Reptile's input data: raw survey records,
auxiliary sensing datasets, and the like. It holds what the served system
reads — columns, dictionary encodings, composite-key grouping, equality
filters — and the O(delta) appends and retractions of ingest, on top of a
dictionary-encoded columnar core (:mod:`repro.relational.encoding`): each
key column is an ``int32`` code array plus a value domain, and every hot
operation runs as a vectorized composite-key kernel instead of a per-row
Python loop.

Each column is typed once, where the relation is built, in the one form
its schema kind fixes: a ``measure(...)`` attribute is a ``float64``
array, every other attribute a dictionary encoding of one key cell type
(``bool``, ``int``, ``float`` or ``str``, no NaN). A cell the column
cannot take (a list, a NaN or a second cell type in a key column; a
``str``, ``bool`` or ``None`` in a measure) raises at construction,
naming the column. So every operator runs one way: grouping, equality
filters, appends and ingest's retraction lookup work on codes, and
measures are summed and compared as floats.

A relation is immutable: ``column()`` returns a column's values as a
tuple, ``rows()`` yields tuples, and every operator returns a new
relation, so data changes only by building a new relation (delta ingest
does, in O(delta)). Because no column changes after construction, its
content hash is computed once and cached.

``group_measure`` iterates in lexicographic key order — the order the
composite-key kernels produce — rather than first-occurrence order;
results are equal as mappings.

Delta maintenance is deferred: ``with_rows_appended`` and
``without_rows`` return a *pending* relation that shares its parent's
column storage and records the change as an appended tail plus sorted
dead positions (:class:`_Pending`). Any other reader materializes the
columns once, exactly as the eager concatenations and subsets would have
built them.
"""

from __future__ import annotations

import csv
import threading
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .encoding import (DictEncoding, EncodingError, GroupIndex, KeyIndex,
                       digest_parts, factorize)
from .schema import Attribute, Schema, SchemaError

Row = tuple
Key = tuple


class _Column:
    """One column in the one form its schema kind fixes: a ``float64``
    array for a measure, a :class:`DictEncoding` for every other
    attribute.

    A column never changes after construction, so its content hash is
    cached. Its values are handed out only as copies.
    """

    __slots__ = ("_array", "_enc", "_token")

    def __init__(self, array: np.ndarray | None = None,
                 enc: DictEncoding | None = None):
        self._array = array
        self._enc = enc
        self._token: bytes | None = None

    @classmethod
    def typed(cls, attr: Attribute, values, copy: bool) -> "_Column":
        """``values`` typed as ``attr``'s kind says: a measure becomes a
        ``float64`` array (a copy unless ``copy`` is false), any other
        attribute a :class:`DictEncoding` (a given one is adopted as it
        is). A cell the column cannot take raises, naming the column:
        :class:`SchemaError` for a measure cell that is no ``int`` or
        ``float``, :class:`EncodingError` for a key cell."""
        if attr.is_measure():
            return cls(array=_measure_cells(attr.name, values, copy))
        if isinstance(values, DictEncoding):
            return cls(enc=values)
        try:
            return cls(enc=factorize(values))
        except EncodingError as exc:
            raise EncodingError(f"column {attr.name!r}: {exc}") from None

    def __len__(self) -> int:
        return len(self._array if self._enc is None else self._enc.codes)

    def values(self) -> list:
        """The values as a fresh list."""
        if self._enc is None:
            return self._array.tolist()
        return self._enc.decode()

    def cell(self, i: int):
        """Row ``i``'s value."""
        if self._enc is None:
            return float(self._array[i])
        return self._enc.domain[self._enc.codes[i]]

    def take(self, indices: np.ndarray) -> "_Column":
        """Row subset (an encoding shares its domain)."""
        if self._enc is None:
            return _Column(array=self._array[indices])
        return _Column(enc=self._enc.take(indices))

    def hash_token(self) -> bytes:
        """Stable content digest (cached): a measure hashes its raw
        bytes, a key column reuses its encoding's hash."""
        if self._token is None:
            self._token = self._enc.hash_token() if self._enc is not None \
                else digest_parts(str(self._array.dtype).encode(),
                                  self._array.tobytes())
        return self._token


#: The cell types a measure column takes (a numpy scalar counts as one).
_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _measure_cells(name: str, values, copy: bool) -> np.ndarray:
    """A measure column as a 1-D ``float64`` array; :class:`SchemaError`
    naming the column for a cell that is no ``int`` or ``float`` (a
    ``bool``, a ``str``, ``None``)."""
    if not (isinstance(values, np.ndarray) and values.ndim == 1
            and values.dtype.kind in "iuf"):
        values = list(values)
        if not set(map(type, values)) <= {int, float}:
            for v in values:
                if isinstance(v, bool) or not isinstance(v, _NUMBER_TYPES):
                    raise SchemaError(
                        f"measure {name!r} cell {v!r} is not a number")
    try:
        return (np.array if copy else np.asarray)(values, dtype=np.float64)
    except OverflowError as exc:
        raise SchemaError(f"measure {name!r}: {exc}") from None


class _Deferred:
    """One column of a pending relation: base storage plus appended tail.

    A measure has no ``head``: ``base`` is its ``float64`` array and
    ``tail`` the appended values. A key column's ``base`` is its
    :class:`DictEncoding`, ``head`` that encoding as every append so far
    extended it, and ``tail`` the appended rows' codes against ``head``.
    Each batch is typed when it is appended, and concatenates onto the
    tail exactly as an eager append concatenates onto the column.
    """

    __slots__ = ("base", "head", "tail")

    def __init__(self, base, head: DictEncoding | None, tail: np.ndarray):
        self.base = base
        self.head = head
        self.tail = tail

    @classmethod
    def of(cls, column: _Column) -> "_Deferred":
        """``column`` as the base of a deferred column with no tail."""
        if column._enc is None:
            return cls(column._array, None, column._array[:0])
        return cls(column._enc, column._enc, column._enc.codes[:0])

    def appended(self, other: _Column) -> "_Deferred":
        """This column with ``other``'s rows on its tail: the one append
        decision. A measure concatenates their floats. A key column
        encodes them with :meth:`DictEncoding.extend_domain` (the old
        domain stays a prefix, so old codes survive verbatim), which
        raises :class:`EncodingError` for a cell of another type."""
        if self.head is None:
            return _Deferred(self.base, None,
                             np.concatenate([self.tail, other._array]))
        head, codes = self.head.extend_domain(other.values())
        return _Deferred(self.base, head, np.concatenate([self.tail, codes]))

    def materialize(self, live: np.ndarray | None) -> _Column:
        """The eager column: the physical rows at ``live`` (None: all)."""
        head = self.head
        data = self.base if head is None else self.base.codes
        if len(self.tail):
            data = np.concatenate([data, self.tail])
        if live is not None:
            data = data[live]
        if head is None:
            return _Column(array=data)
        enc = DictEncoding(data, head.domain, head.domain_sorted)
        enc._positions, enc._ranks = head._positions, head._ranks
        return _Column(enc=enc)

    def cells(self, positions: np.ndarray, n_base: int) -> list:
        """A measure's values at physical ``positions``, without
        materializing (key columns are matched by code)."""
        in_tail = positions >= n_base
        data = np.empty(len(positions))
        data[~in_tail] = self.base[positions[~in_tail]]
        data[in_tail] = self.tail[positions[in_tail] - n_base]
        return data.tolist()


class _KeyIndexes:
    """Key indexes over one base's rows, shared by every relation derived
    from that base (see :meth:`_Pending.key_index`)."""

    __slots__ = ("lock", "entries")

    def __init__(self):
        self.lock = threading.Lock()
        self.entries: dict[tuple, tuple] = {}


class _Pending:
    """A relation stored as its base's columns plus deferred changes.

    Physical order is the ``n_base`` base rows, then the ``n_tail``
    appended rows in append order — the storage order the eager
    operators produce. ``dead`` holds the retracted physical positions,
    sorted; the relation's rows are the live physical rows in order.
    ``indexes`` is the base's key-index cache, and ``lock`` serializes
    materialization.
    """

    __slots__ = ("columns", "n_base", "n_tail", "dead", "indexes", "lock")

    def __init__(self, columns: dict[str, _Deferred], n_base: int,
                 n_tail: int, dead: np.ndarray, indexes: _KeyIndexes):
        self.columns = columns
        self.n_base = n_base
        self.n_tail = n_tail
        self.dead = dead
        self.indexes = indexes
        self.lock = threading.Lock()

    @classmethod
    def stored(cls, relation: "Relation") -> "_Pending":
        """A plain relation's own columns as the base of a pending
        relation with no change yet; nothing is copied."""
        return cls({name: _Deferred.of(col)
                    for name, col in relation._store.items()},
                   relation._n, 0, np.empty(0, dtype=np.int64),
                   relation._indexes)

    def live(self) -> np.ndarray | None:
        """Live physical positions, or None when no row is dead."""
        if not len(self.dead):
            return None
        keep = np.ones(self.n_base + self.n_tail, dtype=bool)
        keep[self.dead] = False
        return np.flatnonzero(keep)

    def materialize(self) -> dict[str, _Column]:
        live = self.live()
        return {name: col.materialize(live)
                for name, col in self.columns.items()}

    def physical(self, logical: np.ndarray) -> np.ndarray:
        """Physical positions of sorted logical row indices."""
        dead = self.dead
        if not len(dead):
            return logical
        # dead[k] - k live rows precede the k-th dead row.
        live_before = dead - np.arange(len(dead))
        return logical + np.searchsorted(live_before, logical, side="right")

    def logical(self, physical: np.ndarray) -> np.ndarray:
        """Logical row indices of live physical positions."""
        return physical - np.searchsorted(self.dead, physical)

    def key_index(self, names: Sequence[str]) -> KeyIndex:
        """The composite-key index of the base rows over ``names``.

        Built on first use and kept in the base's cache, so the plain
        relation and every relation derived from it share one index.
        An entry is reused only while the base encodings are the very
        objects it was built from.
        """
        encs = tuple(self.columns[n].base for n in names)
        cache = self.indexes
        with cache.lock:
            entry = cache.entries.get(tuple(names))
            if entry is None or any(a is not b
                                    for a, b in zip(entry[0], encs)):
                entry = (encs, KeyIndex([e.codes for e in encs],
                                        [e.cardinality for e in encs]))
                cache.entries[tuple(names)] = entry
        return entry[1]


def _typed_columns(schema: Schema | Iterable[Attribute | str],
                   columns: Mapping[str, Any], copy: bool
                   ) -> tuple[Schema, dict[str, _Column], int]:
    """The schema, each of its columns typed (:meth:`_Column.typed`) and
    the row count; :class:`SchemaError` for a missing column or columns
    of unequal length."""
    if not isinstance(schema, Schema):
        schema = Schema(schema)
    cols: dict[str, _Column] = {}
    n: int | None = None
    for attr in schema:
        if attr.name not in columns:
            raise SchemaError(f"missing column {attr.name!r}")
        col = _Column.typed(attr, columns[attr.name], copy)
        if n is None:
            n = len(col)
        elif len(col) != n:
            raise SchemaError(
                f"column {attr.name!r} has length {len(col)}, expected {n}")
        cols[attr.name] = col
    return schema, cols, n or 0


def _typed_cells(texts: list[str]) -> list:
    """A CSV column's cells as ints or floats when every one is the
    canonical spelling of one, else as the strings themselves."""
    for parse in (int, float):
        try:
            values = [parse(t) for t in texts]
        except ValueError:
            continue
        if all(str(v) == t for v, t in zip(values, texts)):
            return values
    return texts


def _csv_measure(name: str, texts: list[str],
                 lines: list[int]) -> np.ndarray:
    """A CSV measure column as float64, or :class:`SchemaError` naming
    the first cell that is no number and its line."""
    try:
        return np.asarray(texts, dtype=np.float64)
    except ValueError:
        text, line = next((t, n) for t, n in zip(texts, lines)
                          if not _is_number(t))
    raise SchemaError(f"measure {name!r} cell {text!r} on line {line} "
                      f"is not a number")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class Relation:
    """An in-memory relation with named columns.

    Parameters
    ----------
    schema:
        Column names/types; a :class:`Schema` or iterable of names.
    columns:
        Mapping from attribute name to a sequence of values. All columns
        must have equal length. Missing columns raise. Each column is
        typed here, once, as its schema kind says: a measure attribute
        becomes a ``float64`` array and every other attribute a
        :class:`~repro.relational.encoding.DictEncoding` of one key cell
        type. A cell the column cannot take raises, naming the column:
        :class:`~repro.relational.encoding.EncodingError` for a key cell,
        :class:`SchemaError` for a measure cell that is no number.

    Immutable: ``column()`` returns a tuple, and every operator, delta
    ingest included, returns a new relation.
    """

    __slots__ = ("schema", "_store", "_n", "_pending", "_indexes")

    def __init__(self, schema: Schema | Iterable[Attribute | str],
                 columns: Mapping[str, Sequence[Any]]):
        self.schema, self._store, self._n = _typed_columns(schema, columns,
                                                           copy=True)
        self._pending = None
        self._indexes = _KeyIndexes()

    @classmethod
    def _from_cols(cls, schema: Schema, cols: dict[str, _Column] | None,
                   n: int, pending: _Pending | None = None) -> "Relation":
        """Internal constructor: adopt ready-made columns without copying
        (or, with ``pending``, deferred storage that materializes on the
        first read)."""
        rel = cls.__new__(cls)
        rel.schema = schema
        rel._store = cols
        rel._n = n
        rel._pending = pending
        rel._indexes = _KeyIndexes()
        return rel

    @property
    def _cols(self) -> dict[str, _Column]:
        """The columns; a pending relation materializes here, once."""
        cols = self._store
        if cols is None:
            cols = self._materialize()
        return cols

    def _materialize(self) -> dict[str, _Column]:
        # Double-checked under the pending state's lock: concurrent
        # readers build the columns once. _store is set before _pending
        # is cleared, so a reader that finds _pending gone finds _store.
        pending = self._pending
        if pending is not None:
            with pending.lock:
                if self._store is None:
                    self._store = pending.materialize()
                    self._pending = None
        return self._store

    def _storage(self) -> _Pending:
        """This relation's rows as base plus deferred changes, read-only:
        the pending state itself, or a plain relation's own columns."""
        pending = self._pending
        return pending if pending is not None else _Pending.stored(self)

    # -- constructors --------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema | Iterable[Attribute | str],
                  rows: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from an iterable of row tuples."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        names = schema.names
        cols: dict[str, list] = {n: [] for n in names}
        for row in rows:
            if len(row) != len(names):
                raise SchemaError(
                    f"row of width {len(row)} does not match schema width {len(names)}")
            for name, value in zip(names, row):
                cols[name].append(value)
        return cls(schema, cols)

    @classmethod
    def from_encoded(cls, schema: Schema | Iterable[Attribute | str],
                     columns: Mapping[str, "DictEncoding | np.ndarray | Sequence[Any]"]
                     ) -> "Relation":
        """Adopt pre-encoded / pre-typed columns **without copying**.

        The out-of-core ingestion entry: a :class:`DictEncoding` column is
        installed as-is (codes + domain, no value materialization) and a
        ``float64`` measure array is adopted directly, so a coordinator
        that streamed and encoded chunks never pays for a row-object
        image of the data. Any other column is typed as the constructor
        types it. The caller transfers ownership — mutating a passed
        array afterwards corrupts the relation.
        """
        return cls._from_cols(*_typed_columns(schema, columns, copy=False))

    @classmethod
    def from_csv(cls, path: str, schema: Schema) -> "Relation":
        """Load a relation from a CSV file with a header row.

        A measure column is stored as one float64 array. Every other
        column gets one cell type, decided over the whole column: ``int``
        when every cell is a canonical int (``str(int(cell)) == cell``,
        so ``01`` is not one), else ``float`` when every cell is a
        canonical float, else ``str``. A header without one of the
        schema's columns, a row whose width differs from the header's,
        or a measure cell that is no number raises :class:`SchemaError`
        naming the (1-based) line; blank lines are skipped.
        """
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            where = {name: i for i, name in enumerate(header)}
            missing = [n for n in schema.names if n not in where]
            if missing:
                raise SchemaError(f"header has no column {missing[0]!r}")
            columns: dict[str, list] = {n: [] for n in schema.names}
            cells = [(where[n], columns[n]) for n in schema.names]
            lines: list[int] = []
            for rec in reader:
                if not rec:
                    continue
                if len(rec) != len(header):
                    raise SchemaError(
                        f"line {reader.line_num} has {len(rec)} fields, "
                        f"the header {len(header)}")
                lines.append(reader.line_num)
                for i, column in cells:
                    column.append(rec[i])
        return cls.from_encoded(schema, {
            attr.name: _csv_measure(attr.name, columns[attr.name], lines)
            if attr.is_measure()
            else _typed_cells(columns[attr.name]) for attr in schema})

    # -- container protocol ----------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __repr__(self) -> str:
        return f"Relation({list(self.schema.names)}, n={self._n})"

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema and same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        return sorted(map(repr, self.rows())) == sorted(map(repr, other.rows()))

    # -- accessors ---------------------------------------------------------------
    def _column(self, name: str) -> _Column:
        try:
            return self._cols[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def column(self, name: str) -> tuple:
        """The values of column ``name``, as a tuple (O(rows) copy)."""
        return tuple(self._column(name).values())

    def encoding(self, name: str) -> DictEncoding:
        """The dictionary encoding of key column ``name``
        (:class:`SchemaError` for a measure, which is no key column)."""
        enc = self._column(name)._enc
        if enc is None:
            raise SchemaError(f"measure {name!r} is not a key column")
        return enc

    def content_token(self, name: str) -> bytes:
        """A stable content digest of one column (no value copies)."""
        return self._column(name).hash_token()

    def measure_array(self, name: str) -> np.ndarray:
        """Measure column ``name`` as a fresh ``float64`` array
        (:class:`SchemaError` for a column that is no measure)."""
        array = self._column(name)._array
        if array is None:
            raise SchemaError(f"{name!r} is not a measure attribute")
        return array.copy()

    def rows(self) -> Iterator[Row]:
        """Iterate rows as tuples in storage order."""
        cols = [self._cols[n].values() for n in self.schema.names]
        return zip(*cols) if cols else iter(() for _ in range(self._n))

    def row(self, i: int) -> Row:
        return tuple(self._cols[n].cell(i) for n in self.schema.names)

    def key_tuples(self, names: Sequence[str]) -> list[Key]:
        """Rows projected to ``names``, as a list of tuples (with duplicates)."""
        cols = [self._cols[n].values() for n in names]
        if not cols:
            return [() for _ in range(self._n)]
        return list(zip(*cols))

    # -- keyed operators -----------------------------------------------------------
    def group_index(self, names: Sequence[str]) -> GroupIndex:
        """Composite-key grouping over the encoded columns of ``names``."""
        return GroupIndex([self.encoding(n) for n in names], self._n)

    def filter_equals(self, conditions: Mapping[str, Any]) -> "Relation":
        """Rows matching every ``attr == value`` condition.

        Keyed: every condition's value must have its column's key cell
        type (:class:`~repro.relational.encoding.EncodingError`
        otherwise), also when another condition already matches no row.
        """
        if not conditions:
            return self
        encs = [self.encoding(n) for n in conditions]
        codes = [enc.code_of(v) for enc, v in zip(encs, conditions.values())]
        if None in codes:
            return self._take(np.empty(0, dtype=np.int64))
        mask = np.ones(self._n, dtype=bool)
        for enc, code in zip(encs, codes):
            mask &= enc.codes == code
        return self._take(np.flatnonzero(mask))

    def _take(self, indices: np.ndarray) -> "Relation":
        return Relation._from_cols(
            self.schema, {name: col.take(indices)
                          for name, col in self._cols.items()},
            len(indices))

    def with_rows_appended(self, other: "Relation") -> "Relation":
        """Bag union optimized for small appends (delta ingestion).

        The schemas must be identical. Key encodings are extended in
        place of a re-encode: old codes survive verbatim under a domain
        whose old entries keep their positions, so every structure
        indexed by those codes (cube leaves, cached views) stays valid
        after the append. A key cell of another type than its column's
        raises :class:`~repro.relational.encoding.EncodingError` naming
        the column, and nothing is built.

        O(delta): the result shares this relation's column storage and
        adds ``other``'s rows, typed now (:meth:`_Deferred.appended`), to
        its appended tail. Columns materialize when a reader first needs
        them, and exactly as the eager concatenations would have built
        them.
        """
        if self.schema != other.schema:
            raise SchemaError("append requires identical schemas")
        pending = self._storage()
        columns: dict[str, _Deferred] = {}
        for name, col in pending.columns.items():
            try:
                columns[name] = col.appended(other._cols[name])
            except EncodingError as exc:
                raise EncodingError(f"column {name!r}: {exc}") from None
        return self._derived(_Pending(
            columns, pending.n_base, pending.n_tail + other._n,
            pending.dead, pending.indexes), self._n + other._n)

    def without_rows(self, indices: Sequence[int] | np.ndarray) -> "Relation":
        """Relation with the given row indices removed (delta retraction).

        Indices follow numpy's rules for an index array: negatives count
        from the end, duplicates remove once, and an out-of-range index
        raises :class:`IndexError`. O(delta) plus a copy of the sorted
        dead positions: the result shares this relation's column storage
        and tombstones the removed rows.
        """
        rows = np.asarray(indices, dtype=np.int64)
        out_of_range = (rows < -self._n) | (rows >= self._n)
        if out_of_range.any():
            raise IndexError(
                f"index {rows[out_of_range].flat[0]} is out of bounds for "
                f"axis 0 with size {self._n}")
        logical = np.unique(np.where(rows < 0, rows + self._n, rows))
        pending = self._storage()
        physical = pending.physical(logical)
        dead = np.insert(pending.dead,
                         np.searchsorted(pending.dead, physical), physical)
        return self._derived(_Pending(
            pending.columns, pending.n_base, pending.n_tail, dead,
            pending.indexes), self._n - len(logical))

    def _derived(self, pending: _Pending, n: int) -> "Relation":
        """A relation over ``pending``, compacted when its deferred rows
        (appended plus dead) outnumber the base rows: the doubling rule,
        amortized O(1) per row."""
        if pending.n_tail + len(pending.dead) > pending.n_base:
            return Relation._from_cols(self.schema, pending.materialize(), n)
        return Relation._from_cols(self.schema, None, n, pending)

    # -- grouping -------------------------------------------------------------------
    def group_measure(self, names: Sequence[str], measure: str
                      ) -> dict[Key, np.ndarray]:
        """Map each group key to the numpy array of its measure values."""
        col = self.measure_array(measure)
        gidx = self.group_index(names)
        return {key: col[idx]
                for key, idx in zip(gidx.keys(), gidx.group_indices())}
