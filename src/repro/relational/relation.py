"""A small in-memory, column-oriented relation.

This is the storage substrate for Reptile's input data: raw survey records,
auxiliary sensing datasets, and the like. It holds what the served system
reads — columns, dictionary encodings, composite-key grouping, equality
filters — and the O(delta) appends and retractions of ingest, on top of a
dictionary-encoded columnar core (:mod:`repro.relational.encoding`): each
column is interned once into an ``int32`` code array plus a value domain,
and every hot operation runs as a vectorized composite-key kernel instead
of a per-row Python loop.

A relation is immutable: ``column()`` returns a column's values as a
tuple, ``rows()`` yields tuples, and every operator returns a new
relation, so data changes only by building a new relation (delta ingest
does, in O(delta)). Columns produced by encoded operators stay in code
form until someone asks for the values. Because no column changes after
construction, its derived forms (values, encoding, content hash) are
computed once and cached.

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
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .encoding import (DictEncoding, EncodingError, GroupIndex, KeyIndex,
                       digest_parts, factorize)
from .schema import Attribute, AttributeKind, Schema, SchemaError

Row = tuple
Key = tuple


class _Column:
    """One column in exactly one canonical form: list, typed array or codes.

    * ``list`` — as handed to the constructor (value objects preserved);
    * ``array`` — a typed 1-D numpy array (fast path for bulk data);
    * ``encoding`` — codes + domain, produced by encoded operators.

    A column never changes after construction, so derived
    representations (the encoding of a list column, the list of an
    encoded column, the content hash) are cached. The list is internal:
    the public ``Relation.column`` hands out a tuple copy.
    """

    __slots__ = ("_values", "_array", "_enc", "_token")

    def __init__(self, values: list | None = None,
                 array: np.ndarray | None = None,
                 enc: DictEncoding | None = None):
        self._values = values
        self._array = array
        self._enc = enc
        self._token: bytes | None = None

    @classmethod
    def from_input(cls, values) -> "_Column":
        """Owning column from caller-supplied data (copies, so later
        edits of the caller's sequence never reach the relation)."""
        if isinstance(values, np.ndarray) and values.ndim == 1 \
                and values.dtype.kind in "biufUS":
            return cls(array=values.copy())
        return cls(values=list(values))

    def __len__(self) -> int:
        if self._values is not None:
            return len(self._values)
        if self._array is not None:
            return len(self._array)
        return len(self._enc.codes)

    # -- representations ---------------------------------------------------------
    def values(self) -> list:
        """The values as a list (cached; never handed out)."""
        if self._values is None:
            if self._array is not None:
                self._values = self._array.tolist()
            else:
                self._values = self._enc.decode()
        return self._values

    def encoding(self) -> DictEncoding:
        """Dictionary encoding (cached)."""
        if self._enc is None:
            self._enc = factorize(self._array if self._array is not None
                                  else self._values)
        return self._enc

    def float_array(self) -> np.ndarray:
        """The column as a fresh float array (measure accessor)."""
        if self._array is not None:
            return self._array.astype(float)
        if self._values is None and self._enc is not None:
            try:
                return np.asarray(self._enc.objects,
                                  dtype=float)[self._enc.codes]
            except (TypeError, ValueError):
                pass
        return np.asarray(self.values(), dtype=float)

    # -- derivation --------------------------------------------------------------
    def keeps_codes(self) -> bool:
        """Whether a row subset or an append stays in code form.

        A lossy encoding (==-equal values of mixed numeric types merged
        under one code) cannot reproduce the original row objects, so a
        column that still holds those objects works from the values
        instead.
        """
        return self._enc is not None \
            and not (self._enc.lossy and self._values is not None)

    def take(self, indices: np.ndarray, index_list: list | None = None
             ) -> "_Column":
        """Row subset; stays in code/array form whenever possible."""
        if self.keeps_codes():
            return _Column(enc=self._enc.take(indices))
        if self._array is not None:
            return _Column(array=self._array[indices])
        values = self._values
        idx = index_list if index_list is not None else indices.tolist()
        return _Column(values=[values[i] for i in idx])

    def takes_list_path(self) -> bool:
        """True when :meth:`take` will subset the Python value list
        (callers then precompute the shared index list once)."""
        return not self.keeps_codes() and self._array is None

    def append_step(self, other: "_Column") -> tuple:
        """How ``other``'s rows append to this column: the one decision.

        * ``("extend", extended, codes)`` — a clean encoding extends its
          domain (:meth:`DictEncoding.extend_domain`): the old domain
          stays a prefix, old codes survive verbatim, ``codes`` encodes
          ``other``;
        * ``("typed", array)`` — a typed array takes ``other`` as an
          array of the same dtype kind, so a small row-built delta never
          demotes the whole column to a Python list;
        * ``("concat", None)`` — every fallback that changes the
          representation: an unhashable appended value, an extension
          that would make a clean encoding lossy (decoding must keep
          returning the original objects), a dtype-kind mismatch, a list
          column. :meth:`concat` then rebuilds the column.

        Nothing is concatenated here, so a pending relation can defer
        the first two branches and :meth:`appended` applies them now.
        """
        if self.keeps_codes():
            try:
                extended, codes = self._enc.extend_domain(other.values())
            except EncodingError:
                return ("concat", None)
            if not (extended.lossy and not self._enc.lossy):
                return ("extend", extended, codes)
        if self._array is not None:
            arr = other._array if other._array is not None \
                else np.asarray(other.values())
            if arr.ndim == 1 and arr.dtype.kind == self._array.dtype.kind:
                return ("typed", arr)
        return ("concat", None)

    def appended(self, other: "_Column", step: tuple) -> "_Column":
        """This column with ``other``'s rows appended as ``step`` says."""
        if step[0] == "extend":
            _, extended, codes = step
            return _Column(enc=DictEncoding(
                np.concatenate([self._enc.codes, codes]), extended.domain,
                extended.domain_sorted, lossy=extended.lossy))
        if step[0] == "typed":
            return _Column(array=np.concatenate([self._array, step[1]]))
        return self.concat(other)

    def concat(self, other: "_Column") -> "_Column":
        if self._values is not None and other._values is not None:
            return _Column(values=self._values + other._values)
        if self._array is not None and other._array is not None \
                and self._array.dtype.kind == other._array.dtype.kind:
            # Same dtype kind only: np.concatenate would otherwise
            # silently promote (ints to strings/floats) instead of
            # preserving values like the list path does.
            return _Column(array=np.concatenate([self._array, other._array]))
        if self._enc is not None and other._enc is not None \
                and not (self._enc.lossy or other._enc.lossy):
            merged = self._enc.concat(other._enc)
            if not merged.lossy:  # cross-type merge across the domains
                return _Column(enc=merged)
        return _Column(values=self.values() + other.values())

    # -- fingerprints ------------------------------------------------------------
    def hash_token(self) -> bytes:
        """Stable content digest; reuses the interned encoding's hash.

        Deterministic per canonical representation: a typed array hashes
        its raw bytes, everything else hashes (domain, codes). Cached.
        """
        if self._token is not None:
            return self._token
        if self._array is not None:
            token = digest_parts(str(self._array.dtype).encode(),
                                 np.ascontiguousarray(self._array).tobytes())
        else:
            try:
                enc = self.encoding()
            except EncodingError:
                enc = None
            if enc is not None and not enc.lossy:
                token = enc.hash_token()
            else:
                # Unencodable or lossy ([1, True] and [1, 1] share codes
                # and domain): hash the values themselves so different
                # contents never share a fingerprint.
                token = digest_parts(repr(self.values()).encode())
        self._token = token
        return token


class _Deferred:
    """One column of a pending relation: base storage plus appended tail.

    ``kind`` is the form the eager operators leave the column in:

    * ``"enc"`` — codes over ``head``, the base domain as every append so
      far extended it (``base`` is the base :class:`DictEncoding`);
    * ``"array"`` — a typed array (``base`` is the base array);
    * ``"list"`` — Python values (``base`` is the base list; a list
      column defers retractions only, its appends take the fallback).

    ``tail`` holds the appended rows, each batch encoded at append time
    (codes against the extended domain, or the typed array), in the
    dtype the eager concatenations reach: every append concatenates onto
    the tail exactly as the eager append concatenates onto the column.
    """

    __slots__ = ("kind", "base", "head", "tail")

    def __init__(self, kind: str, base, head: DictEncoding | None = None,
                 tail: np.ndarray | None = None):
        self.kind = kind
        self.base = base
        self.head = head
        self.tail = tail

    @classmethod
    def of(cls, column: _Column, kind: str) -> "_Deferred":
        """``column`` as the base of a deferred column of ``kind``."""
        if kind == "enc":
            return cls("enc", column._enc, column._enc,
                       column._enc.codes[:0])
        if kind == "array":
            return cls("array", column._array, None, column._array[:0])
        return cls("list", column._values)

    @classmethod
    def taken(cls, column: _Column) -> "_Deferred":
        """``column`` in the form a row subset leaves it (see take())."""
        if column.keeps_codes():
            return cls.of(column, "enc")
        return cls.of(column, "array" if column._array is not None
                      else "list")

    def view(self) -> _Column:
        """A row-less stand-in with this column's representation, for
        :meth:`_Column.append_step` to decide the next append on."""
        if self.kind == "enc":
            return _Column(enc=self.head)
        if self.kind == "array":
            return _Column(array=self.tail[:0])
        return _Column(values=[])

    def appended(self, step: tuple) -> "_Deferred":
        """This column with one more batch on its tail, per ``step``."""
        if step[0] == "extend":
            _, extended, codes = step
            return _Deferred("enc", self.base, extended,
                             np.concatenate([self.tail, codes]))
        return _Deferred("array", self.base, None,
                         np.concatenate([self.tail, step[1]]))

    def materialize(self, live: np.ndarray | None) -> _Column:
        """The eager column: the physical rows at ``live`` (None: all)."""
        if self.kind == "list":
            values = self.base
            return _Column(values=list(values) if live is None
                           else [values[i] for i in live.tolist()])
        data = self.base.codes if self.kind == "enc" else self.base
        if len(self.tail):
            data = np.concatenate([data, self.tail], dtype=self.tail.dtype)
        if live is not None:
            data = data[live]
        if self.kind == "array":
            return _Column(array=data)
        head = self.head
        enc = DictEncoding(data, head.domain, head.domain_sorted,
                           lossy=head.lossy)
        enc._positions = head._positions
        return _Column(enc=enc)

    def cells(self, positions: np.ndarray, n_base: int) -> list:
        """Values at physical ``positions`` of an array or list column,
        without materializing (encoded columns are matched by code)."""
        if self.kind == "list":
            values = self.base
            return [values[i] for i in positions.tolist()]
        in_tail = positions >= n_base
        data = np.empty(len(positions), dtype=self.tail.dtype)
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
        """A plain relation's own columns as they are stored, for reading.

        Columns with a cached encoding read as codes, the rest as typed
        arrays or values; nothing is copied or changed.
        """
        columns = {
            name: _Deferred.of(col, "enc" if col._enc is not None
                               else "array" if col._array is not None
                               else "list")
            for name, col in relation._store.items()}
        return cls(columns, relation._n, 0, np.empty(0, dtype=np.int64),
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

    def encoded(self) -> list[str]:
        """Names of the columns stored as codes."""
        return [n for n, col in self.columns.items() if col.kind == "enc"]

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


class Relation:
    """An in-memory relation with named columns.

    Parameters
    ----------
    schema:
        Column names/types; a :class:`Schema` or iterable of names.
    columns:
        Mapping from attribute name to a sequence of values. All columns
        must have equal length. Missing columns raise. numpy arrays of
        scalar dtype are copied into typed arrays (the columnar fast
        path); any other sequence is copied into a list.

    Immutable: ``column()`` returns a tuple, and every operator, delta
    ingest included, returns a new relation.
    """

    __slots__ = ("schema", "_store", "_n", "_pending", "_indexes")

    def __init__(self, schema: Schema | Iterable[Attribute | str],
                 columns: Mapping[str, Sequence[Any]]):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
        cols: dict[str, _Column] = {}
        n: int | None = None
        for name in schema.names:
            if name not in columns:
                raise SchemaError(f"missing column {name!r}")
            col = _Column.from_input(columns[name])
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise SchemaError(
                    f"column {name!r} has length {len(col)}, expected {n}")
            cols[name] = col
        self._store = cols
        self._n = n if n is not None else 0
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
        typed 1-D numpy array is adopted directly, so a coordinator that
        streamed and encoded chunks never pays for a row-object image of
        the data. The caller transfers ownership — mutating a passed
        array afterwards corrupts the relation.
        """
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        cols: dict[str, _Column] = {}
        n: int | None = None
        for name in schema.names:
            if name not in columns:
                raise SchemaError(f"missing column {name!r}")
            value = columns[name]
            if isinstance(value, DictEncoding):
                col = _Column(enc=value)
            elif isinstance(value, np.ndarray) and value.ndim == 1 \
                    and value.dtype.kind in "biufUS":
                col = _Column(array=value)
            else:
                col = _Column(values=list(value))
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise SchemaError(
                    f"column {name!r} has length {len(col)}, expected {n}")
            cols[name] = col
        return cls._from_cols(schema, cols, n if n is not None else 0)

    @classmethod
    def from_csv(cls, path: str, schema: Schema,
                 converters: Mapping[str, Callable[[str], Any]] | None = None
                 ) -> "Relation":
        """Load a relation from a CSV file with a header row.

        Measures are converted to ``float`` by default, and such a
        column is stored as one float64 array; pass ``converters`` to
        override per-column parsing (the column then keeps the values
        the converter returns). A header without one of the schema's
        columns, or a row whose width differs from the header's, raises
        :class:`SchemaError`; blank lines are skipped.
        """
        converters = dict(converters or {})
        floats = [attr.name for attr in schema
                  if attr.kind is AttributeKind.MEASURE
                  and attr.name not in converters]
        converters.update(dict.fromkeys(floats, float))
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            where = {name: i for i, name in enumerate(header)}
            missing = [n for n in schema.names if n not in where]
            if missing:
                raise SchemaError(f"header has no column {missing[0]!r}")
            columns: dict[str, list] = {n: [] for n in schema.names}
            parsers = [(where[n], converters.get(n, str), columns[n])
                       for n in schema.names]
            for rec in reader:
                if not rec:
                    continue
                if len(rec) != len(header):
                    raise SchemaError(
                        f"line {reader.line_num} has {len(rec)} fields, "
                        f"the header {len(header)}")
                for i, parse, column in parsers:
                    column.append(parse(rec[i]))
        return cls.from_encoded(schema, {
            n: np.asarray(c, dtype=np.float64) if n in floats else c
            for n, c in columns.items()})

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
    def column(self, name: str) -> tuple:
        """The values of column ``name``, as a tuple (O(rows) copy)."""
        try:
            return tuple(self._cols[name].values())
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def encoding(self, name: str) -> DictEncoding:
        """The interned dictionary encoding of column ``name``.

        Raises :class:`~repro.relational.encoding.EncodingError` when the
        column holds unhashable values.
        """
        try:
            return self._cols[name].encoding()
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def content_token(self, name: str) -> bytes:
        """A stable content digest of one column (no value copies)."""
        try:
            return self._cols[name].hash_token()
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def measure_array(self, name: str) -> np.ndarray:
        """Column ``name`` as a float numpy array."""
        try:
            return self._cols[name].float_array()
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def rows(self) -> Iterator[Row]:
        """Iterate rows as tuples in storage order."""
        cols = [self._cols[n].values() for n in self.schema.names]
        return zip(*cols) if cols else iter(() for _ in range(self._n))

    def row(self, i: int) -> Row:
        return tuple(self._cols[n].values()[i] for n in self.schema.names)

    def key_tuples(self, names: Sequence[str]) -> list[Key]:
        """Rows projected to ``names``, as a list of tuples (with duplicates)."""
        cols = [self._cols[n].values() for n in names]
        if not cols:
            return [() for _ in range(self._n)]
        return list(zip(*cols))

    # -- encoded-key plumbing ------------------------------------------------------
    def _encodings(self, names: Sequence[str]) -> list[DictEncoding] | None:
        """Encodings for ``names``, or None if any column resists encoding."""
        try:
            return [self.encoding(n) for n in names]
        except EncodingError:
            return None

    def group_index(self, names: Sequence[str]) -> GroupIndex:
        """Composite-key grouping over the encoded columns of ``names``."""
        return GroupIndex([self.encoding(n) for n in names], self._n)

    # -- relational operators ------------------------------------------------------
    def filter_equals(self, conditions: Mapping[str, Any]) -> "Relation":
        """Rows matching every ``attr == value`` condition (fast path)."""
        if not conditions:
            return self
        encs = self._encodings(list(conditions))
        if encs is None:
            keep = None
            for name, value in conditions.items():
                col = self._cols[name].values()
                matches = {i for i, v in enumerate(col) if v == value}
                keep = matches if keep is None else keep & matches
            return self._take(sorted(keep or ()))
        mask: np.ndarray | None = None
        for enc, value in zip(encs, conditions.values()):
            code = enc.code_of(value)
            if code is None:
                return self._take(np.empty(0, dtype=np.int64))
            hit = enc.codes == code
            mask = hit if mask is None else mask & hit
        return self._take(np.flatnonzero(mask))

    def _take(self, indices: Sequence[int] | np.ndarray) -> "Relation":
        if not isinstance(indices, np.ndarray):
            indices = np.asarray(indices, dtype=np.int64)
        index_list: list | None = None
        cols: dict[str, _Column] = {}
        for name, col in self._cols.items():
            if index_list is None and col.takes_list_path():
                index_list = indices.tolist()
            cols[name] = col.take(indices, index_list)
        return Relation._from_cols(self.schema, cols, int(len(indices)))

    def with_rows_appended(self, other: "Relation") -> "Relation":
        """Bag union optimized for small appends (delta ingestion).

        The schemas must be identical. Interned encodings are extended
        in place of a re-encode: old codes survive verbatim
        under a domain whose old entries keep their positions, so every
        structure indexed by those codes (cube leaves, cached views)
        stays valid after the append.

        O(delta): the result shares this relation's column storage and
        adds ``other``'s rows, encoded now against the extended domains
        (:meth:`_Column.append_step`), to its appended tail.
        Columns materialize when a reader first needs them, and exactly
        as the eager concatenations would have built them. A fallback
        that changes a column's representation (a dtype-kind mismatch,
        an unhashable value, an extension that would make a clean
        encoding lossy) materializes this relation and appends eagerly.
        """
        if self.schema.names != other.schema.names:
            raise SchemaError("append requires identical schemas")
        names = self.schema.names
        deltas = other._cols
        pending = self._pending
        if pending is None:
            cols = self._store
            steps = {n: cols[n].append_step(deltas[n]) for n in names}
        else:
            steps = {n: pending.columns[n].view().append_step(deltas[n])
                     for n in names}
        n = self._n + other._n
        if any(step[0] == "concat" for step in steps.values()):
            cols = self._cols
            return Relation._from_cols(
                self.schema,
                {name: cols[name].appended(deltas[name], steps[name])
                 for name in names}, n)
        if pending is None:
            pending = _Pending(
                {name: _Deferred.of(self._store[name],
                                    "enc" if steps[name][0] == "extend"
                                    else "array") for name in names},
                self._n, 0, np.empty(0, dtype=np.int64), self._indexes)
        return self._derived(_Pending(
            {name: pending.columns[name].appended(steps[name])
             for name in names},
            pending.n_base, pending.n_tail + other._n, pending.dead,
            pending.indexes), n)

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
        pending = self._pending
        if pending is None:
            pending = _Pending(
                {name: _Deferred.taken(col)
                 for name, col in self._store.items()},
                self._n, 0, np.empty(0, dtype=np.int64), self._indexes)
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
