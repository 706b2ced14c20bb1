"""Dictionary encoding: the columnar substrate under the relational layer.

Every column but the measure is stored as a pair
``(codes, domain)``: an ``int32`` numpy array of per-row codes plus the
ordered list of distinct values, so ``domain[codes[i]]`` is row ``i``'s
value. The hot relational operations — group-by, provenance filters,
delta appends and retraction lookup — then reduce to integer-array
kernels (``np.unique`` / ``argsort`` / ``bincount`` / ``searchsorted``)
instead of per-row Python loops, which is what lets the roll-up cube and
the serving layer scale to 10⁵–10⁶ rows.

A key column holds one cell type — ``bool``, ``int``, ``float`` or
``str`` (``bytes`` only from a numpy ``S`` array), never NaN; a numpy
scalar counts as its Python type, and a domain holds only Python
scalars. The keyed operators (:func:`factorize`,
:meth:`DictEncoding.extend_domain`, :meth:`DictEncoding.merge`,
:meth:`DictEncoding.code_of`) raise :class:`EncodingError` on any other
cell, so a domain is totally ordered by ``<`` and sorting a column's
keys is one lexsort over codes (or over :meth:`DictEncoding.ranks` when
ingest or a chunk merge appended to the domain out of order).

Three factorization paths give the same codes and sorted domain:

* fixed-width string arrays (dtype kind ``U``/``S``) are hashed, not sorted:
  each row's code units fold into one ``uint64``, the rows are grouped
  by hash, every row is checked against its group's representative (the
  collision guard) and only the distinct values are sorted. Codes and
  domain are bitwise those of ``np.unique``;
* other numpy-backed columns, and string columns whose hashes collide,
  go through :func:`factorize_by_sort` (``np.unique``: C speed);
* any other sequence goes through a dict factorizer that keeps the value
  objects.

Multi-attribute keys are combined with a mixed-radix encoding into a
single ``int64`` per row (falling back to row-wise ``np.unique(axis=0)``
if the radix would overflow), which makes composite group-by a single
``np.unique`` call.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .. import kernels

#: dtype kinds that the typed (np.unique) factorization path accepts.
_TYPED_KINDS = "biufUS"

#: Mixed-radix composite keys must fit comfortably in int64.
_RADIX_LIMIT = 1 << 62

#: Odd 64-bit multiplier of the string row hash (2**64 / golden ratio).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


class EncodingError(ValueError):
    """Raised when a cell cannot be a key: not a ``bool``, ``int``,
    ``float`` or ``str`` (an unhashable list, say), NaN, or of another
    type than its column's. A relation's constructors raise it, naming
    the column, for a non-measure cell, and every keyed operator
    (equality filters, retraction lookup, domain extension, so appends)
    for a cell of a query or a delta, with no row-loop fallback."""


def digest_parts(*parts: bytes) -> bytes:
    """The one column-fingerprint recipe: blake2b-16 over the parts."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part)
    return digest.digest()


#: The cell types a key column may hold, one per column (``bytes`` only
#: arrives as a numpy ``S`` array, which shares the hashed string path).
KEY_TYPES = frozenset((bool, int, float, str, bytes))


def key_type(value) -> type:
    """The key cell type of ``value`` (a numpy scalar counts as its
    Python type); :class:`EncodingError` for NaN or any other type."""
    if isinstance(value, np.generic):
        value = value.item()
    cls = type(value)
    if cls not in KEY_TYPES:
        raise EncodingError(f"a key cell must be bool, int, float, str or "
                            f"bytes, got {cls.__name__} {value!r}")
    if cls is float and value != value:
        raise EncodingError("a key cell cannot be NaN")
    return cls


def check_cell_type(cls: type | None, want: type | None) -> None:
    """Raise :class:`EncodingError` unless cells of type ``cls`` may
    enter a column of type ``want`` (None: no cell or no column yet)."""
    if cls is not want and cls is not None and want is not None:
        raise EncodingError(f"a cell of type {cls.__name__} cannot enter "
                            f"a column of {want.__name__} cells")


def _key_cells(values) -> tuple[list, type | None]:
    """``values`` as Python scalars of one key cell type, and that type
    (None when there are no values); :class:`EncodingError` otherwise."""
    values = list(values)
    types = set(map(type, values))
    if not types <= KEY_TYPES:  # numpy scalars, or a cell of no key type
        values = [v.item() if isinstance(v, np.generic) else v
                  for v in values]
        types = set(map(key_type, values))
    if len(types) > 1:
        raise EncodingError("a key column holds one cell type, got "
                            + " and ".join(sorted(t.__name__
                                                  for t in types)[:2])
                            + " cells")
    if float in types and any(v != v for v in values):
        raise EncodingError("a key cell cannot be NaN")
    return values, next(iter(types), None)


class DictEncoding:
    """One column as ``int32`` codes plus an ordered value domain.

    ``domain`` is a plain Python list (index = code) of distinct Python
    scalars of one key cell type (:data:`KEY_TYPES`), never NaN.
    ``domain_sorted`` records whether the domain is in ascending value
    order — when true, code order equals value order and sorting by
    codes is sorting by values; otherwise :meth:`ranks` maps codes to
    value order.
    """

    __slots__ = ("codes", "domain", "domain_sorted", "_objects",
                 "_positions", "_token", "_ranks")

    def __init__(self, codes: np.ndarray, domain: list,
                 domain_sorted: bool, objects: np.ndarray | None = None):
        self.codes = codes
        self.domain = domain
        self.domain_sorted = domain_sorted
        self._objects = objects
        self._positions: dict | None = None
        self._token: bytes | None = None
        self._ranks: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def cardinality(self) -> int:
        return len(self.domain)

    @property
    def cell_type(self) -> type | None:
        """The column's key cell type (None while the domain is empty)."""
        return type(self.domain[0]) if self.domain else None

    @property
    def objects(self) -> np.ndarray:
        """Domain as an object array (for C-speed ``take`` decoding)."""
        if self._objects is None:
            arr = np.empty(len(self.domain), dtype=object)
            arr[:] = self.domain
            self._objects = arr
        return self._objects

    def decode(self, codes: np.ndarray | None = None) -> list:
        """Values for ``codes`` (default: the whole column) as a list."""
        if codes is None:
            codes = self.codes
        if not len(self.domain):
            return []
        return self.objects[codes].tolist()

    def ranks(self) -> np.ndarray:
        """Each code's position in value order: one argsort of the
        domain, memoized (the identity when the domain is sorted)."""
        if self._ranks is None:
            ranks = np.arange(len(self.domain), dtype=np.int64)
            if not self.domain_sorted:
                order = np.argsort(self.objects, kind="stable")
                ranks[order] = np.arange(len(order), dtype=np.int64)
            self._ranks = ranks
        return self._ranks

    def code_of(self, value) -> int | None:
        """Code of ``value``, or None if it is not in the domain.

        Raises :class:`EncodingError` unless ``value`` is a key cell of
        this column's type (:func:`key_type`).
        """
        check_cell_type(key_type(value), self.cell_type)
        if self._positions is None:
            self._positions = {v: i for i, v in enumerate(self.domain)}
        return self._positions.get(value)

    def take(self, indices: np.ndarray) -> "DictEncoding":
        """Row subset sharing this encoding's domain (no value copies)."""
        enc = DictEncoding(self.codes[indices], self.domain,
                           self.domain_sorted, self._objects)
        enc._positions = self._positions
        enc._ranks = self._ranks
        return enc

    def extend_domain(self, values: Sequence
                      ) -> tuple["DictEncoding", np.ndarray]:
        """Encode ``values`` against this domain, appending unseen ones.

        Returns ``(extended, codes)``: ``extended`` re-wraps *this*
        column's code array over the extended domain — the old domain is
        a prefix of the new one, so every stored code (here, in the cube,
        in cached views) stays valid without a re-encode — and ``codes``
        encodes ``values``. Every value must be a key cell of this
        column's type (:class:`EncodingError` otherwise). The domain list
        and position index are copied only when a value is new; when none
        is, ``extended`` is this encoding itself, so its memos stay valid.
        """
        values, cls = _key_cells(values)
        check_cell_type(cls, self.cell_type)
        if self._positions is None:
            self._positions = {v: i for i, v in enumerate(self.domain)}
        positions, domain = self._positions, self.domain
        codes = np.empty(len(values), dtype=np.int32)
        for i, v in enumerate(values):
            code = positions.get(v)
            if code is None:
                if domain is self.domain:  # copy on the first new value
                    positions, domain = dict(positions), list(domain)
                code = positions[v] = len(domain)
                domain.append(v)
            codes[i] = code
        if domain is self.domain:
            return self, codes
        extended = DictEncoding(self.codes, domain, False)
        extended._positions = positions
        return extended, codes

    @classmethod
    def merge(cls, encodings: Sequence["DictEncoding"]
              ) -> tuple["DictEncoding", list[np.ndarray]]:
        """Union the domains of ``encodings``; return per-input remaps.

        The shard-merge primitive: ``merged`` carries the *first* input's
        code array over the union domain (the first domain is a prefix of
        the union, so shard 0's codes survive verbatim), and ``remaps[i]``
        maps input ``i``'s codes into the union — ``remaps[i][enc.codes]``
        re-expresses any shard's column in the shared code space. Built
        on :meth:`extend_domain`, so inputs of two cell types raise
        :class:`EncodingError`.
        """
        if not encodings:
            raise ValueError("merge() needs at least one encoding")
        acc = encodings[0]
        remaps = [np.arange(acc.cardinality, dtype=np.int32)]
        for other in encodings[1:]:
            acc, remap = acc.extend_domain(other.domain)
            remaps.append(remap)
        return acc, remaps

    def hash_token(self) -> bytes:
        """A stable digest of this column's contents (codes + domain).

        Memoized: serving fingerprints reuse it instead of re-hashing
        (or even materializing) the value column.
        """
        if self._token is None:
            self._token = digest_parts(
                repr(self.domain).encode(),
                np.ascontiguousarray(self.codes).tobytes())
        return self._token


def _sort_domain(codes: np.ndarray, domain: list) -> DictEncoding:
    """Remap an insertion-ordered factorization to a sorted domain."""
    order = sorted(range(len(domain)), key=domain.__getitem__)
    if order != list(range(len(domain))):
        perm = np.empty(len(domain), dtype=np.int32)
        perm[np.asarray(order, dtype=np.int32)] = \
            np.arange(len(domain), dtype=np.int32)
        codes = perm[codes]
        domain = [domain[i] for i in order]
    return DictEncoding(codes, domain, domain_sorted=True)


def _row_hashes(values: np.ndarray) -> np.ndarray:
    """A ``uint64`` hash of each row of a contiguous fixed-width array.

    Each row's raw bytes are read as unsigned words (8 bytes wide, then
    4/2/1-byte tails) and folded mod ``2**64``: before each word is added,
    the running hash is xor-shifted (so high-bit differences reach the low
    bits) and multiplied (so they spread back up). Equal strings have
    equal bytes, so they always hash equally; distinct strings may
    collide, which the caller's guard catches.
    """
    size = values.dtype.itemsize
    raw = values.view(np.uint8).reshape(len(values), size)
    hashes = shifted = None
    start = 0
    for width in (8, 4, 2, 1):
        while size - start >= width:
            word = raw[:, start:start + width].view(f"u{width}")[:, 0]
            if hashes is None:
                hashes = word.astype(np.uint64)
                shifted = np.empty_like(hashes)
            else:
                np.right_shift(hashes, np.uint64(32), out=shifted)
                hashes ^= shifted
                hashes *= _HASH_MULTIPLIER
                hashes += word
            start += width
    return hashes


def _factorize_strings(values: np.ndarray) -> DictEncoding | None:
    """Encode a fixed-width string column without sorting its rows.

    Groups rows by :func:`_row_hashes`, checks that every row equals its
    group's representative, then sorts only the distinct values. Returns
    None when two distinct strings share a hash (the caller falls back to
    :func:`factorize_by_sort`); otherwise the result is bitwise that of
    :func:`factorize_by_sort`.
    """
    values = np.ascontiguousarray(values)
    hashes, inverse = np.unique(_row_hashes(values), return_inverse=True)
    inverse = inverse.reshape(-1)
    first = np.empty(len(hashes), dtype=np.intp)
    first[inverse] = np.arange(len(values))
    representatives = values[first]
    # The collision guard. Equal strings hash equally, so once every group
    # is uniform the groups are exactly the distinct values.
    if not np.array_equal(representatives[inverse], values):
        return None
    order = np.argsort(representatives)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return DictEncoding(rank[inverse], representatives[order].tolist(),
                        domain_sorted=True)


def factorize_by_sort(values: np.ndarray) -> DictEncoding:
    """Encode a typed 1-D array with ``np.unique`` (sorts every row).

    The path for numeric columns, the fallback for string columns whose
    hashes collide, and the oracle the hashed string path must equal.
    """
    domain_arr, inverse = np.unique(values, return_inverse=True)
    codes = inverse.astype(np.int32, copy=False).reshape(-1)
    return DictEncoding(codes, domain_arr.tolist(), domain_sorted=True)


def factorize(values) -> DictEncoding:
    """Dictionary-encode one key column.

    Fixed-width string arrays take the hashed path, other numpy arrays of
    scalar dtype :func:`factorize_by_sort`; anything else must hold key
    cells of one type (:func:`key_type`; :class:`EncodingError`
    otherwise) and goes through a dict factorizer that keeps the value
    objects. Either way the domain is sorted and holds Python scalars.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise EncodingError("only 1-D columns can be encoded")
        kind = values.dtype.kind
        if kind in "US":
            enc = _factorize_strings(values)
            if enc is not None:
                return enc
        if kind in _TYPED_KINDS:
            if kind == "f" and np.isnan(values).any():
                raise EncodingError("a key cell cannot be NaN")
            return factorize_by_sort(values)
    values, _ = _key_cells(values)
    table: dict = {}
    codes = np.fromiter((table.setdefault(v, len(table)) for v in values),
                        dtype=np.int32, count=len(values))
    return _sort_domain(codes, list(table))


def combine_radix(code_columns: Sequence[np.ndarray],
                  sizes: Sequence[int]) -> np.ndarray:
    """Mixed-radix combine of code columns into one ``int64`` key per row.

    The caller is responsible for checking the radix fits (see
    :data:`_RADIX_LIMIT`).
    """
    combined = code_columns[0].astype(np.int64, copy=True)
    for col, size in zip(code_columns[1:], sizes[1:]):
        combined *= max(int(size), 1)
        combined += col
    return combined


def combine_codes(code_columns: Sequence[np.ndarray],
                  sizes: Sequence[int], n_rows: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Composite group ids over several code columns.

    Returns ``(gids, key_codes)``: a per-row ``int64`` group id in
    ``[0, n_groups)`` and the ``(n_groups, k)`` matrix of distinct key
    codes, ordered lexicographically by column (which, with sorted
    domains, is lexicographic value order).
    """
    k = len(code_columns)
    if k == 0:
        gids = np.zeros(n_rows, dtype=np.int64)
        return (gids[:0] if n_rows == 0 else gids,
                np.empty((1 if n_rows else 0, 0), dtype=np.int32))
    radix = 1
    for size in sizes:
        radix *= max(int(size), 1)
    if radix >= _RADIX_LIMIT:
        stacked = np.column_stack(
            [np.asarray(c, dtype=np.int32) for c in code_columns])
        key_codes, inverse = np.unique(stacked, axis=0, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64, copy=False), key_codes
    combined = combine_radix(code_columns, sizes)
    gids, uniq = kernels.group_codes(combined, radix)
    key_codes = np.empty((len(uniq), k), dtype=np.int32)
    rem = uniq
    for j in range(k - 1, 0, -1):
        size = max(int(sizes[j]), 1)
        key_codes[:, j] = rem % size
        rem = rem // size
    key_codes[:, 0] = rem
    return gids.reshape(-1).astype(np.int64, copy=False), key_codes


def comparable_keys(left_cols: Sequence[np.ndarray],
                    right_cols: Sequence[np.ndarray],
                    sizes: Sequence[int]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One comparable ``int64`` key per row for two aligned code blocks.

    Both blocks are code columns over the *same* domains (``sizes``).
    Uses the mixed-radix combine when it fits; otherwise densely
    re-encodes the occupied key combinations with one row-wise unique
    over both sides, so equal code tuples always map to equal ids.
    """
    radix = 1
    for s in sizes:
        radix *= max(int(s), 1)
    if radix < _RADIX_LIMIT:
        return (combine_radix(left_cols, sizes) if left_cols
                else np.zeros(0, dtype=np.int64),
                combine_radix(right_cols, sizes) if right_cols
                else np.zeros(0, dtype=np.int64))
    stacked = np.vstack([
        np.column_stack([np.asarray(c, dtype=np.int64) for c in left_cols]),
        np.column_stack([np.asarray(c, dtype=np.int64) for c in right_cols])])
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    n_left = len(left_cols[0]) if left_cols else 0
    return inverse[:n_left], inverse[n_left:]


class KeyIndex:
    """Rows sorted by their composite key over several code columns.

    The retraction index: built once over a base relation's encoded
    columns, it answers "which rows hold this code tuple" with two
    binary searches instead of a scan. A stable argsort keeps rows with
    equal keys in row order, so every answer is ascending. Keys are the
    mixed-radix combine when it fits in ``int64``; otherwise the occupied
    code combinations are densified once with a row-wise ``np.unique``
    and a dict maps each combination to its dense id.
    """

    __slots__ = ("sizes", "order", "keys", "_dense")

    def __init__(self, code_columns: Sequence[np.ndarray],
                 sizes: Sequence[int]):
        self.sizes = [max(int(s), 1) for s in sizes]
        radix = 1
        for size in self.sizes:
            radix *= size
        self._dense: dict | None = None
        if radix < _RADIX_LIMIT:
            keys = combine_radix(code_columns, self.sizes)
        else:
            combos, inverse = np.unique(
                np.column_stack([np.asarray(c, dtype=np.int64)
                                 for c in code_columns]),
                axis=0, return_inverse=True)
            keys = inverse.reshape(-1).astype(np.int64, copy=False)
            self._dense = {combo: i for i, combo
                           in enumerate(map(tuple, combos.tolist()))}
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def rows(self, code_columns: Sequence[np.ndarray]) -> list[np.ndarray]:
        """For each query row, the indexed rows holding its code tuple.

        Query codes are in the same domains, possibly extended since the
        build: a code past an indexed column's size matches no row.
        """
        inside = np.ones(len(code_columns[0]), dtype=bool)
        for codes, size in zip(code_columns, self.sizes):
            inside &= codes < size
        if self._dense is None:
            keys = combine_radix(code_columns, self.sizes)
        else:
            keys = np.asarray(
                [self._dense.get(combo, -1) for combo
                 in zip(*(c.tolist() for c in code_columns))],
                dtype=np.int64)
        keys[~inside] = -1
        starts = np.searchsorted(self.keys, keys, side="left")
        stops = np.searchsorted(self.keys, keys, side="right")
        return [self.order[a:b] for a, b in zip(starts.tolist(),
                                                stops.tolist())]


class GroupIndex:
    """Composite-key grouping of ``n`` rows over several encoded columns."""

    __slots__ = ("gids", "key_codes", "encodings")

    def __init__(self, encodings: Sequence[DictEncoding], n_rows: int):
        self.encodings = tuple(encodings)
        self.gids, self.key_codes = combine_codes(
            [e.codes for e in self.encodings],
            [e.cardinality for e in self.encodings], n_rows)

    @property
    def n_groups(self) -> int:
        return len(self.key_codes)

    def keys(self) -> list[tuple]:
        """Distinct group keys as value tuples, in group-id order."""
        return decode_keys(self.key_codes, self.encodings)

    def group_indices(self) -> list[np.ndarray]:
        """Per-group row-index arrays (ascending), in group-id order."""
        order = np.argsort(self.gids, kind="stable")
        counts = np.bincount(self.gids, minlength=self.n_groups)
        return np.split(order, np.cumsum(counts)[:-1])


def decode_keys(key_codes: np.ndarray,
                encodings: Sequence[DictEncoding]) -> list[tuple]:
    """Turn a ``(u, k)`` code matrix back into value tuples."""
    if key_codes.shape[1] == 0:
        return [()] * len(key_codes)
    columns = [enc.objects[key_codes[:, j]]
               for j, enc in enumerate(encodings)]
    return list(zip(*columns))


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for every (start, count) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return np.repeat(starts.astype(np.int64, copy=False), counts) + within
