"""Dictionary encoding: the columnar substrate under the relational layer.

Every dimension column is stored (or lazily interned) as a pair
``(codes, domain)``: an ``int32`` numpy array of per-row codes plus the
ordered list of distinct values, so ``domain[codes[i]]`` is row ``i``'s
value. The hot relational operations — group-by, provenance filters,
delta appends and retraction lookup — then reduce to integer-array
kernels (``np.unique`` / ``argsort`` / ``bincount`` / ``searchsorted``)
instead of per-row Python loops, which is what lets the roll-up cube and
the serving layer scale to 10⁵–10⁶ rows.

Three factorization paths keep semantics identical to the old row engine:

* fixed-width string arrays (dtype kind ``U``/``S``) are hashed, not
  sorted: each row's code units fold into one ``uint64``, the rows are
  grouped by hash, every row is checked against its group's
  representative (the collision guard) and only the distinct values are
  sorted. Codes and domain are bitwise those of ``np.unique``;
* other numpy-backed columns, and string columns whose hashes collide,
  go through :func:`factorize_by_sort` (``np.unique``: C speed, sorted
  domain);
* Python-list columns go through a dict factorizer that preserves the
  *original* value objects in the domain, so decoded rows are
  indistinguishable from the pre-columnar representation.

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
    """Raised when a column cannot be dictionary-encoded (e.g. unhashable
    cell values). Every keyed operator (grouping, equality filters,
    retraction lookup, domain extension) raises it, with no row-loop
    fallback; the value operators (column, rows, appends, the content
    digest) accept any cell."""


def digest_parts(*parts: bytes) -> bytes:
    """The one column-fingerprint recipe: blake2b-16 over the parts."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part)
    return digest.digest()


class DictEncoding:
    """One column as ``int32`` codes plus an ordered value domain.

    ``domain`` is a plain Python list (index = code). ``domain_sorted``
    records whether the domain is in ascending value order — when true,
    code order equals value order and sorting by codes is sorting by
    values.
    """

    __slots__ = ("codes", "domain", "domain_sorted", "lossy", "_objects",
                 "_positions", "_token", "_sort_friendly")

    def __init__(self, codes: np.ndarray, domain: list,
                 domain_sorted: bool, objects: np.ndarray | None = None,
                 lossy: bool = False):
        self.codes = codes
        self.domain = domain
        self.domain_sorted = domain_sorted
        self._sort_friendly: bool | None = None
        #: True when decoding may not reproduce the original row objects:
        #: the dict factorizer merges ==-equal values of different types
        #: (1/True, 2/2.0) under one code, keeping the first-seen value
        #: as the domain representative. Grouping/filtering semantics are
        #: unaffected (the row engine's dict keys merged the same way),
        #: but operators that must return the *original* values take the
        #: row path instead of decoding.
        self.lossy = lossy
        self._objects = objects
        self._positions: dict | None = None
        self._token: bytes | None = None

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def cardinality(self) -> int:
        return len(self.domain)

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

    def code_of(self, value) -> int | None:
        """Code of ``value``, or None if it is not in the domain.

        Matches the ``v == value`` semantics of the old per-row filter:
        NaN never matches anything (a dict lookup would match it by
        object identity), and an unhashable value matches no cell (an
        encoded domain holds only hashable values).
        """
        try:
            if value != value:  # NaN: v == value is False for every row
                return None
        except (TypeError, ValueError):
            pass  # objects with exotic __ne__ (e.g. arrays): fall through
        if self._positions is None:
            self._positions = {v: i for i, v in enumerate(self.domain)}
        try:
            return self._positions.get(value)
        except TypeError:
            return None

    def sort_friendly(self) -> bool:
        """Whether code order equals ``(type name, value)`` sort order.

        True when the domain is value-sorted, single-typed, and NaN-free,
        and not lossy — exactly the conditions under which an
        ``np.lexsort`` over codes reproduces the design builder's Python
        key sort bit for bit. (A lossy column's keys may hold an
        ``==``-equal value of another type than the domain's, which the
        Python sort orders by type name first.) Memoized
        (O(cardinality) on first call).
        """
        if self._sort_friendly is None:
            ok = self.domain_sorted and not self.lossy
            if ok and self.domain:
                first = type(self.domain[0])
                for v in self.domain:
                    if type(v) is not first or (isinstance(v, float)
                                                and v != v):
                        ok = False
                        break
            self._sort_friendly = bool(ok)
        return self._sort_friendly

    def take(self, indices: np.ndarray) -> "DictEncoding":
        """Row subset sharing this encoding's domain (no value copies)."""
        enc = DictEncoding(self.codes[indices], self.domain,
                           self.domain_sorted, self._objects, self.lossy)
        enc._positions = self._positions
        enc._sort_friendly = self._sort_friendly
        return enc

    def concat(self, other: "DictEncoding") -> "DictEncoding":
        """Concatenated rows under a merged domain."""
        if other.domain is self.domain:
            enc = DictEncoding(np.concatenate([self.codes, other.codes]),
                               self.domain, self.domain_sorted, self._objects,
                               self.lossy)
            enc._positions = self._positions
            return enc
        merged = list(self.domain)
        positions = {v: i for i, v in enumerate(merged)}
        remap = np.empty(len(other.domain), dtype=np.int32)
        lossy = self.lossy or other.lossy
        for j, v in enumerate(other.domain):
            code = positions.get(v)
            if code is None:
                code = len(merged)
                positions[v] = code
                merged.append(v)
            elif type(merged[code]) is not type(v):
                # ==-equal cross-type merge (1 vs 1.0): decoding would
                # return the left side's representative.
                lossy = True
            remap[j] = code
        codes = np.concatenate([self.codes, remap[other.codes]])
        enc = _sort_domain(codes, merged)
        enc.lossy = lossy
        return enc

    def extend_domain(self, values: Sequence
                      ) -> tuple["DictEncoding", np.ndarray]:
        """Encode ``values`` against this domain, appending unseen ones.

        Returns ``(extended, codes)``: ``extended`` re-wraps *this*
        column's code array over the extended domain — the old domain is
        a prefix of the new one, so every stored code (here, in the cube,
        in cached views) stays valid without a re-encode — and ``codes``
        encodes ``values``. New values get fresh codes past the old
        cardinality with dict semantics (``==``-equal values of another
        type merge under the existing code and flag the result lossy;
        NaN matches only by object identity, so each new NaN object is
        its own code, exactly like :func:`factorize`'s dict path). The
        domain list and position index are copied only when a value is
        new; when none is and no lossy merge happens, ``extended`` is
        this encoding itself, so its memos stay valid.
        """
        if self._positions is None:
            self._positions = {v: i for i, v in enumerate(self.domain)}
        positions, domain = self._positions, self.domain
        codes = np.empty(len(values), dtype=np.int32)
        lossy = self.lossy
        try:
            for i, v in enumerate(values):
                code = positions.get(v)
                if code is None:
                    if domain is self.domain:  # copy on the first new value
                        positions, domain = dict(positions), list(domain)
                    code = positions[v] = len(domain)
                    domain.append(v)
                elif not lossy and type(domain[code]) is not type(v):
                    lossy = True
                codes[i] = code
        except TypeError as exc:
            raise EncodingError(
                f"appended value is not hashable: {exc}") from exc
        grew = domain is not self.domain
        if not grew and lossy == self.lossy:
            return self, codes
        extended = DictEncoding(self.codes, domain,
                                self.domain_sorted and not grew,
                                lossy=lossy)
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
        re-expresses any shard's column in the shared code space.
        Built on :meth:`extend_domain`, so values merge with dict-key
        semantics: ``==``-equal values of another type collapse under the
        first-seen code (flagging the result lossy) and NaN matches only
        by object identity.
        """
        if not encodings:
            raise ValueError("merge() needs at least one encoding")
        acc = encodings[0]
        remaps = [np.arange(acc.cardinality, dtype=np.int32)]
        for other in encodings[1:]:
            acc, remap = acc.extend_domain(other.domain)
            if other.lossy and not acc.lossy:
                # Never flag an input (extend_domain may return it).
                acc = DictEncoding(acc.codes, acc.domain, acc.domain_sorted,
                                   lossy=True)
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
    try:
        order = sorted(range(len(domain)), key=domain.__getitem__)
    except TypeError:
        return DictEncoding(codes, domain, domain_sorted=False)
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
    """Dictionary-encode one column.

    Fixed-width string arrays take the hashed path, other numpy arrays of
    scalar dtype :func:`factorize_by_sort` (either way the domain is
    sorted and decoded to Python scalars); anything else goes through a
    dict factorizer that keeps the original value objects, so nothing
    observable changes for relations built from Python rows.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise EncodingError("only 1-D columns can be encoded")
        kind = values.dtype.kind
        if kind in "US":
            enc = _factorize_strings(values)
            if enc is not None:
                return enc
        if kind in _TYPED_KINDS \
                and not (kind == "f" and np.isnan(values).any()):
            # np.unique would merge NaNs (equal_nan) into one domain
            # entry; the row engine kept every NaN its own group
            # (nan != nan), so NaN-bearing floats take the dict path.
            return factorize_by_sort(values)
        values = values.tolist()
    table: dict = {}
    domain: list = []
    codes = np.empty(len(values), dtype=np.int32)
    lossy = False
    try:
        for i, v in enumerate(values):
            code = table.setdefault(v, len(table))
            codes[i] = code
            if code == len(domain):
                domain.append(v)
            elif not lossy and type(domain[code]) is not type(v):
                # An ==-equal value of another type (1/True, 2/2.0) was
                # merged under this code; decoding would return the
                # first-seen representative, not this row's object. Flag
                # it so value-preserving operators use the row path.
                lossy = True
    except TypeError as exc:
        raise EncodingError(f"column value is not hashable: {exc}") from exc
    enc = _sort_domain(codes, domain)
    enc.lossy = lossy
    return enc


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
