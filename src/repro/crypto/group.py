"""The secp256k1 elliptic-curve group, implemented from scratch.

Schnorr signatures and CoSi (Sections 2.1-2.2 of the paper) need a
prime-order group in which the discrete logarithm problem is hard.  The
reproduction environment has no external crypto packages, so this module
implements the standard secp256k1 curve (y^2 = x^3 + 7 over F_p) in pure
Python:

* :class:`Point` -- an immutable affine point (or the point at infinity),
  with the affine group law (:func:`point_add`) and the plain Jacobian
  double-and-add :func:`scalar_multiply`, kept as the untabled reference.
* one precomputed-table type (:class:`_WindowTable`) behind every fast path:
  signed fixed windows of affine multiples, 8 bits wide for the generator
  (33 x 128 points, ~0.8 MB, built once in ~35 ms) and 5 bits wide for a
  recurring key or signer set (52 x 16 points, ~150 KB, ~7 ms).
  :func:`generator_multiply` is ~32 mixed additions, about 0.14 ms in
  CPython against 1.5 ms for double-and-add.
* :func:`fused_multiply_sum`, the ``a*G + b*sum(P_i)`` of every verification
  equation, accumulated into one Jacobian point with a single final
  inversion.  By linearity ``b*sum(P_i) = sum(b*P_i)``, so a co-sign's signer
  set goes through its signers' own tables, ~52 mixed additions (~0.19 ms)
  per signer, and needs no table of its own.  :class:`_KeyTables` holds the
  tables under two rules: a single key gets one on its second sighting (64
  of them at most, least recently used out), and a signer set only once its
  reuse has paid for the build; the sets are counted apart from the keys.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.errors import ValidationError

# secp256k1 domain parameters (SEC 2, version 2.0).
FIELD_PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
CURVE_A = 0
CURVE_B = 7
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GENERATOR_X = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GENERATOR_Y = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


@dataclass(frozen=True, slots=True)
class Point:
    """An affine point on secp256k1, or the point at infinity (``x is None``)."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        """True if this is the identity element of the group."""
        return self.x is None

    def __add__(self, other: "Point") -> "Point":
        return point_add(self, other)

    def __mul__(self, scalar: int) -> "Point":
        return scalar_multiply(scalar, self)

    def __rmul__(self, scalar: int) -> "Point":
        return scalar_multiply(scalar, self)

    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return Point(self.x, (-self.y) % FIELD_PRIME)

    def encode(self) -> bytes:
        """Return the SEC1 compressed encoding (33 bytes, or ``b'\\x00'`` for infinity)."""
        if self.is_infinity:
            return b"\x00"
        prefix = b"\x03" if self.y % 2 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    def is_on_curve(self) -> bool:
        """Check the curve equation y^2 = x^3 + 7 (mod p)."""
        if self.is_infinity:
            return True
        left = (self.y * self.y) % FIELD_PRIME
        right = (self.x * self.x * self.x + CURVE_A * self.x + CURVE_B) % FIELD_PRIME
        return left == right


#: The identity element of the group.
INFINITY = Point(None, None)

#: The standard base point G of secp256k1.
GENERATOR = Point(GENERATOR_X, GENERATOR_Y)


def point_add(p: Point, q: Point) -> Point:
    """Return ``p + q`` using the affine group law."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x and (p.y + q.y) % FIELD_PRIME == 0:
        return INFINITY
    if p.x == q.x:
        # Point doubling.
        slope = (3 * p.x * p.x + CURVE_A) * pow(2 * p.y, -1, FIELD_PRIME) % FIELD_PRIME
    else:
        slope = (q.y - p.y) * pow(q.x - p.x, -1, FIELD_PRIME) % FIELD_PRIME
    x3 = (slope * slope - p.x - q.x) % FIELD_PRIME
    y3 = (slope * (p.x - x3) - p.y) % FIELD_PRIME
    return Point(x3, y3)


# -- Jacobian-coordinate arithmetic (internal) ---------------------------------
#
# Scalar multiplication dominates signing, co-signing, and verification.  The
# affine group law needs one modular inversion per addition, which is ~50x the
# cost of a multiplication in CPython; Jacobian projective coordinates defer
# the inversion to a single final conversion and make a 256-bit multiplication
# roughly an order of magnitude faster.  Only the internals use Jacobian
# triples -- the public API deals exclusively in affine :class:`Point`s.

_JAC_INFINITY = (0, 1, 0)


def _to_jacobian(point: Point):
    if point.is_infinity:
        return _JAC_INFINITY
    return (point.x, point.y, 1)


def _from_jacobian(triple) -> Point:
    x, y, z = triple
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, FIELD_PRIME)
    z_inv2 = (z_inv * z_inv) % FIELD_PRIME
    return Point((x * z_inv2) % FIELD_PRIME, (y * z_inv2 * z_inv) % FIELD_PRIME)


def _jac_double(triple):
    x, y, z = triple
    if z == 0 or y == 0:
        return _JAC_INFINITY
    y_sq = (y * y) % FIELD_PRIME
    s = (4 * x * y_sq) % FIELD_PRIME
    m = (3 * x * x) % FIELD_PRIME  # curve a == 0
    x3 = (m * m - 2 * s) % FIELD_PRIME
    y3 = (m * (s - x3) - 8 * y_sq * y_sq) % FIELD_PRIME
    z3 = (2 * y * z) % FIELD_PRIME
    return (x3, y3, z3)


def _jac_add(p, q):
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1_sq = (z1 * z1) % FIELD_PRIME
    z2_sq = (z2 * z2) % FIELD_PRIME
    u1 = (x1 * z2_sq) % FIELD_PRIME
    u2 = (x2 * z1_sq) % FIELD_PRIME
    s1 = (y1 * z2_sq * z2) % FIELD_PRIME
    s2 = (y2 * z1_sq * z1) % FIELD_PRIME
    if u1 == u2:
        if s1 != s2:
            return _JAC_INFINITY
        return _jac_double(p)
    h = (u2 - u1) % FIELD_PRIME
    r = (s2 - s1) % FIELD_PRIME
    h_sq = (h * h) % FIELD_PRIME
    h_cu = (h_sq * h) % FIELD_PRIME
    u1_h_sq = (u1 * h_sq) % FIELD_PRIME
    x3 = (r * r - h_cu - 2 * u1_h_sq) % FIELD_PRIME
    y3 = (r * (u1_h_sq - x3) - s1 * h_cu) % FIELD_PRIME
    z3 = (h * z1 * z2) % FIELD_PRIME
    return (x3, y3, z3)


def _jac_multiply(scalar: int, addend):
    """``scalar * addend`` for a Jacobian triple: plain double-and-add, no table."""
    result = _JAC_INFINITY
    while scalar:
        if scalar & 1:
            result = _jac_add(result, addend)
        addend = _jac_double(addend)
        scalar >>= 1
    return result


def scalar_multiply(scalar: int, point: Point) -> Point:
    """Return ``scalar * point`` via Jacobian double-and-add.

    The scalar is reduced modulo the curve order; a zero scalar yields the
    identity element.  This is the untabled reference every table-driven path
    is tested against.
    """
    return _from_jacobian(_jac_multiply(scalar % CURVE_ORDER, _to_jacobian(point)))


# -- Precomputed window tables (internal) ----------------------------------------

#: Window width of the generator's table: 33 windows x 128 affine points.
_GENERATOR_WINDOW_BITS = 8
#: Window width of a recurring point's table: 52 windows x 16 affine points.
_KEY_WINDOW_BITS = 5
#: Single keys (server and client public keys) tracked at once.
_MAX_KEY_TABLES = 64
#: Signer sets tracked at once, counted apart from the single keys.
_MAX_SIGNER_SETS = 64
#: What building a 5-bit table costs, in accumulations through one (about 7 ms
#: against about 0.19 ms in CPython): the saving a signer set's uses must
#: reach before it gets a table of its own.
_TABLE_BUILD_COST = 36


class _WindowTable:
    """Every signed-window multiple of one point, normalised to affine.

    Window ``i`` of width ``w`` holds ``j * 2^(w*i) * P`` for ``j = 1 ..
    2^(w-1)``.  A scalar is recoded into one digit per window in
    ``[-2^(w-1) + 1, 2^(w-1)]`` (a digit above half the window borrows from
    the next one, and a negative digit adds the negated entry), so a
    multiplication is one mixed Jacobian + affine addition per non-zero
    digit and no doubling.  ``256 // w + 1`` windows take the carry out of
    the top digit of any scalar below 2^256.
    """

    def __init__(self, point: Point, width: int) -> None:
        self._width = width
        half = 1 << (width - 1)
        multiples = []
        base = _to_jacobian(point)
        for _ in range(256 // width + 1):
            current = base
            multiples.append(current)
            for _ in range(half - 1):
                current = _jac_add(current, base)
                multiples.append(current)
            base = _jac_double(current)  # 2 * (2^(w-1) * base)
        # Montgomery's trick: one inversion for the whole table.  No entry is
        # the identity, because the group has prime order.
        prefixes = []
        product = 1
        for _, _, z in multiples:
            prefixes.append(product)
            product = (product * z) % FIELD_PRIME
        inverse = pow(product, -1, FIELD_PRIME)
        self._entries = entries = [None] * len(multiples)
        for index in range(len(multiples) - 1, -1, -1):
            x, y, z = multiples[index]
            z_inv = (inverse * prefixes[index]) % FIELD_PRIME
            inverse = (inverse * z) % FIELD_PRIME
            z_inv2 = (z_inv * z_inv) % FIELD_PRIME
            entries[index] = ((x * z_inv2) % FIELD_PRIME, (y * z_inv2 * z_inv) % FIELD_PRIME)

    def accumulate(self, scalar: int, accumulator):
        """Return Jacobian ``accumulator + scalar * P`` for ``0 <= scalar < 2^256``."""
        p = FIELD_PRIME
        entries = self._entries
        width = self._width
        half = 1 << (width - 1)
        full = half << 1
        mask = full - 1
        x1, y1, z1 = accumulator
        offset = -1  # entries[offset + j] is j times this window's base
        while scalar:
            digit = scalar & mask
            scalar >>= width
            if digit > half:
                digit -= full
                scalar += 1
            if digit:
                if digit > 0:
                    x2, y2 = entries[offset + digit]
                else:
                    x2, y2 = entries[offset - digit]
                    y2 = p - y2
                if not z1:
                    x1, y1, z1 = x2, y2, 1
                else:
                    # Mixed addition: the table entry has z = 1.
                    z1_sq = z1 * z1 % p
                    h = (x2 * z1_sq - x1) % p
                    r = (y2 * z1 * z1_sq - y1) % p
                    if h:
                        h_sq = h * h % p
                        h_cu = h_sq * h % p
                        v = x1 * h_sq % p
                        x1 = (r * r - h_cu - 2 * v) % p
                        y1 = (r * (v - x1) - y1 * h_cu) % p
                        z1 = z1 * h % p
                    elif r:
                        x1, y1, z1 = _JAC_INFINITY
                    else:
                        x1, y1, z1 = _jac_double((x1, y1, z1))
            offset += half
        return x1, y1, z1


class _KeyTables:
    """Window tables for the points that are multiplied over and over, under two rules.

    Verification multiplies the *same* points again and again: a server's or
    a client's public key, and the sum of a co-sign's signer set.

    * A single key gets its table on its second sighting; a key seen once is
      only remembered, and its multiplication is plain double-and-add.  At
      most ``_MAX_KEY_TABLES`` keys are tracked, and the least recently used
      one makes room.
    * A signer set of ``k`` keys is multiplied through its signers' own
      tables (``b * sum(P_i) = sum(b * P_i)``): ``k`` accumulations and no
      build.  A table of its own would make that one accumulation, so the
      set gets one only once its reuse has paid for the build, when ``uses x
      (k - 1)`` reaches ``_TABLE_BUILD_COST``.  This is the rent-or-buy
      rule: a set that recurs rarely never builds, and however often a set
      recurs, it costs at most twice what the best choice in hindsight
      would have.  Signer sets are counted apart from the single keys, at
      most ``_MAX_SIGNER_SETS`` of them, so a stream of new sets never
      evicts a server key.
    """

    def __init__(self) -> None:
        # (x, y) -> table, or None after one sighting; least recently used first.
        self._keys = {}
        # signer points -> [uses, table or None]; least recently used first.
        self._sets = {}

    def lookup(self, point: Point) -> Optional[_WindowTable]:
        """Note a sighting of the single key ``point``; return its table once it has one."""
        key = (point.x, point.y)
        if key in self._keys:
            table = self._keys.pop(key) or _WindowTable(point, _KEY_WINDOW_BITS)
        else:
            table = None
            if len(self._keys) >= _MAX_KEY_TABLES:
                del self._keys[next(iter(self._keys))]
        self._keys[key] = table
        return table

    def set_table(self, points: tuple) -> Optional[_WindowTable]:
        """Note a use of the signer set ``points``; return its table once it has earned one."""
        entry = self._sets.pop(points, None)
        if entry is None:
            entry = [0, None]
            if len(self._sets) >= _MAX_SIGNER_SETS:
                del self._sets[next(iter(self._sets))]
        self._sets[points] = entry
        if entry[1] is None:
            entry[0] += 1
            if entry[0] * (len(points) - 1) >= _TABLE_BUILD_COST:
                total = aggregate_points(points)
                if not total.is_infinity:
                    entry[1] = _WindowTable(total, _KEY_WINDOW_BITS)
        return entry[1]

    def accumulate(self, scalar: int, points: tuple, accumulator):
        """Return Jacobian ``accumulator + scalar * sum(points)``; no point is the identity."""
        table = self.lookup(points[0]) if len(points) == 1 else self.set_table(points)
        if table is not None:
            return table.accumulate(scalar, accumulator)
        # Through each signer's own table; the ones without a table yet are
        # summed and take one double-and-add between them.
        untabled = _JAC_INFINITY
        for point in points:
            table = self.lookup(point)
            if table is None:
                untabled = _jac_add(untabled, _to_jacobian(point))
            else:
                accumulator = table.accumulate(scalar, accumulator)
        if untabled[2]:
            accumulator = _jac_add(accumulator, _jac_multiply(scalar, untabled))
        return accumulator


_KEY_TABLES = _KeyTables()


@functools.cache
def _generator_table() -> _WindowTable:
    """The generator's table, built on first use."""
    return _WindowTable(GENERATOR, _GENERATOR_WINDOW_BITS)


def generator_multiply(scalar: int) -> Point:
    """Return ``scalar * G`` from the generator's window table."""
    return fused_multiply_sum(scalar, 0, ())


def fused_multiply_sum(a: int, b: int, points: Iterable[Point]) -> Point:
    """Return ``a*G + b*sum(points)``: one accumulation pass, one final inversion.

    This is the shape of every verification equation: ``s*G - e*P`` for a
    Schnorr signature, ``r*G + c*P`` for one witness's response, and
    ``R*G + c*sum(P_i)`` for a collective signature.  The generator goes
    through its own table, and the points through the key tables under the
    two rules of :class:`_KeyTables`.
    """
    result = _generator_table().accumulate(a % CURVE_ORDER, _JAC_INFINITY)
    b %= CURVE_ORDER
    if b:
        points = tuple(point for point in points if not point.is_infinity)
        if points:
            result = _KEY_TABLES.accumulate(b, points, result)
    return _from_jacobian(result)


def aggregate_points(points: Iterable[Point]) -> Point:
    """Sum a collection of curve points with one inversion."""
    total = _JAC_INFINITY
    for point in points:
        total = _jac_add(total, _to_jacobian(point))
    return _from_jacobian(total)


def decompress_point(data: bytes) -> Point:
    """Decode a SEC1 compressed point produced by :meth:`Point.encode`.

    Raises :class:`~repro.common.errors.ValidationError` if the encoding is
    malformed or the x coordinate is not on the curve -- the input is
    wire-carried and may come from a Byzantine peer, so the failure must stay
    inside the library's error contract.
    """
    if data == b"\x00":
        return INFINITY
    if len(data) != 33 or data[0:1] not in (b"\x02", b"\x03"):
        raise ValidationError("malformed compressed point")
    x = int.from_bytes(data[1:], "big")
    if x >= FIELD_PRIME:
        raise ValidationError("x coordinate is not a canonical field element")
    y_squared = (pow(x, 3, FIELD_PRIME) + CURVE_A * x + CURVE_B) % FIELD_PRIME
    y = pow(y_squared, (FIELD_PRIME + 1) // 4, FIELD_PRIME)
    if (y * y) % FIELD_PRIME != y_squared:
        raise ValidationError("x coordinate is not on the curve")
    if (y % 2 == 1) != (data[0:1] == b"\x03"):
        y = FIELD_PRIME - y
    return Point(x, y)
