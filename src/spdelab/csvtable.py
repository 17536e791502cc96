"""CSV tables with np.savetxt(fmt="%.18e", delimiter=",")'s exact bytes,
formatted a block of values at a time.

"%.18e" prints the 19 significant digits N = round(|x| 10^(18-k)), where
k = floor(log10|x|), with ties to even.  For x = f 2^e (f in [0.5, 1)) the
product is f 10^(18-k) 2^e, with 10^(18-k) held as a double-double (hi + lo)
2^t that is exact to 2^-106 and built from exact integers.  Dekker's
two-product of f and hi plus f lo gives |x| 10^(18-k) with an error below
1e-12 (Dekker, Numer. Math. 18, 1971).  Python's "%.18e" prints the few
values whose digits that error could change, those within TIE_MARGIN of a
rounding tie, and those whose product falls within EDGE of 10^18 or 10^19 or
outside them: exact powers of ten, and values so close to one that log10
rounds across it.

Each value's text, with the separator after it, fills a 36-byte slot of
nine uint32 words, each word looked up in a table and padded with 0 bytes:
the sign and lead digit, six groups of three digits, "e+dd", and one word
for the exponent's third digit, if any, and the separator.  One
bytes.translate pass deletes a block's pad bytes; CSV text holds no 0 byte.

A table is written a block of rows at a time, and the kernel formats the
columns that vary, up to BLOCK_VALUES of their values a call.  A column whose
64-bit pattern is the same in every row is formatted once: its slot from the
table's first row is placed once in a buffer that every block is written
from, and a table without such columns writes the kernel's words as made.
Such columns are common in raw-path tables: when a family's Fourier blocks
decouple (coupled-torus), a start confined to a few of them leaves every
other coordinate +0.0 for the whole run.  The patterns are compared, not
the values, so +0.0 and -0.0, or nans with different payloads, are never
one column's value.
"""
import functools

import numpy as np

#: values formatted per block; each block's bytes are written as soon as made
BLOCK_VALUES = 4096

#: a fractional part of x 10^(18-k) this close to 1/2 is decided exactly
TIE_MARGIN = 1e-6

#: x 10^(18-k) this close to 10^18 or 10^19, or beyond them because log10
#: rounded across a power of ten, is decided exactly; N may carry there
EDGE = 4096.0

#: the separators that can end a value's slot, by their index in `seps`
SEPARATORS = b",\n"


def _words(texts) -> np.ndarray:
    """ASCII texts of at most 4 bytes, padded with 0 bytes, one uint32 each."""
    return np.frombuffer(b"".join(t.ljust(4, b"\0") for t in texts), np.uint32)


@functools.cache
def _tables() -> tuple:
    """Pieces of a value's text, one uint32 each, indexed by what they
    print: the sign and lead digit (d + 10 for a negative value), three
    digits, the exponent k in [-324, 308] as "e+dd", the exponent's third
    digit, if any, followed by a separator (2 c + s for code c and separator
    index s), and nan, inf, -inf; and each exponent's code, 0 for none or
    1 + its third digit, one uint8 per k.  Built on first use, so a run that
    writes no CSV never builds them."""
    exponents = [b"e%+03d" % k for k in range(-324, 309)]
    thirds = [b""] + [b"%d" % d for d in range(10)]
    return (_words(sign + b"%d." % d for sign in (b"", b"-") for d in range(10)),
            _words(b"%03d" % i for i in range(1000)),
            _words(e[:4] for e in exponents),
            _words(third + SEPARATORS[s:s + 1] for third in thirds for s in range(2)),
            _words((b"nan", b"inf", b"-inf")),
            np.array([thirds.index(e[4:]) for e in exponents], np.uint8))

_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant: splits a double into two 26-bit halves


@functools.cache
def _power(k: int) -> tuple:
    """10^(18-k) as (hi + lo) 2^t, with hi in (1/2, 2)."""
    num, den = 10 ** max(18 - k, 0), 10 ** max(k - 18, 0)
    t = num.bit_length() - den.bit_length()  # num / den / 2^t lies in (1/2, 2)
    num, den = num << max(-t, 0), den << max(t, 0)
    hi = num / den  # int / int is correctly rounded
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b), float(t)


def _split(x):
    t = _SPLIT * x
    high = t - (t - x)
    return high, x - high


def _product(f, e, k):
    """f 2^e 10^(18-k) as an unevaluated sum p + l: p exact, l within 1e-12."""
    k0 = int(k.min())
    table = np.array([_power(j) for j in range(k0, int(k.max()) + 1)]).T
    hi, lo, t = np.take(table, k - k0, axis=1)
    p = f * hi
    fh, fl = _split(f)
    hh, hl = _split(hi)
    err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl  # f hi - p, exactly
    shift = (e + t.astype(np.int64)).astype(np.int32)
    return np.ldexp(p, shift), np.ldexp(err + f * lo, shift)


def _significands(a):
    """N = round(a 10^(18-k)) and k for finite a > 0, and where N may be wrong."""
    f, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.int64)
    p, l = _product(f, e, k)
    s = p + l
    r = np.rint(l)
    unsure = ((s < 1e18 + EDGE) | (s > 1e19 - EDGE)
              | (np.abs(np.abs(l - r) - 0.5) < TIE_MARGIN))
    # N = p + r exactly: p is an integer below 2^64, split at 2^32 so no
    # float64 -> uint64 cast meets a value of 2^63 or more
    top = np.floor(p * 2.0**-32)
    low = (p - top * 2.0**32) + r
    big = (top.astype(np.uint64) << np.uint64(32)) + low.astype(np.int64).astype(np.uint64)
    return big, k, unsure


def _digit_groups(big):
    """The lead digit of each N < 10^19, and its other 18 digits in six
    groups of three, one row per group so every pass runs on contiguous
    memory."""
    lead = big // np.uint64(10**18)
    rest = (big - lead * np.uint64(10**18)).astype(np.int64)
    groups = np.empty((6, len(big)), np.int64)
    nines = groups[2::3]  # digits 1-9 and 10-18, each left to its last three
    np.floor_divide(rest, 10**9, out=nines[0])
    np.subtract(rest, nines[0] * 10**9, out=nines[1])
    np.floor_divide(nines, 10**6, out=groups[0::3])
    thousands = nines // 1000
    np.subtract(thousands, groups[0::3] * 1000, out=groups[1::3])
    nines -= thousands * 1000
    return lead.astype(np.int64), groups


def _slots(values, seps):
    """Each value's 36-byte slot, as (n, 9) uint32 words: its "%.18e" text
    followed by its separator, padded with 0 bytes; `seps` holds each
    value's separator as its index in SEPARATORS."""
    a = np.abs(values)
    finite = np.isfinite(a)
    fast = finite & (a != 0)
    a[~fast] = 1.0
    big, k, unsure = _significands(a)
    slow = fast & unsure
    fast &= ~unsure
    big[~fast] = 0  # a zero prints as N = 0 with k = 0
    k[~fast] = 0
    lead, groups = _digit_groups(big)

    # a value's 36-byte slot: sign and lead digit, 6 digit groups, exponent,
    # then its third digit with the separator
    heads, digits, exponents, tails, (nan, inf, neg_inf), codes = _tables()
    k += 324  # the exponent tables start at k = -324
    words = np.empty((len(values), 9), np.uint32)
    words[:, 0] = heads[lead + 10 * np.signbit(values)]
    words[:, 1:7] = digits[groups].T
    words[:, 7] = exponents[k]
    words[:, 8] = tails[2 * codes[k] + seps]
    special = np.flatnonzero(~finite)
    if len(special):  # Python prints nan unsigned
        words[special, :8] = 0
        words[special, 0] = np.where(np.isnan(values[special]), nan,
                                     np.where(values[special] < 0, neg_inf, inf))
    out = words.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():  # k = 0: the last word is the separator alone
        text = b"%.18e" % values[i]
        out[i, :32] = 0  # all but the separator
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return words


def _format(words) -> bytes:
    """The text of a block's slots: one bytes.translate pass deletes their
    pad bytes."""
    return words.tobytes().translate(None, b"\0")  # CSV text holds no 0 byte


def _fixed_columns(rows, step: int) -> np.ndarray:
    """The columns whose 64-bit pattern is the first row's in every row, so
    +0.0 and -0.0, or nans with different payloads, are never one value.
    The first and last rows are compared as bytes, so a table whose every
    column changes costs no array work; the columns left are checked a
    block of `step` rows at a time, so no temporary outgrows a block.  Two
    patterns are equal where their int64 difference, which wraps, is zero:
    the kernel runs numpy's int64 subtraction anyway, where an integer ==
    would page in library code of its own, which counts in resident memory."""
    first, last = rows[0].tobytes(), rows[-1].tobytes()
    cols = np.array([j for j in range(rows.shape[1])
                     if first[8 * j:8 * j + 8] == last[8 * j:8 * j + 8]], np.intp)
    bits = rows.view(np.int64)
    for lo in range(0, len(rows), step):
        if not len(cols):
            break
        cols = cols[~(bits[lo:lo + step, cols] - bits[0, cols]).any(0)]
    return cols


def write_table(path: str, header: str, rows) -> None:
    """Write a header line, then the rows of a 2-D float64 array as
    np.savetxt(path, rows, fmt="%.18e", delimiter=",") writes them."""
    rows = np.asarray(rows, dtype=np.float64)
    n_rows, n_cols = rows.shape
    step = max(1, BLOCK_VALUES // n_cols)
    row_seps = np.zeros(n_cols, np.intp)
    row_seps[-1] = SEPARATORS.index(b"\n")
    fixed = _fixed_columns(rows, step) if n_rows else ()
    varying = slice(None)  # a view: a table without fixed columns gathers none
    if len(fixed):
        # no kernel call is empty: an all-fixed table formats its first column
        varying = np.delete(np.arange(n_cols), fixed) if len(fixed) < n_cols else np.arange(1)
        buffer = np.empty((min(step, n_rows), n_cols, 9), np.uint32)
        buffer[:] = _slots(rows[0], row_seps)
    width = len(row_seps[varying])
    batch = step * max(1, BLOCK_VALUES // (step * width))  # rows per kernel call
    seps = np.tile(row_seps[varying], min(batch, n_rows))

    def blocks():
        for lo in range(0, n_rows, batch):
            part = rows[lo:lo + batch, varying]
            words = _slots(part.ravel(), seps[:part.size]).reshape(-1, width, 9)
            for at in range(0, len(words), step):
                block = words[at:at + step]
                if len(fixed):
                    buffer[:len(block), varying] = block
                    block = buffer[:len(block)]
                yield block

    with open(path, "wb") as fh:
        fh.write(header.encode("latin1") + b"\n")
        fh.writelines(map(_format, blocks()))  # no block's words outlive its text
