"""The text of trajectory.csv: each value as '%.17g' prints it, made with
numpy arithmetic a block of rows at a time (``tsvar.cli.write_trajectory_csv``
imports it on its first call).

A value prints from its decade E and N = round(|x| 10**(16 - E)), its 17
significant digits: 0.000ddd for -4 <= E < 0, ddd.ddd for 0 <= E < 17 and
d.ddde+XX otherwise, trailing zeros stripped.  Dekker's exact product of |x|
with a two-double power of ten (T. J. Dekker, Numer. Math. 18, 1971) fixes
|x| 10**(16 - E) to within ~2**-47, so N is exact unless that value lies
within 2**-30 of a half; such a value goes through '%' itself, as do ±0,
±inf, NaN, |x| outside [1e-280, 1e280] and a decade miss (log10 one off, so
that |x| 10**(16 - E) is below 10**16 or N reaches 10**17).

A value's text is three runs of bytes, each in little-endian uint64 words:
a prefix (the separator before the value, its sign, and the "0.000" of
0.000ddd), the mantissa (N's digits, with the dot) and the exponent.  Runs
are added into the block's text at their byte offsets; they never overlap,
so the sum concatenates them.
"""

from __future__ import annotations

import numpy as np

#: decades the tables cover: 10**(16 - E) and its Veltkamp split stay finite
_E_MIN, _E_MAX = -284, 284
_TINY, _HUGE = 1e-280, 1e280
_TIE = 2.0 ** -30
_ZEROS = np.uint64(0x3030303030303030)  # eight '0's
#: the prefix rows of t, y and y_delta lie 0, 2 and 4 rows apart
_COLUMN_ROWS = np.array([0, 2, 4])
#: per mantissa word: the float exponent bias 1022, less the word's first
#: row in the digits table
_DIGITS_BIAS = 1022 - 65 * np.arange(3)[:, None]


def _words(texts, width):
    """Strings of at most 8 * width bytes as little-endian uint64 words."""
    return np.array(texts, dtype=f"S{8 * width}").view("<u8").reshape(-1, width)


def _tables():
    """The lookup tables, built from integers."""
    E = np.arange(_E_MIN, _E_MAX + 1)
    hi, lo = [], []
    for p in (16 - E).tolist():  # 10**p = hi + lo, both from integers
        n = 10 ** abs(p)
        hi.append(float(n) if p >= 0 else 1 / n)
        m, d = hi[-1].as_integer_ratio()
        lo.append(float(n - m) if p >= 0 else (d - m * n) / (d * n))
    hi = np.array(hi)
    c = hi * 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
    head = c - (c - hi)
    fixed = (E >= -4) & (E < 17)
    # the layout of each decade: 0 for 0.000ddd, the digits before the dot
    # (1 to 17) for ddd.ddd, 18 for d.ddde+XX
    layout = np.where(fixed, np.maximum(E + 1, 0), 18)
    whole = np.append(np.arange(18), 1)
    zeros = np.where(layout == 0, -E, 0)  # "0." and -E - 1 zeros
    t = {
        "pow": np.stack([hi, head, hi - head, np.array(lo)], axis=1),
        "layout": 18 * layout,
        "prefix_row": 6 * zeros,
        "exp": _words([b"" if f else b"e%+03d" % e
                       for e, f in zip(E.tolist(), fixed.tolist())], 1)[:, 0],
        "exp_len": np.where(fixed, 0, np.where(abs(E) >= 100, 5, 4)),
    }
    # by (zeros, column, sign): the separator before the value, its sign,
    # and "0." with its zeros
    prefixes = [sep + sign + b"0.000"[:z + (z > 0)]
                for z in range(5) for sep in (b"\r\n", b",", b",") for sign in (b"", b"-")]
    t["prefix"] = _words(prefixes, 1)[:, 0]
    t["prefix_len"] = np.array([len(s) for s in prefixes])
    # by (layout, significant digits): the mantissa's length, and the byte
    # of its dot (24: none)
    layout, sig = np.ogrid[:19, :18]
    point = (sig > whole[layout]) & (layout > 0)
    length = np.maximum(sig, whole[layout]) + point
    t["length"] = length.ravel()
    q = np.where(point, whole[layout], 24).ravel()[:, None].astype(np.int8)
    quad = np.empty((10000, 4), dtype=np.uint8)  # 0..9999 as text
    for i, place in enumerate((1000, 100, 10, 1)):
        quad[:, i] = np.arange(10000, dtype=np.uint16) // place % 10 + ord("0")
    t["quad"] = quad.view("<u4").ravel()
    # by (layout, significant digits) too: the mantissa's digits below the
    # dot, its digits from the dot on (the digits moved up a byte), the dot
    byte, length = np.arange(24, dtype=np.int8), length.ravel()[:, None].astype(np.int8)
    below = byte < np.minimum(q, length)
    above = (byte > q) & (byte < length)
    dot = byte == q
    for name, mask, char in (("below", below, 0xFF), ("above", above, 0xFF),
                             ("dot", dot, ord("."))):
        t[name] = (mask * np.uint8(char)).view("<u8").T.copy()
    # the digits up to the last that is not 0, by mantissa word and the bit
    # length of (word XOR eight '0's): 8 per word below, and the bytes it spans
    bits = np.arange(65)
    t["digits"] = np.concatenate([np.where(bits > 0, 8 * w + (bits + 7) // 8, 0)
                                  for w in range(3)])
    return t


_TABLES = _tables()


def g17_fallback(values):
    """'%.17g' text of each of values, one ``%`` for all of them."""
    return ("%.17g\0" * len(values) % tuple(values.tolist())).split("\0")[:-1]


def _add_runs(text, words, index, up, shifted):
    """Add words to text at the word offsets index, shifted up by up bits:
    the bits shifted out go into the next word."""
    np.left_shift(words, up, out=shifted)
    np.add.at(text, index.reshape(-1), shifted.reshape(-1))
    np.subtract(64, up, out=shifted)
    words >>= shifted
    index += 1
    np.add.at(text, index.reshape(-1), words.reshape(-1))


class CsvText:
    """The text of blocks of at most `rows` rows of t, y and y_delta, made in
    buffers that every block reuses: each row preceded by '\r\n', each value
    as '%.17g' prints it, and an empty y_delta where it is NaN."""

    _POOL = 12  # 8-byte words per value, reused from step to step

    def __init__(self, rows):
        n = 3 * rows
        self._pool = np.empty(self._POOL * n, dtype=np.uint64)
        self._ok = np.empty(n, dtype=bool)
        self._mask = np.empty(n, dtype=bool)
        # the longest value with its prefix, '\r\n-1.7976931348623157e+308',
        # takes 26 bytes, and a run's words end at most 3 words past the text
        self._text = np.empty(26 * n // 8 + 4, dtype=np.uint64)

    def __call__(self, rows):
        t = _TABLES
        x = rows.ravel()
        n = len(x)
        U = self._pool[:self._POOL * n].reshape(self._POOL, n)
        F, I = U.view(np.float64), U.view(np.int64)
        ok, mask = self._ok[:n], self._mask[:n]
        k, n17 = I[0], I[1]
        # every take clips: the digits of a value left to '%' may be anything

        # N = round(|x| 10**(16 - E)); k is E's row in the tables, maybe one off
        ax, r, tmp, ah, at, p = F[2:8]
        np.abs(x, out=tmp)
        np.fmax(tmp, _TINY, out=ax)  # 1e-280 for NaN, and a finite decade
        np.fmin(ax, _HUGE, out=ax)
        np.equal(ax, tmp, out=ok)  # false on NaN and outside [_TINY, _HUGE]
        np.log10(ax, out=tmp)
        np.floor(tmp, out=tmp)
        tmp -= _E_MIN
        np.copyto(k, tmp, casting="unsafe")
        pw = F[8:12].reshape(n, 4)
        t["pow"].take(k, axis=0, out=pw, mode="clip")
        hi, head, tail, lo = pw.T
        # |x| hi = p + r exactly, from |x| = ah + at in 26-bit halves (Dekker)
        np.multiply(ax, hi, out=p)
        np.multiply(ax, 134217729.0, out=tmp)
        np.subtract(tmp, ax, out=ah)
        np.subtract(tmp, ah, out=ah)
        np.subtract(ax, ah, out=at)
        np.multiply(ah, head, out=r)
        r -= p
        for a, b in ((ah, tail), (at, head), (at, tail), (ax, lo)):
            np.multiply(a, b, out=tmp)
            r += tmp
        # |x| 10**(16 - E) = p + r: N is its floor, plus one from a half up
        np.floor(r, out=tmp)
        r -= tmp
        np.copyto(n17, p, casting="unsafe")
        np.copyto(I[5], tmp, casting="unsafe")
        n17 += I[5]
        np.greater_equal(n17, 10 ** 16, out=mask)  # not the decade below
        ok &= mask
        r -= 0.5
        np.greater_equal(r, 0.0, out=mask)
        n17 += mask
        np.less(n17, 10 ** 17, out=mask)  # not rounded into the decade above
        ok &= mask
        np.abs(r, out=r)
        np.greater_equal(r, _TIE, out=mask)
        ok &= mask

        # G: N's 17 digits in three words of 8, then '0's
        quads, h, G = I[2:8].reshape(3, n, 2), I[9:12], U[9:12]
        for w, place in enumerate((10 ** 9, 10)):  # floor_divide is the fast one
            np.floor_divide(n17, place, out=h[w])
            np.multiply(h[w], place, out=I[2])
            n17 -= I[2]
        np.multiply(n17, 10 ** 7, out=h[2])
        np.divmod(h, 10 ** 4, out=(quads[..., 0], quads[..., 1]))
        t["quad"].take(quads, out=G.view(np.uint32).reshape(3, n, 2), mode="clip")
        # the digits up to the last that is not 0: the bit length of each
        # word XOR eight '0's is its float exponent field less 1022, or
        # below 0 for a word of '0's, which the table clips to its first row
        np.bitwise_xor(G, _ZEROS, out=U[2:5])
        np.copyto(F[5:8], U[2:5], casting="unsafe")
        I[5:8] >>= 52
        I[5:8] -= _DIGITS_BIAS
        t["digits"].take(I[5:8], out=I[2:5], mode="clip")
        sig, form, length = I[2], I[8], I[7]
        np.maximum(sig, I[3], out=sig)
        np.maximum(sig, I[4], out=sig)
        t["layout"].take(k, out=form, mode="clip")
        form += sig
        t["length"].take(form, out=length, mode="clip")

        # the mantissa, in G: its digits below the dot, the dot, and the
        # digits from there on a byte up
        S, part = U[1:4], U[4:7]
        np.left_shift(G, 8, out=S)
        np.right_shift(G[:-1], 56, out=part[:2])
        S[1:] |= part[:2]
        t["below"].take(form, axis=1, out=part, mode="clip")
        G &= part
        t["above"].take(form, axis=1, out=part, mode="clip")
        S &= part
        G |= S
        t["dot"].take(form, axis=1, out=part, mode="clip")
        G |= part

        # the prefix and the exponent; '%' for the values left undecided
        which, prefix_len, exp_len, words = I[1], I[2], I[3], U[4:6]
        t["prefix_row"].take(k, out=which, mode="clip")
        np.signbit(x, out=mask)
        which += mask
        which.reshape(-1, 3)[...] += _COLUMN_ROWS
        t["exp_len"].take(k, out=exp_len, mode="clip")
        t["exp"].take(k, out=words[1], mode="clip")
        rest = np.flatnonzero(~ok)
        if len(rest):
            column = rest % 3
            which[rest] = 2 * column
            exp_len[rest] = 0
            words[1, rest] = 0
            undefined = np.isnan(x[rest]) & (column == 2)
            length[rest[undefined]] = 0
            G[:, rest[undefined]] = 0
            rest = rest[~undefined]
            text = g17_fallback(x[rest])
            G[:, rest] = _words(text, 3).T
            length[rest] = [len(s) for s in text]
        t["prefix_len"].take(which, out=prefix_len, mode="clip")
        t["prefix"].take(which, out=words[0], mode="clip")

        # the runs' offsets: the prefix at o[0], the exponent at o[1] and the
        # mantissa at o2
        run, end, o, o2 = I[6], I[8], I[0:2], I[6]
        np.add(prefix_len, length, out=run)
        run += exp_len
        np.cumsum(run, out=end)
        total = int(end[-1])
        np.subtract(end, run, out=o[0])
        np.add(o[0], prefix_len, out=o2)
        np.add(o2, length, out=o[1])
        text = self._text[:total // 8 + 4]
        text.fill(0)
        index = I[2:4]
        np.right_shift(o, 3, out=index)
        o &= 7
        o <<= 3
        _add_runs(text, words, index, o.view(np.uint64), U[7:9])
        index = I[0:3]
        np.right_shift(o2, 3, out=index[0])
        np.add(index[0], 1, out=index[1])
        np.add(index[0], 2, out=index[2])
        o2 &= 7
        o2 <<= 3
        _add_runs(text, G, index, o2.view(np.uint64), U[3:6])
        return text.view(np.uint8)[:total]
