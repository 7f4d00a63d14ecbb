"""Statistical test modules over binary sequences.

Each function takes a 0/1 uint8 array and returns a list of p-values
(most yield one; the cumulative-sums and serial tests yield two, the
non-overlapping template test yields one per template).  Functions
enforce only hard feasibility preconditions; the spintrng.nist driver
applies the recommended minimum lengths and skips modules that do not apply.

The implementations follow the standard public formulations of these
tests; the worked-example values in the test suite pin the exact
conventions (one-sided vs two-sided statistics, inclusive thresholds,
wraparound pattern counting, and so on).

Three helpers hold what the modules share: _blocks is the one split
into whole m-bit blocks, chi2_tail the one chi-square upper tail, and
chi2_fit the one Pearson fit of class counts (the driver's composite
p-value is one too).  The rank test's 2-dof tail is chi2_tail's
gammaincc like every other, not exp(-x), which differs by rounding.

The block-structured modules run as whole-array kernels rather than
per-block or per-bit Python loops; each gives the same integers as the
textbook loop, so the p-values are unchanged:

* Window codes are read from the packed bits: word k is bytes k..k+7
  read big endian, and the window at bit 8k + s is word k shifted and
  masked, one shift and one mask for each residue s mod 8.  The
  serial and approximate-entropy tests count codes once at their
  largest m on the wraparound-extended sequence: dropping a code's last
  bit gives the (m-1)-window starting at the same position, so each
  smaller m's counts are the sums of adjacent pairs of the larger m's.
* Every non-overlapping template is borderless (no proper prefix equals
  a suffix), so two hits of one template can never overlap and the
  greedy "jump m after a hit" count is the plain hit count.  One
  bincount of each block's window codes gives every template's count.
* Berlekamp-Massey runs over all blocks in lockstep, bit-sliced: the
  blocks are packed 64 to a uint64 word, one word row per polynomial
  coefficient, so one XOR steps 64 blocks.  GF(2) rank eliminates all
  32x32 matrices in lockstep, one column per step, on rows that are
  the packed bits viewed as big-endian uint32.
* The spectral test counts moduli by radix-R decimation in frequency
  (Gentleman and Sande, 1966), with R the largest power of two that
  divides n, at most 32.  The bins k = r mod R form class r, the
  (n/R)-point DFT of a folded and twiddled sequence; one class is
  built and transformed at a time, so n/32 complex values are held
  rather than a whole-group transform, and real input makes class
  R - r the mirror of class r.  A class is folded from byte tables:
  each column's bits in a run of 8 rows form a byte, and a 256-entry
  table per class and run holds that byte's weighted sum.  The moduli
  differ from fft's only by rounding, far below SPECTRAL_GUARD; a
  group with a modulus within SPECTRAL_GUARD of the threshold is
  recounted from fft, so the count below the threshold is always fft's.
* The cumulative-sums test walks the packed bytes: per-byte tables of
  the step total and the highest and lowest partial sum within the
  byte give the extremes from a cumsum of n/8 byte totals, and the
  last n mod 8 bits are walked one at a time.  The reverse sequence's
  partial sums are s_n - s_i for i = 0..n-1 (s_0 = 0), so its largest
  excursion is the larger of s_n - min(s_0..s_n) and max(s_0..s_n) -
  s_n: the same integer the reversed cumsum gives.
* The longest-run test lays its blocks end to end with a zero after
  each one, so no run crosses a block.  The positions where a bit
  differs from the one before alternate between run starts and
  one-past-ends, their differences are the run lengths, and a
  reduceat over each block's runs gives the same maximum as the
  per-block loop (0 for a block without ones).

The window codes of the serial, approximate-entropy and both template
tests, the partial sums, the runs test's transitions and the longest
runs are all taken one slice of _SLICE bits (or of the blocks in it)
at a time, so those temporaries do not grow with the group.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import erfc, gammaincc, ndtr


def bit_array(bits) -> np.ndarray:
    """bits as a flat uint8 array.  Input of another dtype must hold only
    0 and 1 in that dtype, so that no other value is cast to a bit."""
    arr = np.asarray(bits)
    if arr.dtype != np.uint8:
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bit values must be 0 or 1")
        arr = arr.astype(np.uint8)
    return arr.ravel()


def _as_bits(bits) -> np.ndarray:
    arr = bit_array(bits)
    if arr.size == 0:
        raise ValueError("empty bit sequence")
    if arr.max() > 1:
        raise ValueError("bit values must be 0 or 1")
    return arr


def _blocks(arr: np.ndarray, m: int) -> np.ndarray:
    """The whole m-bit blocks of arr as a (blocks, m) view."""
    n_blocks = arr.size // m
    if n_blocks < 1:
        raise ValueError(f"need at least {m} bits, got {arr.size}")
    return arr[: n_blocks * m].reshape(n_blocks, m)


def chi2_tail(chi2, dof):
    """Chi-square upper tail at dof degrees of freedom, elementwise."""
    return gammaincc(dof / 2.0, chi2 / 2.0)


def chi2_fit(counts, expected) -> float:
    """Tail of Pearson's chi-square of class counts against expected
    counts (an array, or one for every class), at classes - 1 dof."""
    counts = np.asarray(counts)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return float(chi2_tail(chi2, counts.size - 1))


# Bits per slice where a module scans its group in slices: their
# temporaries take up to 8 bytes per bit.
_SLICE = 1 << 16


# The longest window _window_codes reads: a window starting at bit s of
# a byte spans s + m <= 64 bits of the 8 bytes from that one.
_MAX_WINDOW = 57


def _window_codes(arr: np.ndarray, m: int) -> np.ndarray:
    """Integer code of every length-m window along the last axis
    (MSB = earliest bit), in the smallest unsigned dtype that holds it.

    The bits are packed to bytes and word k is bytes k..k+7 read big
    endian, so the window starting at bit 8k + s is word k shifted right
    by 64 - s - m and masked to m bits: one shift and one mask for each
    residue s mod 8.
    """
    if not 1 <= m <= _MAX_WINDOW:
        raise ValueError(f"window length must be 1..{_MAX_WINDOW}, got {m}")
    lead = arr.shape[:-1]
    n_win = arr.shape[-1] - m + 1
    n_words = -(-n_win // 8)
    packed = np.zeros(lead + (8 * -(-n_words // 8) + 8,), dtype=np.uint8)
    packed[..., : -(-arr.shape[-1] // 8)] = np.packbits(arr, axis=-1)
    # words k = o mod 8 are one big-endian view of the bytes from o on
    words = np.empty(lead + (n_words,), dtype=np.uint64)
    for o in range(8):
        count = len(range(o, n_words, 8))
        words[..., o::8] = packed[..., o : o + 8 * count].view(">u8")
    codes = np.empty(lead + (n_win,), dtype=np.min_scalar_type((1 << m) - 1))
    shifted = np.empty_like(words)
    for s in range(8):
        out = codes[..., s::8]
        part = shifted[..., : out.shape[-1]]
        np.right_shift(words[..., : out.shape[-1]], np.uint64(64 - s - m), out=part)
        np.bitwise_and(part, np.uint64((1 << m) - 1), out=out, casting="unsafe")
    return codes


def _window_counts(arr: np.ndarray, m: int) -> np.ndarray:
    """Counts of the length-m window codes of a 1-D arr, one slice of
    _SLICE windows at a time."""
    counts = np.zeros(2**m, dtype=np.int64)
    for a in range(0, arr.size - m + 1, _SLICE):
        counts += np.bincount(_window_codes(arr[a : a + _SLICE + m - 1], m), minlength=2**m)
    return counts


def _wrapped_counts(arr: np.ndarray, m: int) -> np.ndarray:
    """Counts of the n length-m windows of arr read cyclically: the
    windows inside arr, and the m - 1 that wrap from its end to its start."""
    wrap = np.concatenate([arr[arr.size - m + 1 :], arr[: m - 1]])
    return _window_counts(arr, m) + _window_counts(wrap, m)


def _drop_last_bit(counts: np.ndarray) -> np.ndarray:
    """Counts at m-1 from counts at m: codes c and c|1 share prefix c>>1."""
    return counts.reshape(-1, 2).sum(axis=1)


def frequency(bits) -> list[float]:
    """Monobit balance of the whole sequence."""
    arr = _as_bits(bits)
    n = arr.size
    s = abs(2 * int(arr.sum()) - n)
    return [float(erfc(s / math.sqrt(n) / math.sqrt(2.0)))]


def block_frequency(bits, m: int = 128) -> list[float]:
    """Per-block balance, chi-square over n//m blocks."""
    blocks = _blocks(_as_bits(bits), m)
    pi = blocks.mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    return [float(chi2_tail(chi2, blocks.shape[0]))]


def _cusum_p_value(z: int, n: int) -> float:
    # Summation bounds truncate toward zero, matching the published
    # reference computations of this statistic.
    sqn = math.sqrt(n)
    k_lo = int((-n / z + 1) / 4)
    k_hi = int((n / z - 1) / 4)
    k = np.arange(k_lo, k_hi + 1)
    total = 1.0 - float(np.sum(ndtr((4 * k + 1) * z / sqn) - ndtr((4 * k - 1) * z / sqn)))
    k_lo2 = int((-n / z - 3) / 4)
    k = np.arange(k_lo2, k_hi + 1)
    total += float(np.sum(ndtr((4 * k + 3) * z / sqn) - ndtr((4 * k + 1) * z / sqn)))
    return min(max(total, 0.0), 1.0)


def _byte_walks():
    """For every byte, MSB first: the sum of its 8 steps of +-1, and the
    highest and lowest of its 8 partial sums less that total, so that
    added to the sum after the byte they give the extremes within it."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    walks = np.cumsum(bits.astype(np.int64) * 2 - 1, axis=1)
    total = walks[:, -1]
    return total, walks.max(axis=1) - total, walks.min(axis=1) - total


_BYTE_STEP, _BYTE_HIGH, _BYTE_LOW = _byte_walks()


def cumulative_sums(bits) -> list[float]:
    """Maximum partial-sum excursion, forward and reverse."""
    arr = _as_bits(bits)
    n = arr.size
    # The largest, smallest and last of the partial sums s_1..s_n: the
    # whole bytes one slice at a time from the byte tables, with the sum
    # so far carried in, then the last n mod 8 bits one at a time.
    s_n = high = low = 0
    whole = n - n % 8
    for a in range(0, whole, _SLICE):
        codes = np.packbits(arr[a : min(a + _SLICE, whole)])
        after = np.cumsum(_BYTE_STEP[codes])
        after += s_n
        high = max(high, int((after + _BYTE_HIGH[codes]).max()))
        low = min(low, int((after + _BYTE_LOW[codes]).min()))
        s_n = int(after[-1])
    for bit in arr[whole:].tolist():
        s_n += 2 * bit - 1
        high = max(high, s_n)
        low = min(low, s_n)
    # The reverse partial sums are s_n - s_i for i = 0..n-1, with s_0 =
    # 0; i = n adds a zero, which changes no maximum.
    forward = max(high, -low)
    backward = max(s_n - low, high - s_n)
    return [_cusum_p_value(forward, n), _cusum_p_value(backward, n)]


def runs(bits) -> list[float]:
    """Total number of runs versus the expectation at the observed bias."""
    arr = _as_bits(bits)
    n = arr.size
    if n < 2:
        raise ValueError("need at least 2 bits")
    ones = int(np.count_nonzero(arr))
    pi = ones / n
    # Prerequisite monobit screen: a grossly biased sequence fails
    # outright.  Below 16 bits it cannot fire on a constant sequence,
    # whose pi (1 - pi) of 0 would leave no statistic.
    if ones in (0, n) or abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return [0.0]
    v = 1
    for a in range(0, n - 1, _SLICE):
        piece = arr[a : a + _SLICE + 1]
        v += int(np.count_nonzero(piece[1:] != piece[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return [float(erfc(num / den))]


# Longest-run-of-ones parameterizations: (block length, class lower
# bounds, class probabilities), auto-selected from the sequence length.
_LONGEST_RUN_TABLES = (
    (128, 8, (1, 2, 3, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, (4, 5, 6, 7, 8, 9), (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (
        750000,
        10**4,
        (10, 11, 12, 13, 14, 15, 16),
        (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727),
    ),
)


def _longest_one_runs(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in every row of a (rows, m) 0/1 array."""
    n_rows, m = blocks.shape
    # The rows laid end to end, each followed by a zero, after one
    # leading zero: every run starts and ends inside its own row, so the
    # bits that differ from the bit before them alternate between starts
    # and one-past-ends.
    flat = np.zeros(n_rows * (m + 1) + 1, dtype=np.uint8)
    flat[1:].reshape(n_rows, m + 1)[:, :m] = blocks
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts = edges[::2]
    lengths = edges[1::2] - starts
    longest = np.zeros(n_rows, dtype=np.int64)
    if lengths.size:
        row = starts // (m + 1)
        first = np.flatnonzero(np.diff(row, prepend=-1))
        longest[row[first]] = np.maximum.reduceat(lengths, first)
    return longest


def longest_run(bits) -> list[float]:
    """Distribution of the longest run of ones per block."""
    arr = _as_bits(bits)
    n = arr.size
    table = None
    for min_n, m, classes, pi in _LONGEST_RUN_TABLES:
        if n >= min_n:
            table = (m, classes, pi)
    if table is None:
        raise ValueError(f"need at least 128 bits, got {n}")
    m, classes, pi = table
    blocks = _blocks(arr, m)
    rows = max(1, _SLICE // m)
    longest = np.concatenate(
        [_longest_one_runs(blocks[a : a + rows]) for a in range(0, blocks.shape[0], rows)]
    )
    lo = classes[0]
    hi = classes[-1]
    clamped = np.clip(longest, lo, hi)
    counts = np.bincount(clamped - lo, minlength=hi - lo + 1)
    return [chi2_fit(counts, longest.size * np.asarray(pi))]


def _gf2_ranks(rows, n_cols: int) -> np.ndarray:
    """GF(2) rank of every matrix in a (matrices, rows) array of row ints
    of n_cols <= 32 bits.

    Elimination in lockstep, one column per step: in every matrix the
    first row with that bit set is the pivot, and it is added to every
    row with the bit set, itself included.  The pivot row so becomes
    zero, as if removed, and the column is cleared from all other rows.
    """
    rows = np.array(rows, dtype=np.uint32)
    idx = np.arange(rows.shape[0])
    ranks = np.zeros(rows.shape[0], dtype=np.int64)
    for col in range(n_cols - 1, -1, -1):
        has_bit = (rows & np.uint32(1 << col)) != 0
        pivot_row = rows[idx, has_bit.argmax(axis=1)]
        rows ^= np.where(has_bit, pivot_row[:, None], np.uint32(0))
        ranks += has_bit.any(axis=1)
    return ranks


def _rank_probability(r: int, m: int, q: int) -> float:
    log2 = (r * (m + q - r) - m * q) * math.log(2.0)
    acc = math.exp(log2)
    for i in range(r):
        acc *= (1.0 - 2.0 ** (i - m)) * (1.0 - 2.0 ** (i - q))
        acc /= 1.0 - 2.0 ** (i - r)
    return acc


def rank(bits) -> list[float]:
    """Ranks of disjoint 32x32 binary matrices over GF(2)."""
    m = q = 32
    # row i of each matrix is bits 32i..32i+31 of its block, first bit
    # the MSB: one big-endian uint32 of the packed block
    rows = np.packbits(_blocks(_as_bits(bits), m * q), axis=1).view(">u4")
    ranks = _gf2_ranks(rows, q)
    # Classes: full rank, one short of it, and the rest.
    counts = np.bincount(np.minimum(m - ranks, 2), minlength=3)
    p_full = _rank_probability(m, m, q)
    p_minus1 = _rank_probability(m - 1, m, q)
    probs = np.array([p_full, p_minus1, 1.0 - p_full - p_minus1])
    return [chi2_fit(counts, ranks.size * probs)]


# Half-width of the band around the spectral threshold in which a
# computed modulus sends its group to fft.  The decimation-in-frequency
# moduli differ from fft's by at most a few 1e-12 at 10^6 bits, against
# a threshold near 1,700.
SPECTRAL_GUARD = 1e-6

# Largest radix of the decimation in frequency, and columns of the
# (radix, n / radix) group read per step while one class is built.
_SPECTRAL_RADIX = 32
_SPECTRAL_CHUNK = 1 << 12


def _spectral_moduli(arr: np.ndarray):
    """Yield (bins, moduli) pairs that give |DFT| of the +-1 sequence at
    each bin 0..n/2-1 once; bins is a slice stepped by the radix.

    Radix-R decimation in frequency: R is the largest power of two that
    divides n, at most _SPECTRAL_RADIX, and S = n / R.  With W =
    exp(-2 pi i / n), the bins Rm + r of class r are the S-point DFT of
    z_r[j] = W^(jr) sum_q x[j + qS] W^(qSr), built and transformed one
    class at a time, so at most S complex values are held.  Real input
    gives |X[n - k]| = |X[k]|, so class R - r is class r reversed and
    only classes 0..R/2 are transformed.  Class 0 is real and takes an
    rfft; R = 1 is one rfft of the whole group.

    The sum over q is read from byte tables: the bits x[j + qS] of each
    run of w = min(R, 8) rows q = wg..wg + w - 1 form the code of
    column j in row group g, built once per group, and class r's table
    for g holds sum_t (2 b_t - 1) W^((wg + t)Sr) for every code b.
    """
    n = arr.size
    half = n // 2
    radix = min(n & -n, _SPECTRAL_RADIX)
    span = n // radix
    width = min(radix, 8)
    # codes[g, j] = bits x[j + qS] for q = width g.. (the first the MSB)
    rows = arr.reshape(radix // width, width, span)
    codes = np.zeros((radix // width, span), dtype=np.uint8)
    for t in range(width):
        codes <<= 1
        codes |= rows[:, t]
    # signs[b, t] = 2 b_t - 1 for bit t of code b, MSB first
    signs = (np.arange(2**width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    signs = signs * 2.0 - 1.0
    for r in range(radix // 2 + 1):
        # tables[g, b] = sum_t (2 b_t - 1) W^((width g + t)Sr), and W^(jr)
        # for the first chunk's j
        turns = (np.arange(radix) * r % radix).reshape(-1, width)
        tables = np.exp(turns * (-2j * np.pi / radix)) @ signs.T
        if r == 0:
            tables = tables.real
        twiddle = np.exp(np.arange(_SPECTRAL_CHUNK) * (-2j * np.pi * r / n))
        z = np.empty(span, dtype=tables.dtype)
        for a in range(0, span, _SPECTRAL_CHUNK):
            b = min(a + _SPECTRAL_CHUNK, span)
            # a code never exceeds its table, so take skips the bounds check
            part = tables[0].take(codes[0, a:b], mode="clip")
            for table, code in zip(tables[1:], codes[1:, a:b]):
                part += table.take(code, mode="clip")
            if r:
                part *= twiddle[: b - a] * np.exp(-2j * np.pi * r * a / n)
            z[a:b] = part
        if r == 0:
            mods = np.abs(np.fft.rfft(z))
        else:
            mods = np.abs(np.fft.fft(z, out=z))
        yield slice(r, half, radix), mods[: len(range(r, half, radix))]
        if r < radix - r < radix:
            mirror = range(radix - r, half, radix)
            yield slice(radix - r, half, radix), mods[::-1][: len(mirror)]


def spectral(bits) -> list[float]:
    """Discrete Fourier peak count against the 95 percent threshold."""
    arr = _as_bits(bits)
    n = arr.size
    if n < 2:
        raise ValueError("need at least 2 bits")
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n1 = n1_wide = 0
    for _, mods in _spectral_moduli(arr):
        n1 += int(np.count_nonzero(mods < threshold - SPECTRAL_GUARD))
        n1_wide += int(np.count_nonzero(mods < threshold + SPECTRAL_GUARD))
    if n1 != n1_wide:
        mods = np.abs(np.fft.fft(arr * 2.0 - 1.0)[: n // 2])
        n1 = int(np.count_nonzero(mods < threshold))
    n0 = 0.95 * n / 2.0
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return [float(erfc(abs(d) / math.sqrt(2.0)))]


@lru_cache(maxsize=None)
def template_codes(m: int) -> np.ndarray:
    """Codes of the borderless length-m templates, ascending, MSB first.

    A template is borderless when no proper prefix equals the suffix of
    the same length, so it cannot overlap a shifted copy of itself;
    148 of the 512 codes at m = 9 are.
    """
    if m < 2:
        raise ValueError(f"template length must be >= 2, got {m}")
    codes = np.array(
        [
            v
            for v in range(2**m)
            if all((v >> (m - k)) != (v & ((1 << k) - 1)) for k in range(1, m))
        ],
        dtype=np.int64,
    )
    codes.setflags(write=False)
    return codes


def non_overlapping_templates(bits, m: int = 9, n_blocks: int = 8) -> list[float]:
    """Occurrence counts of every aperiodic length-m template.

    The scan jumps m positions after each hit, so hits cannot overlap.
    The templates are borderless, so their hits never overlap anyway and
    each count is the number of windows equal to the template.  One
    p-value per template.
    """
    arr = _as_bits(bits)
    block_len = arr.size // n_blocks
    if block_len <= m:
        raise ValueError(f"blocks of {block_len} bits are too short for m={m}")
    mean = (block_len - m + 1) / 2.0**m
    var = block_len * (1.0 / 2.0**m - (2.0 * m - 1.0) / 2.0 ** (2 * m))
    templates = template_codes(m)
    chi2 = np.zeros(templates.size)
    for block in _blocks(arr, block_len)[:n_blocks]:
        w = _window_counts(block, m)[templates]
        chi2 += (w - mean) ** 2 / var
    return [float(p) for p in chi2_tail(chi2, n_blocks)]


# The overlapping-template statistic's one setting: the all-ones
# template of length _OVERLAP_M in blocks of _OVERLAP_BLOCK_LEN bits
# (lambda = 2), and the class probabilities tabulated for it.
_OVERLAP_M = 9
_OVERLAP_BLOCK_LEN = 1032
_OVERLAP_PI = (0.364091, 0.185659, 0.139381, 0.100571, 0.070432, 0.139865)


def overlapping_template(bits) -> list[float]:
    """Overlapping occurrences of the all-ones length-_OVERLAP_M template."""
    blocks = _blocks(_as_bits(bits), _OVERLAP_BLOCK_LEN)
    k = len(_OVERLAP_PI) - 1
    rows = _SLICE // _OVERLAP_BLOCK_LEN
    all_ones = 2**_OVERLAP_M - 1
    hits = np.concatenate(
        [
            np.count_nonzero(_window_codes(blocks[a : a + rows], _OVERLAP_M) == all_ones, axis=1)
            for a in range(0, blocks.shape[0], rows)
        ]
    )
    counts = np.bincount(np.minimum(hits, k), minlength=k + 1)
    return [chi2_fit(counts, hits.size * np.asarray(_OVERLAP_PI))]


def _phi(counts: np.ndarray, n: int) -> float:
    probs = counts[counts > 0] / n
    return float(np.sum(probs * np.log(probs)))


def approximate_entropy(bits, m: int = 10) -> list[float]:
    """Difference of m- and (m+1)-pattern entropies (wraparound counts)."""
    arr = _as_bits(bits)
    if arr.size < m + 1:
        raise ValueError(f"need more than {m} bits, got {arr.size}")
    counts = _wrapped_counts(arr, m + 1)
    phi_m = _phi(_drop_last_bit(counts), arr.size) if m > 0 else 0.0
    apen = phi_m - _phi(counts, arr.size)
    chi2 = 2.0 * arr.size * (math.log(2.0) - apen)
    return [float(chi2_tail(chi2, 2**m))]


def _psi_sq(counts: np.ndarray, n: int) -> float:
    return float(counts.size / n * np.sum(counts.astype(np.float64) ** 2) - n)


def serial(bits, m: int = 13) -> list[float]:
    """First and second differences of the pattern-frequency statistic."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    arr = _as_bits(bits)
    if arr.size < m:
        raise ValueError(f"need at least {m} bits, got {arr.size}")
    counts_m = _wrapped_counts(arr, m)
    counts_m1 = _drop_last_bit(counts_m)
    psi_m = _psi_sq(counts_m, arr.size)
    psi_m1 = _psi_sq(counts_m1, arr.size)
    psi_m2 = _psi_sq(_drop_last_bit(counts_m1), arr.size) if m > 2 else 0.0
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    return [float(chi2_tail(d1, 2 ** (m - 1))), float(chi2_tail(d2, 2 ** (m - 2)))]


def _linear_complexities(blocks: np.ndarray) -> np.ndarray:
    """Berlekamp-Massey LFSR length of every row of a (blocks, n) array.

    Bit-sliced: word w of row j of a polynomial array holds bit j (the
    coefficient of x^j) of blocks 64w to 64w + 63, and all blocks step
    through bit i together.  c holds the connection polynomials and seq
    the bits, last bit first, so s[i - j] for j = 0.. is a run of rows.
    The term a discrepancy adds to c is b * x^(i - last_fail): between
    updates of b it gains one power of x per step, the same for every
    block, so update keeps it at a base row that moves down one row per
    step (row n - i + j holds x^j at step i) and nothing is shifted;
    no row below the base is ever written, so those rows stay zero.
    An update sets last_fail = i and b = the old c, so the term becomes
    the old c, which the next step reads as c * x.  c and every term a
    discrepancy adds have degree at most L, so each step touches only
    the rows up to the largest L over the blocks.
    """
    n_blocks, n = blocks.shape
    n_words = -(-n_blocks // 64)
    n_bytes = -(-n_blocks // 8)
    packed = np.zeros((n, n_words * 8), dtype=np.uint8)
    packed[:, :n_bytes] = np.packbits(blocks.T[::-1], axis=1, bitorder="little")
    seq = packed.view(np.uint64)
    c = np.zeros((n + 1, n_words), dtype=np.uint64)
    c[0] = ~np.uint64(0)
    update = np.zeros((n + 2, n_words), dtype=np.uint64)
    update[n + 1] = ~np.uint64(0)  # b * x^(i - last_fail) = x at i = 0
    grow_bytes = np.zeros(n_words * 8, dtype=np.uint8)
    length = np.zeros(n_blocks, dtype=np.int64)
    top = 0  # the largest L
    for i in range(n):
        fail_words = np.bitwise_xor.reduce(c[: top + 1] & seq[n - 1 - i : n - i + top], axis=0)
        fails = np.unpackbits(fail_words.view(np.uint8), count=n_blocks, bitorder="little")
        twice = 2 * length
        grows = fails & (twice <= i)
        length += grows * (i + 1 - twice)
        top = int(length.max())
        grow_bytes[:n_bytes] = np.packbits(grows, bitorder="little")
        # c ^= term where a discrepancy fails; where L grows, the new
        # term is the old c, which is the new c ^ term.
        term = update[n - i : n - i + top + 1]
        c[: top + 1] ^= term & fail_words
        term ^= c[: top + 1] & grow_bytes.view(np.uint64)
    return length


# Class probabilities for the linear-complexity statistic T.
_LC_PI = (0.010417, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833)


def linear_complexity(bits, block_len: int = 500) -> list[float]:
    """Per-block linear complexity against the theoretical law."""
    m = block_len
    lengths = _linear_complexities(_blocks(_as_bits(bits), m))
    sign = -1.0 if m % 2 else 1.0
    mean = m / 2.0 + (9.0 - sign) / 36.0 - (m / 3.0 + 2.0 / 9.0) / 2.0**m
    t = sign * (lengths - mean) + 2.0 / 9.0
    classes = np.where(t <= -2.5, 0, np.where(t > 2.5, 6, np.floor(t + 2.5) + 1))
    counts = np.bincount(classes.astype(np.int64), minlength=7)
    return [chi2_fit(counts, lengths.size * np.asarray(_LC_PI))]
