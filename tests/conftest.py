import json
import math
import os
import random
from collections import Counter

import pytest

from sbc.coders import RESCALE_TOTAL, FreqModel, SymbolEncoder, _ceil_log2
from sbc.entropy import ContextStats
from sbc.machine import WRITE, ModelKind

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CORPUS_DIR = os.path.join(FIXTURES, "corpus")

# The models whose machines each pipeline's stages accept: the one-pass
# coders run on every model, the transform pipelines only on the model
# whose operations they use.
ACCEPTING_MODELS = {
    "bwt-mtf-rle-ac": {ModelKind.READ_WRITE},
    "bwt-dc-ac": {ModelKind.READ_WRITE},
    "st-dc-ac": {ModelKind.STREAM_SORT},
    "block-kth": set(ModelKind),
    "kth-order": set(ModelKind),
}


def ranks_of(text):
    """Map a string to dense integer ranks; returns (ranks, alphabet)."""
    alphabet = sorted(set(text))
    index = {ch: i for i, ch in enumerate(alphabet)}
    return [index[ch] for ch in text], alphabet


def render(symbols, alphabet):
    """Ranks back to text, end marker as '#'."""
    return "".join("#" if c == -1 else alphabet[c] for c in symbols)


def random_ranks(rng, max_n, sigma):
    """Length skews small so edge cases appear often."""
    n = rng.randrange(0, max_n + 1) if rng.random() < 0.5 else rng.randrange(0, max_n // 8 + 2)
    return [rng.randrange(sigma) for _ in range(n)]


class FlatFreqModel:
    """Adaptive symbol frequencies; counts stay >= 1, total stays < 2^16.

    ``sbc.coders.FreqModel`` as it stood before it kept block sums: one flat
    list of counts, scanned by ``interval`` and ``locate``.  The library's
    model must give the same intervals, locations and rescales.
    """

    __slots__ = ("counts", "total")

    def __init__(self, num_symbols: int):
        if num_symbols < 1:
            raise ValueError("need at least one symbol")
        if RESCALE_TOTAL <= 2 * num_symbols:
            raise ValueError("rescale threshold too small for this alphabet")
        self.counts = [1] * num_symbols
        self.total = num_symbols

    def interval(self, sym: int):
        if not 0 <= sym < len(self.counts):
            raise ValueError(f"symbol {sym} out of range")
        lo = sum(self.counts[:sym])
        return lo, lo + self.counts[sym], self.total

    def locate(self, value: int):
        acc = 0
        for sym, c in enumerate(self.counts):
            if value < acc + c:
                return sym, acc, acc + c
            acc += c
        raise ValueError("decode target out of range")

    def update(self, sym: int) -> None:
        self.counts[sym] += 1
        self.total += 1
        if self.total >= RESCALE_TOTAL:
            self.counts = [(c + 1) >> 1 for c in self.counts]
            self.total = sum(self.counts)

    def state_bits(self) -> int:
        # 16-bit counters per symbol plus the running total.
        return 16 * (len(self.counts) + 1)


def delta_code(value):
    """The delta code of value >= 1 as a '0'/'1' string.

    The normative layout of the ``sbc.coders`` docstring: lbits zeros, the
    lbits + 1 bits of nbits, then the low nbits - 1 bits of value, most
    significant first, where nbits = value.bit_length() and
    lbits = nbits.bit_length() - 1.
    """
    nbits = value.bit_length()
    lbits = nbits.bit_length() - 1
    return "0" * lbits + format(nbits, "b") + format(value, "b")[1:]


def oracle_delta_code_bits(values):
    """-log2 P of the delta codes of values through a fresh two-symbol model.

    One bit at a time: the sum of -log2(count / total) before each
    ``FreqModel(2).update``, so every rescale is the model's own.
    """
    model = FreqModel(2)
    bits = 0.0
    for value in values:
        for bit in map(int, delta_code(value)):
            bits -= math.log2(model.counts[bit] / model.total)
            model.update(bit)
    return bits


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def calibration():
    with open(os.path.join(FIXTURES, "calibration.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def corpus():
    out = {}
    for name in sorted(os.listdir(CORPUS_DIR)):
        with open(os.path.join(CORPUS_DIR, name), "rb") as fh:
            out[name] = fh.read()
    return out


# -- independent oracles used across test modules ---------------------------


def oracle_backward_sort(extended):
    """Positions sorted by full cyclic backward context, straight from the definition."""
    m = len(extended)
    def context(i):
        return tuple(extended[(i - 1 - j) % m] for j in range(m))
    return sorted(range(m), key=context)


def oracle_bwt(s):
    extended = list(s) + [-1]
    return [extended[i] for i in oracle_backward_sort(extended)]


def doubling_context_order(seq):
    """Positions sorted by cyclic backward context, by prefix doubling with tuple keys.

    The rank-doubling sort the library used before it sorted suffixes:
    O(m log^2 m), so it checks the library at sizes the definition oracles
    cannot reach.
    """
    m = len(seq)
    if m == 0:
        return []
    if m == 1:
        return [0]

    def rerank(keys):
        order = sorted(range(m), key=keys.__getitem__)
        rank = [0] * m
        top = 0
        rank[order[0]] = 0
        for prev, cur in zip(order, order[1:]):
            if keys[cur] != keys[prev]:
                top += 1
            rank[cur] = top
        return order, rank, top

    uniq = {v: i for i, v in enumerate(sorted(set(seq)))}
    order, rank, top = rerank([uniq[seq[i - 1]] for i in range(m)])
    length = 1
    while top < m - 1:
        if length >= m:
            raise ValueError("rotations are not all distinct")
        keys = [(rank[i], rank[(i - length) % m]) for i in range(m)]
        order, rank, top = rerank(keys)
        length <<= 1
    return order


def doubling_bwt(s):
    extended = list(s) + [-1]
    return [extended[i] for i in doubling_context_order(extended)]


def oracle_st(s, k):
    extended = list(s) + [-1]
    m = len(extended)
    def context(i):
        return tuple(extended[(i - 1 - j) % m] for j in range(k))
    order = sorted(range(m), key=lambda i: (context(i), i))
    return [extended[i] for i in order]


def oracle_context_stats(s, k, cyclic=False):
    """Order-k context counts by one tuple slice and one lookup per position.

    ``sbc.entropy.context_stats`` scanned this way before it counted whole
    windows at once; it must give the same table, in the same key order and
    the same order inside each context.
    """
    if k < 0:
        raise ValueError("context length must be >= 0")
    n = len(s)
    if cyclic:  # a linear scan with the string's cyclic last k characters in front
        s = [s[(j - k) % n] for j in range(k) if n] + list(s)
    table = {}
    for i in range(k, len(s)):
        w = tuple(s[i - k:i])
        bucket = table.get(w)
        if bucket is None:
            bucket = table[w] = Counter()
        bucket[s[i]] += 1
    return ContextStats(k, table, n)


def oracle_hk(s, k, cyclic=False):
    """Order-k entropy summed over :func:`oracle_context_stats`, contexts in table order."""
    stats = oracle_context_stats(s, k, cyclic=cyclic)
    total = 0.0
    for bucket in stats.table.values():
        m = sum(bucket.values())
        total += sum(c * math.log2(m / c) for c in bucket.values())
    return total / len(s)


def oracle_dc_encode(seq, sigma):
    """The distance encoder by building one (rank, start, end) run per character.

    ``sbc.transforms.dc_encode`` worked this way before it found run starts
    with one scan; it must give the same first occurrences and gaps, and
    name the same offending rank.
    """
    seq = list(seq)
    for c in seq:
        if not 0 <= c < sigma:
            raise ValueError(f"symbol {c!r} out of alphabet")
    runs = []  # (symbol, start, end) inclusive
    for i, c in enumerate(seq):
        if runs and runs[-1][0] == c and runs[-1][2] == i - 1:
            runs[-1] = (c, runs[-1][1], i)
        else:
            runs.append((c, i, i))
    first = [None] * sigma
    next_start = {}
    gaps_rev = []
    for sym, start, end in reversed(runs):
        nxt = next_start.get(sym)
        gaps_rev.append(0 if nxt is None else nxt - end)
        next_start[sym] = start
    for sym, start, _ in runs:
        if first[sym] is None:
            first[sym] = start
    return first, gaps_rev[::-1]


def _charge(machine, bits):
    if machine is not None and bits:
        machine.charge_memory(bits)  # never released, as the tuple-keyed encoder did


class ContextModelBank:
    """Lazily instantiated per-context models plus an order-0 fallback."""

    def __init__(self, k: int, sigma: int, machine=None):
        if k < 0:
            raise ValueError("context length must be >= 0")
        self.k = k
        self.sigma = sigma
        self.machine = machine
        self.models = {}
        self.fallback = FreqModel(sigma)
        _charge(machine, self.fallback.state_bits())

    def model_for(self, ctx: tuple) -> FreqModel:
        model = self.models.get(ctx)
        if model is None:
            model = FreqModel(self.sigma)
            self.models[ctx] = model
            key_bits = self.k * max(1, _ceil_log2(max(self.sigma, 2)))
            _charge(self.machine, model.state_bits() + key_bits)
        return model


def oracle_kth_order_encode(symbols, sigma, k, machine=None):
    """The order-k encoder keyed by the tuple of the k preceding symbols.

    ``sbc.coders.kth_order_encode`` worked this way, through a model bank,
    before it kept the context as one base-sigma integer; it must give the
    same payload and charge the machine the same amounts in the same order.
    """
    symbols = list(symbols)
    if not symbols:
        return b""
    bank = ContextModelBank(k, sigma, machine)
    _charge(machine, 128 + 8 * k)
    enc = SymbolEncoder()
    ctx: tuple = ()
    for sym in symbols:
        if not 0 <= sym < sigma:
            raise ValueError(f"symbol {sym} out of alphabet")
        model = bank.model_for(ctx) if len(ctx) == k else bank.fallback
        enc.put(model, sym)
        if k:
            ctx = (ctx + (sym,))[-k:]
    return enc.finish()


def oracle_dc_reconstruct(first, n, next_gap):
    """The distance decoder by scanning every pending rank per run.

    The library decoded this way before it kept pending occurrences in a
    heap; ``sbc.transforms._dc_reconstruct`` must return the same string or
    raise the same message, after the same ``next_gap`` calls.
    """
    pending = {}
    for sym, pos in enumerate(first):
        if pos is None:
            continue
        if not 0 <= pos < n:
            raise ValueError("first occurrence out of range")
        pending[sym] = pos
    out = []
    pos = 0
    while pos < n:
        owners = [a for a, p in pending.items() if p == pos]
        if len(owners) != 1:
            raise ValueError("malformed distance stream")
        sym = owners[0]
        del pending[sym]
        nxt = min(pending.values()) if pending else n
        out.extend([sym] * (nxt - pos))
        gap = next_gap()
        if gap is None or gap < 0 or gap == 1:
            raise ValueError("malformed distance stream")
        if gap:
            target = (nxt - 1) + gap
            if target >= n:
                raise ValueError("gap points past the end")
            pending[sym] = target
        pos = nxt
    if pending:
        raise ValueError("dangling occurrences")
    return out


def _merge_runs(a, b, key):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    ka = key(a[0])
    kb = key(b[0])
    la, lb = len(a), len(b)
    while True:
        if ka <= kb:  # ties from the earlier run keep the merge stable
            out.append(a[i])
            i += 1
            if i == la:
                out.extend(b[j:])
                return out
            ka = key(a[i])
        else:
            out.append(b[j])
            j += 1
            if j == lb:
                out.extend(a[i:])
                return out
            kb = key(b[j])


def faithful_tape_merge_sort(machine, tape_id, key, scratch_a, scratch_b):
    """The bottom-up two-way tape merge sort, executed record by record.

    The library sorted this way before it charged the same sweeps and
    computed the tapes with one host sort; its tapes, ledger and trace
    lines are what ``sbc.machine.tape_merge_sort`` must reproduce.  A
    ``key`` of None compares whole records.
    """
    if key is None:
        key = lambda rec: rec
    n = len(machine.tapes[tape_id].records)
    if n <= 1:
        return
    run = 1
    while run < n:
        with machine.begin_pass(tape_id) as src, \
                machine.begin_pass(scratch_a, mode=WRITE) as wa, \
                machine.begin_pass(scratch_b, mode=WRITE) as wb:
            records = src.read_all()
            outs = (wa, wb)
            for idx, start in enumerate(range(0, n, run)):
                outs[idx & 1].write_many(records[start:start + run])
        with machine.begin_pass(scratch_a) as ra, \
                machine.begin_pass(scratch_b) as rb, \
                machine.begin_pass(tape_id, mode=WRITE) as out:
            a = ra.read_all()
            b = rb.read_all()
            merged = []
            pos = 0
            while pos < len(a) or pos < len(b):
                merged.extend(_merge_runs(a[pos:pos + run], b[pos:pos + run], key))
                pos += run
            out.write_many(merged)
        run <<= 1
