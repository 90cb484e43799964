"""Adaptive arithmetic coding, the delta code and the order-k per-context coder.

The entropy stage is a 32-bit range coder with carry propagation
(byte-oriented, cache + pending-0xFF scheme).  There is one object per
direction: a ``SymbolEncoder`` owns the encoder's state and a
``SymbolDecoder`` the decoder's, and each codes the symbols of whatever
adaptive model a call hands it.  Frequencies adapt from all-ones counts
and are halved, rounding up, whenever the total reaches 2^15, so totals
stay far below the coder's precision floor.  Everything is pure integer
arithmetic, hence bit-exact across platforms and runs.

Payloads are byte strings; within a byte, bits are most significant first,
and a final partial byte would be zero padded.  That framing is normative
for the container format.  Symbol counts travel out of band (in container
headers), so no end-of-stream symbol is ever coded.

Integers v >= 1 (run lengths, gaps, first occurrences) are Elias delta
codes (Elias, IEEE Trans. IT 1975), each bit a symbol of one adaptive binary
model.  With nbits = v.bit_length() and lbits = nbits.bit_length() - 1, the
normative layout is lbits zeros, the lbits + 1 bits of nbits, then the low
nbits - 1 bits of v, most significant first: 1 is 1, 2 is 0100.  Delta
codes run through one loop per coded sequence, which inlines the binary
model and the range coder's arithmetic per bit and keeps their state in
locals for the whole sequence; its output is bit-identical to coding each
bit with the generic ``put``/``get``.  The encoder takes the bits of a
value below 256 from a table built at import and computes those of a larger
one.  It writes a renormalisation byte inline when no carry can be pending
(``low`` below 0xFF000000, no pending 0xFF byte); every other byte goes
through ``_shift_low``, the one implementation of carry propagation.

A model over more than 16 symbols also keeps one sum per block of 16
symbols.  Its ``interval`` is then two C-level sums, and its ``locate``
scans the block sums, then at most 16 counts: sigma / 16 + 16 steps rather
than sigma (both terms are sqrt sigma at sigma = 256), while the small
symbols that move-to-front favours still exit at once.  A model of at most
16 symbols is one block, so it keeps no sums and pays nothing for them.
The block sums are a host-side index derived from the counts: intervals,
rescale points and outputs are those of one flat list of counts, and
``state_bits`` and every ledger charge are unchanged.

The order-k coder keeps one adaptive model per observed length-k context,
keyed by the context read as one base-sigma integer, and creates models
lazily so the memory charge grows with the number of contexts actually
seen, bounded by sigma^k; at k = 0 it is the order-0 coder.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .machine import held
from .transforms import _validate_ranks

RESCALE_TOTAL = 1 << 15
_BLOCK = 16  # symbols per block sum of a wide model
_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x > 1 else 0


_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _delta_bits(value: int) -> bytes:
    """The delta code of value >= 1, one byte of 0 or 1 per bit, most significant first."""
    nbits = value.bit_length()
    lbits = nbits.bit_length() - 1
    # lbits zeros, the lbits + 1 bits of nbits, the low nbits - 1 bits of value
    code = (nbits << (nbits - 1)) | (value & ((1 << (nbits - 1)) - 1))
    return format(code, f"0{2 * lbits + nbits}b").encode().translate(_ASCII_BITS)


# The delta codes of 1 .. _DELTA_TABLE - 1 (entry 0 is never read).  Kept
# small, about 13 KiB, because every import of the module builds it.
_DELTA_TABLE = 256
_DELTA_BITS = (b"",) + tuple(_delta_bits(v) for v in range(1, _DELTA_TABLE))


class FreqModel:
    """Adaptive symbol frequencies; counts stay >= 1, total stays < 2^16.

    Over more than ``_BLOCK`` symbols the model is a ``_BlockFreqModel``.
    """

    __slots__ = ("counts", "total")

    def __new__(cls, num_symbols: int):
        if cls is FreqModel and num_symbols > _BLOCK:
            cls = _BlockFreqModel
        return super().__new__(cls)

    def __init__(self, num_symbols: int):
        if num_symbols < 1:
            raise ValueError("need at least one symbol")
        if RESCALE_TOTAL <= 2 * num_symbols:
            raise ValueError("rescale threshold too small for this alphabet")
        self.counts = [1] * num_symbols
        self.total = num_symbols

    def interval(self, sym: int) -> Tuple[int, int, int]:
        if not 0 <= sym < len(self.counts):
            raise ValueError(f"symbol {sym} out of range")
        lo = sum(self.counts[:sym])
        return lo, lo + self.counts[sym], self.total

    def locate(self, value: int) -> Tuple[int, int, int]:
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


class _BlockFreqModel(FreqModel):
    """A FreqModel that also keeps ``blocks[b] = sum(counts[_BLOCK * b:_BLOCK * (b + 1)])``.

    The block sums are a host-side index that ``state_bits`` does not charge.
    """

    __slots__ = ("blocks",)

    def __init__(self, num_symbols: int):
        super().__init__(num_symbols)
        self.blocks = [min(_BLOCK, num_symbols - b) for b in range(0, num_symbols, _BLOCK)]

    def interval(self, sym: int) -> Tuple[int, int, int]:
        counts = self.counts
        if not 0 <= sym < len(counts):
            raise ValueError(f"symbol {sym} out of range")
        b = sym // _BLOCK
        lo = sum(counts[b * _BLOCK:sym])
        if b:
            lo += sum(self.blocks[:b])
        return lo, lo + counts[sym], self.total

    def locate(self, value: int) -> Tuple[int, int, int]:
        lo = 0
        sym = 0
        for block in self.blocks:
            hi = lo + block
            if value < hi:
                break
            lo = hi
            sym += _BLOCK
        else:
            raise ValueError("decode target out of range")
        # The block's counts sum to its block sum, so value falls within it.
        counts = self.counts
        while True:
            hi = lo + counts[sym]
            if value < hi:
                return sym, lo, hi
            lo = hi
            sym += 1

    def update(self, sym: int) -> None:
        self.counts[sym] += 1
        self.blocks[sym // _BLOCK] += 1
        self.total += 1
        if self.total >= RESCALE_TOTAL:
            counts = self.counts = [(c + 1) >> 1 for c in self.counts]
            self.blocks = [sum(counts[b:b + _BLOCK]) for b in range(0, len(counts), _BLOCK)]
            self.total = sum(self.blocks)


class SymbolEncoder:
    """The range encoder and its state; ``put`` codes one symbol of the model it is passed."""

    __slots__ = ("_low", "_range", "_cache", "_cache_size", "_out")

    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1  # leading dummy byte; the decoder skips it
        self._out = bytearray()

    def put(self, model: FreqModel, sym: int) -> None:
        cum_lo, cum_hi, total = model.interval(sym)
        assert 0 <= cum_lo < cum_hi <= total <= self._range, "coder precision violated"
        r = self._range // total
        self._low += r * cum_lo
        self._range = r * (cum_hi - cum_lo)
        assert self._low < (1 << 33)
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32
        model.update(sym)

    def _shift_low(self) -> None:
        if self._low < 0xFF000000 or self._low > _MASK32:
            carry = self._low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            filler = (0xFF + carry) & 0xFF
            for _ in range(self._cache_size - 1):
                self._out.append(filler)
            self._cache_size = 0
            self._cache = (self._low >> 24) & 0xFF
        self._cache_size += 1
        self._low = (self._low << 8) & _MASK32

    def put_delta(self, model: FreqModel, value: int) -> None:
        """Delta-code value >= 1, each bit through the two-symbol model."""
        self.put_deltas(model, (value,))

    def put_deltas(self, model: FreqModel, values: Iterable[int]) -> None:
        """Delta-code each value >= 1 in turn, each bit through the two-symbol model.

        ``put`` of each bit, inlined: the same intervals, update and rescale.
        A value below ``_DELTA_TABLE`` takes its bits from ``_DELTA_BITS``;
        a larger one has them computed by ``_delta_bits``.  A renormalisation
        byte is written inline when no carry can be pending (``low`` below
        0xFF000000 and no pending 0xFF byte); every other byte goes through
        ``_shift_low``, the one carry path.  The model's and the coder's
        state are read once and written back once for the whole sequence,
        also when a value < 1 raises: the codes before it stand, as they
        would after one ``put_delta`` per value.
        """
        c0, c1 = model.counts
        total = model.total
        low = self._low
        rng = self._range
        cache = self._cache
        pending = self._cache_size
        out = self._out
        try:
            for value in values:
                if value < _DELTA_TABLE:
                    if value < 1:
                        raise ValueError("delta codes represent integers >= 1")
                    bits = _DELTA_BITS[value]
                else:
                    bits = _delta_bits(value)
                for bit in bits:
                    assert total <= rng, "coder precision violated"
                    r = rng // total
                    if bit:
                        low += r * c0
                        rng = r * c1
                        c1 += 1
                    else:
                        rng = r * c0
                        c0 += 1
                    assert low < (1 << 33)
                    while rng < _TOP:
                        if low < 0xFF000000 and pending == 1:
                            out.append(cache)
                            cache = low >> 24
                            low = (low << 8) & _MASK32
                        else:
                            self._low, self._cache, self._cache_size = low, cache, pending
                            self._shift_low()
                            low, cache, pending = self._low, self._cache, self._cache_size
                        rng = (rng << 8) & _MASK32
                    total += 1
                    if total >= RESCALE_TOTAL:
                        c0 = (c0 + 1) >> 1
                        c1 = (c1 + 1) >> 1
                        total = c0 + c1
        finally:
            self._low = low
            self._range = rng
            self._cache = cache
            self._cache_size = pending
            model.counts = [c0, c1]
            model.total = total

    def min_length(self) -> int:
        """The fewest bytes ``finish()`` can still return: it never falls, and is exact at the end.

        Every renormalisation writes or holds one byte, and ``finish`` adds four.
        """
        return len(self._out) + self._cache_size + 4

    def finish(self) -> bytes:
        for _ in range(5):
            self._shift_low()
        return bytes(self._out)


class SymbolDecoder:
    """The range decoder and its state; ``get`` decodes one symbol of the model it is passed."""

    __slots__ = ("_data", "_pos", "_range", "_code")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 1  # skip the encoder's dummy byte
        self._range = _MASK32
        self._code = 0
        for _ in range(4):
            self._code = (self._code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        if self._pos >= len(self._data):
            # A well-formed stream never reads past its flush bytes.
            raise ValueError("truncated payload")
        b = self._data[self._pos]
        self._pos += 1
        return b

    def get(self, model: FreqModel) -> int:
        total = model.total
        r = self._range // total
        target = self._code // r
        sym, cum_lo, cum_hi = model.locate(target if target < total else total - 1)
        self._code -= r * cum_lo
        self._range = r * (cum_hi - cum_lo)
        while self._range < _TOP:
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32
        model.update(sym)
        return sym

    def get_delta(self, model: FreqModel) -> int:
        """Decode one delta code; ``get`` of each bit through a two-symbol model, inlined."""
        c0, c1 = model.counts
        total = model.total
        code = self._code
        rng = self._range
        zeros = 0
        nbits = 0  # 0 until the length field is read
        acc = 0  # the field being read, from its leading 1
        left = -1  # bits still to read into acc; -1 while counting zeros
        while True:
            r = rng // total
            split = r * c0
            # get() clamps code // r to total - 1, which still decodes a 1.
            if code < split:
                bit = 0
                rng = split
                c0 += 1
            else:
                bit = 1
                code -= split
                rng = r * c1
                c1 += 1
            while rng < _TOP:
                code = ((code << 8) | self._next_byte()) & _MASK32
                rng = (rng << 8) & _MASK32
            total += 1
            if total >= RESCALE_TOTAL:
                c0 = (c0 + 1) >> 1
                c1 = (c1 + 1) >> 1
                total = c0 + c1
            if left < 0:
                if not bit:
                    zeros += 1
                    continue
                acc = 1
                left = zeros
            else:
                acc = (acc << 1) | bit
                left -= 1
            if left == 0:
                if nbits:
                    break
                nbits = acc
                acc = 1
                left = nbits - 1
                if not left:
                    break
        self._code = code
        self._range = rng
        model.counts = [c0, c1]
        model.total = total
        return acc


def kth_order_encode(symbols: Sequence[int], sigma: int, k: int, machine=None) -> bytes:
    """Code each symbol with the model of its preceding k symbols.

    The context is one integer, the k preceding symbols read as base-sigma
    digits, oldest first.  The first k symbols, which have no full context
    yet, go through the order-0 fallback model; a context's model is
    created and charged the first time the context occurs.  Single pass;
    decoding mirrors the context tracking exactly.
    """
    symbols = list(symbols)
    if not symbols:
        return b""
    if k < 0:
        raise ValueError("context length must be >= 0")
    _validate_ranks(symbols, sigma)
    fallback = FreqModel(sigma)
    context_bits = fallback.state_bits() + k * max(1, _ceil_log2(max(sigma, 2)))
    models: Dict[int, FreqModel] = {}
    enc = SymbolEncoder()
    put = enc.put
    with held(machine, fallback.state_bits()) as charge:
        charge(128 + 8 * k)
        ctx = 0
        for sym in symbols[:k]:
            put(fallback, sym)
            ctx = ctx * sigma + sym
        span = sigma ** min(k, len(symbols))  # k > n never reaches a full context
        for sym in symbols[k:]:
            model = models.get(ctx)
            if model is None:
                model = models[ctx] = FreqModel(sigma)
                charge(context_bits)
            put(model, sym)
            ctx = (ctx * sigma + sym) % span
        return enc.finish()


def kth_order_decode(data: bytes, count: int, sigma: int, k: int) -> List[int]:
    if count == 0:
        return []
    if k < 0:
        raise ValueError("context length must be >= 0")
    fallback = FreqModel(sigma)
    models: Dict[int, FreqModel] = {}
    get = SymbolDecoder(data).get
    out = [get(fallback) for _ in range(min(k, count))]
    ctx = 0
    for sym in out:
        ctx = ctx * sigma + sym
    span = sigma ** min(k, count)
    for _ in range(count - len(out)):
        model = models.get(ctx)
        if model is None:
            model = models[ctx] = FreqModel(sigma)
        sym = get(model)
        out.append(sym)
        ctx = (ctx * sigma + sym) % span
    return out
