"""Simulated streaming machines with explicit tapes and a resource ledger.

Five machine flavours are supported, ordered roughly by capability:

* ``standard``   - one forward pass over the input, write-only output.
* ``multipass``  - the input tape is read-only but may be rewound; every
  rewind starts a new counted pass.
* ``wstreams``   - each pass may rewrite the tape, growing it by at most a
  configured constant factor.
* ``streamsort`` - rewriting plus oracle sort passes over the tape.
* ``readwrite``  - a read-write input tape, a configurable number of
  read-write work tapes, and a write-only output tape.

Algorithms in this package run against this interface so that their pass
counts and charged memory can be asserted by tests instead of trusted; each
first asks :meth:`Machine.require` for what it needs of the machine.

Memory accounting is explicit: a stage charges the bits of working state
it holds for one :func:`held` scope, released however the scope ends.
Host-language overhead (lists, dicts, interpreter frames) is
deliberately not counted; the budget models algorithmic state only.

A pass is one whole one-directional sweep of one tape head: a pass reads
the tape with one :meth:`TapePass.read_all` and writes it with
:meth:`TapePass.write_many`.  In every model the write-only output head is
free: :meth:`Machine.write_output` opens no pass, and the output tape's
size is the ledger's ``total_output_bits``.  Passes are counted and
numbered as they close, so the N-th trace line describes the N-th entry of
the ledger's ``per_pass_tape_bits``.  A rewrite pass in
wstreams/streamsort may grow the tape by at most ``EXPANSION_FACTOR``
times, plus a one-record allowance so that boundary markers (for example
an appended terminator) are expressible on tiny tapes.

Tapes store byte-string records.  Record framing is what makes expansion
accounting exact: the bit size of a tape is eight times the sum of its
record lengths.

Concurrency: a machine instance is single-threaded.  Distinct instances
may run on distinct threads, and an instance may be handed between threads
whenever no pass is open.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .transforms import _validate_ranks


class MachineError(Exception):
    """Base class for streaming-model violations."""


class CapabilityError(MachineError):
    """The requested operation is not permitted by the configured model."""


class BudgetExceededError(MachineError):
    """Charged memory exceeded the configured budget."""


class ExpansionError(MachineError):
    """A rewrite pass grew the tape beyond the allowed expansion factor."""


class ModelKind(enum.Enum):
    STANDARD = "standard"
    MULTIPASS = "multipass"
    W_STREAMS = "wstreams"
    STREAM_SORT = "streamsort"
    READ_WRITE = "readwrite"


INPUT = "input"
OUTPUT = "output"

FORWARD = "fwd"
REVERSE = "rev"

READ = "read"
WRITE = "write"
REWRITE = "rewrite"

_REWRITE_MODELS = (ModelKind.W_STREAMS, ModelKind.STREAM_SORT, ModelKind.READ_WRITE)

#: The factor by which one wstreams/streamsort rewrite pass may grow a tape.
EXPANSION_FACTOR = 2.0


@dataclass(frozen=True)
class MachineConfig:
    model: ModelKind
    memory_budget_bits: int
    work_tapes: int = 0

    def __post_init__(self) -> None:
        if self.memory_budget_bits <= 0:
            raise ValueError("memory_budget_bits must be positive")
        if self.work_tapes < 0:
            raise ValueError("work_tapes must be >= 0")
        if self.work_tapes and self.model is not ModelKind.READ_WRITE:
            raise ValueError("work tapes exist only in the read-write model")


@dataclass
class MachineLedger:
    """What a machine spent, read off it by :meth:`Machine.ledger`.

    ``passes`` counts closed passes, sort passes included (``sort_passes``
    of them); ``peak_memory_bits`` is the highest simultaneous charge;
    ``total_output_bits`` is the output tape's size; ``per_pass_tape_bits``
    is the swept tape's size after each pass, in close order, so trace line
    N describes entry N.
    """

    passes: int = 0
    sort_passes: int = 0
    peak_memory_bits: int = 0
    total_output_bits: int = 0
    per_pass_tape_bits: list = field(default_factory=list)


class Tape:
    """A list of byte-string records that keeps its size in bytes as it changes.

    Assigning ``records`` recounts the size; pass closes and
    :meth:`Machine.write_output` update it by the bytes they move, so
    :meth:`bits` never recounts.  Changing the list in place other than by
    reordering it leaves the count stale.
    """

    __slots__ = ("_records", "_nbytes")

    def __init__(self, records: Optional[Sequence[bytes]] = None):
        self.records = list(records) if records else []

    @property
    def records(self) -> list:
        return self._records

    @records.setter
    def records(self, records: list) -> None:
        self._records = records
        self._nbytes = sum(map(len, records))

    def bits(self) -> int:
        return 8 * self._nbytes


class TapePass:
    """One whole one-directional sweep of a single tape head.

    A read or rewrite pass reads the tape with :meth:`read_all`; a write or
    rewrite pass writes it with :meth:`write_many`.  Use as a context
    manager, or call :meth:`close` once explicitly; the sweep's effects
    (tape replacement, expansion check, pass count and number, trace line)
    happen at close.  While the pass is open nothing else writes its tape.
    """

    __slots__ = (
        "machine", "tape_id", "direction", "mode", "_tape",
        "_swept", "_writes", "_bytes_read", "_bytes_written",
    )

    def __init__(self, machine: "Machine", tape_id: str, direction: str, mode: str):
        self.machine = machine
        self.tape_id = tape_id
        self.direction = direction
        self.mode = mode
        self._tape = machine.tapes[tape_id]
        self._swept = False
        self._writes: list = []
        self._bytes_read = 0
        self._bytes_written = 0

    def read_all(self) -> list:
        """Sweep the head over the tape, returning a copy of its records in sweep order.

        The head then rests at the end, so a second call returns ``[]``.
        """
        if self.mode == WRITE:
            raise MachineError("write pass cannot read")
        if self._swept:
            return []
        self._swept = True
        tape = self._tape
        self._bytes_read += tape._nbytes
        return tape.records[::-1] if self.direction == REVERSE else tape.records[:]

    def write_many(self, recs: Sequence[bytes]) -> None:
        if self.mode == READ:
            raise MachineError("read pass cannot write")
        if not recs:
            return
        self._writes.extend(recs)
        self._bytes_written += sum(map(len, recs))

    def _sweep(self, nbytes: int, records: Optional[list] = None) -> None:
        """Move the head over ``nbytes`` bytes that the host computed itself.

        Only :func:`tape_merge_sort` sweeps this way: a read pass counts the
        bytes as read; a write pass counts them as written and leaves
        ``records`` on the tape, charged at ``nbytes`` bytes.  Without
        ``records`` it leaves no records but the exact size, for the sort's
        levels before the last.
        """
        if self.mode == READ:
            self._bytes_read += nbytes
        else:
            self._bytes_written += nbytes
            if records is not None:
                self._writes = records

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        machine = self.machine
        tape = self._tape
        del machine._open[self.tape_id]
        rejected = None
        if self.mode == REWRITE and machine.config.model in (
            ModelKind.W_STREAMS,
            ModelKind.STREAM_SORT,
        ):
            in_bits = tape.bits()  # unchanged since the pass began
            out_bits = 8 * self._bytes_written
            allowed = (math.ceil(EXPANSION_FACTOR * in_bits)
                       + 8 * max(map(len, self._writes), default=0))
            if out_bits > allowed:
                # The pass still counts and closes; the tape keeps its records.
                rejected = ExpansionError(
                    f"rewrite pass wrote {out_bits} bits from {in_bits}; "
                    f"allowed {allowed} at factor {EXPANSION_FACTOR}"
                )
        if self.mode != READ and rejected is None:
            tape._records = self._writes
            tape._nbytes = self._bytes_written
        machine._finish_pass(self.tape_id, self.direction, self._bytes_read, self._bytes_written)
        if rejected is not None:
            raise rejected

    def __enter__(self) -> "TapePass":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Machine:
    def __init__(self, config: MachineConfig, input_data: bytes = b""):
        self.config = config
        self.tapes = {
            INPUT: Tape([input_data[i:i + 1] for i in range(len(input_data))]),
            OUTPUT: Tape(),
        }
        for w in range(config.work_tapes):
            self.tapes[f"work{w}"] = Tape()
        self._pass_tape_bits: list = []  # the ledger's per_pass_tape_bits
        self._sort_passes = 0
        self._held_bits = 0
        self._peak_bits = 0
        self._permitted: set = set()  # (tape, direction, mode) that _check_pass allowed
        self._open: dict = {}
        self.trace: Optional[Callable[[str], None]] = None

    def require(self, model: Optional[ModelKind] = None, work_tapes: int = 0,
                length: Optional[int] = None, sigma: Optional[int] = None) -> None:
        """Refuse, before a stage's first pass or charge, a machine not of
        ``model``, with fewer than ``work_tapes`` work tapes, whose input
        tape does not hold ``length`` records, or whose input tape holds a
        symbol (a record's first byte, read with no pass) not below
        ``sigma``; None accepts any."""
        given = self.config
        if model is not None and given.model is not model:
            raise CapabilityError(f"this stage needs the {model.value} model, not {given.model.value}")
        if given.work_tapes < work_tapes:
            raise CapabilityError(f"this stage needs {work_tapes} work tapes, not {given.work_tapes}")
        records = self.tapes[INPUT].records
        if length is not None and len(records) != length:
            raise ValueError(f"machine input does not match the stage's {length} symbols")
        if sigma is not None:
            _validate_ranks(bytes(map(itemgetter(0), records)), sigma)

    # -- passes ----------------------------------------------------------

    def begin_pass(self, tape_id: str = INPUT, direction: str = FORWARD, mode: str = READ) -> TapePass:
        if (tape_id, direction, mode) not in self._permitted:
            self._check_pass(tape_id, direction, mode)
            self._permitted.add((tape_id, direction, mode))
        # _check_pass lets a standard machine read only its input, so any pass so far was one.
        if self.config.model is ModelKind.STANDARD and (self._pass_tape_bits or self._open):
            raise CapabilityError("standard model permits exactly one input pass")
        if tape_id in self._open:
            raise MachineError(f"tape {tape_id!r} already has an open pass")
        handle = self._open[tape_id] = TapePass(self, tape_id, direction, mode)
        return handle

    def _check_pass(self, tape_id: str, direction: str, mode: str) -> None:
        """Raise unless the model permits this kind of pass on this tape.

        The answer depends only on the frozen config and the fixed tape set,
        so :meth:`begin_pass` asks once per (tape, direction, mode).
        """
        model = self.config.model
        if tape_id == OUTPUT:
            raise CapabilityError("the output tape is write-only; use write_output")
        if tape_id not in self.tapes:
            raise CapabilityError(f"no tape {tape_id!r} in model {model.value}")
        if direction not in (FORWARD, REVERSE):
            raise ValueError(f"unknown direction {direction!r}")
        if mode not in (READ, WRITE, REWRITE):
            raise ValueError(f"unknown mode {mode!r}")
        if direction == REVERSE and (model is not ModelKind.READ_WRITE or mode != READ):
            raise CapabilityError("reverse sweeps are read passes in the read-write model only")
        if mode == WRITE and model is not ModelKind.READ_WRITE:
            raise CapabilityError("truncating write passes need the read-write model")
        if mode == REWRITE and model not in _REWRITE_MODELS:
            raise CapabilityError(f"model {model.value} cannot rewrite tapes")

    def write_output(self, *recs: bytes) -> None:
        """Append records to the write-only output tape; no pass is counted."""
        tape = self.tapes[OUTPUT]
        tape.records.extend(recs)
        tape._nbytes += sum(map(len, recs))

    def sort_pass(self, key: Callable[[bytes], object]) -> None:
        """Stable oracle sort of the stream tape, charged as one pass (streamsort only)."""
        if self.config.model is not ModelKind.STREAM_SORT:
            raise CapabilityError("sort passes need the streamsort model")
        if self._open:
            raise MachineError("cannot sort while a pass is open")
        tape = self.tapes[INPUT]
        tape.records.sort(key=key)
        self._sort_passes += 1
        self._finish_pass(INPUT, FORWARD, tape._nbytes, tape._nbytes)

    def _finish_pass(self, tape_id: str, direction: str, bytes_in: int, bytes_out: int) -> None:
        """Count a finished pass: the tape's size in the ledger, and its trace line.

        Passes are counted and numbered as they close: pass N is ``per_pass_tape_bits[N-1]``.
        """
        tape_bits = self._pass_tape_bits
        tape_bits.append(8 * self.tapes[tape_id]._nbytes)
        if self.trace is not None:
            self.trace(
                f"pass={len(tape_bits)} tape={tape_id} dir={direction} "
                f"bytes_in={bytes_in} bytes_out={bytes_out} "
                f"mem_peak={self._peak_bits}"
            )

    # -- memory ----------------------------------------------------------

    def charge_memory(self, bits: int) -> None:
        if bits < 0:
            raise ValueError("bits must be >= 0")
        new = self._held_bits + bits
        if new > self.config.memory_budget_bits:
            raise BudgetExceededError(
                f"charged {new} bits exceeds budget {self.config.memory_budget_bits}"
            )
        self._held_bits = new
        if new > self._peak_bits:
            self._peak_bits = new

    def release_memory(self, bits: int) -> None:
        if bits < 0:
            raise ValueError("bits must be >= 0")
        if bits > self._held_bits:
            raise ValueError("release below zero")
        self._held_bits -= bits

    # -- inspection --------------------------------------------------------

    def ledger(self) -> MachineLedger:
        """A new ledger read off the machine; a pass still open is not counted."""
        tape_bits = self._pass_tape_bits
        return MachineLedger(len(tape_bits), self._sort_passes, self._peak_bits,
                             self.tapes[OUTPUT].bits(), list(tape_bits))


@contextmanager
def held(machine: Optional[Machine], bits: int = 0) -> Iterator[Callable[[int], None]]:
    """Charge ``bits``, and whatever the block passes to the function it is given,
    for the scope of a ``with`` block; release it all however the block ends.

    Zero amounts are not charged; with no machine, nothing is.
    """
    total = 0

    def charge(more: int) -> None:
        nonlocal total
        if more and machine is not None:
            machine.charge_memory(more)
            total += more

    charge(bits)
    try:
        yield charge
    finally:
        if total:
            machine.release_memory(total)


def tape_merge_sort(machine: Machine, tape_id: str, key, scratch_a: str, scratch_b: str) -> None:
    """Stable bottom-up two-way merge sort of one tape (read-write model).

    The ledger charges the balanced two-way tape merge exactly: runs of
    length r = 1, 2, 4, ... are distributed alternately onto the two scratch
    tapes and merged back, ceil(log2 n) levels at six head sweeps per level,
    each opened by :meth:`Machine.begin_pass` with its per-pass tape bits
    and trace line.  The host does not move records run by run.  After the
    level of run length r the tape holds each 2r-record chunk of the
    original tape stably sorted, so every sweep's byte count follows from
    chunk membership, summed once over the record lengths.  With r the
    largest power of two below n, the last level leaves the scratch tapes
    holding ``sorted(records[:r])`` and ``sorted(records[r:])`` and the
    tape their stable merge, ``sorted(records, key=key)``, exactly
    as the record-by-record merge (kept in the tests as the oracle) leaves
    them; the host builds the merge with one more ``sorted``, in which
    timsort finds the two runs and merges them once.  Keys (whole records
    when ``key`` is None) must be totally ordered.  Passes, trace lines and
    the tapes after the sort are the contract; tape contents while it runs
    are not.
    """
    records = machine.tapes[tape_id].records
    n = len(records)
    if n <= 1:
        return
    last = 1 << ((n - 1).bit_length() - 1)
    run_a = sorted(records[:last], key=key)
    run_b = sorted(records[last:], key=key)
    merged = sorted(run_a + run_b, key=key)  # stable: ties keep tape order
    prefix = list(accumulate(map(len, records), initial=0))
    total = prefix[n]
    run = 1
    while run < n:
        # Byte offsets of the run-record chunks; scratch_a takes the even ones.
        bounds = prefix[::run]
        if n % run:
            bounds.append(total)
        a_bytes = sum(bounds[1::2]) - sum(bounds[0:-1:2])
        b_bytes = total - a_bytes
        # Records move at the last level only: the scratch tapes take the two
        # runs split at `last`, the tape takes their merge.
        final = run == last
        with machine.begin_pass(tape_id) as src, \
                machine.begin_pass(scratch_a, mode=WRITE) as wa, \
                machine.begin_pass(scratch_b, mode=WRITE) as wb:
            src._sweep(total)
            wa._sweep(a_bytes, run_a if final else None)
            wb._sweep(b_bytes, run_b if final else None)
        with machine.begin_pass(scratch_a) as ra, \
                machine.begin_pass(scratch_b) as rb, \
                machine.begin_pass(tape_id, mode=WRITE) as out:
            ra._sweep(a_bytes)
            rb._sweep(b_bytes)
            out._sweep(total, merged if final else None)
        run <<= 1
