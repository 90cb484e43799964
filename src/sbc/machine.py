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
counts and charged memory can be asserted by tests instead of trusted.

Memory accounting is explicit: algorithms register the bits of working
state they hold via :meth:`Machine.charge_memory` and release them when
done.  Host-language overhead (lists, dicts, interpreter frames) is
deliberately not counted; the budget models algorithmic state only.

A pass is one whole one-directional sweep of one tape head: a pass reads
the tape with one :meth:`TapePass.read_all` and writes it with
:meth:`TapePass.write_many`.  In the read-write model every sweep of every
tape is counted; in the other models the write-only output head is free
(output is produced "on the way" during the single data pass).  Passes are
numbered in the order they close, so the N-th trace line describes the
N-th entry of the ledger's ``per_pass_tape_bits``.  A rewrite pass in
wstreams/streamsort may grow the tape by at most ``expansion_factor``
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
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional, Sequence


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


@dataclass(frozen=True)
class MachineConfig:
    model: ModelKind
    memory_budget_bits: int
    expansion_factor: float = 2.0
    work_tapes: int = 0

    def __post_init__(self) -> None:
        if self.memory_budget_bits <= 0:
            raise ValueError("memory_budget_bits must be positive")
        if self.expansion_factor < 1:
            raise ValueError("expansion_factor must be >= 1")
        if self.work_tapes < 0:
            raise ValueError("work_tapes must be >= 0")
        if self.work_tapes and self.model is not ModelKind.READ_WRITE:
            raise ValueError("work tapes exist only in the read-write model")


@dataclass
class MachineLedger:
    passes: int = 0
    sort_passes: int = 0
    peak_memory_bits: int = 0
    total_output_bits: int = 0
    per_pass_tape_bits: list = field(default_factory=list)

    def snapshot(self) -> "MachineLedger":
        return MachineLedger(
            self.passes,
            self.sort_passes,
            self.peak_memory_bits,
            self.total_output_bits,
            list(self.per_pass_tape_bits),
        )


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
    manager, or call :meth:`close` explicitly; the sweep's effects (tape
    replacement, expansion check, pass number and trace line) happen at
    close.
    """

    __slots__ = (
        "machine", "tape_id", "direction", "mode",
        "_swept", "_writes", "_bytes_read", "_bytes_written",
        "_bits_before", "_max_rec_bits", "closed",
    )

    def __init__(self, machine: "Machine", tape_id: str, direction: str, mode: str):
        self.machine = machine
        self.tape_id = tape_id
        self.direction = direction
        self.mode = mode
        self._swept = False
        self._writes: list = []
        self._bytes_read = 0
        self._bytes_written = 0
        self._bits_before = machine.tapes[tape_id].bits()
        self._max_rec_bits = 0
        self.closed = False

    def read_all(self) -> list:
        """Sweep the head over the tape, returning a copy of its records in sweep order.

        The head then rests at the end, so a second call returns ``[]``.
        """
        if self.mode == WRITE:
            raise MachineError("write pass cannot read")
        if self._swept:
            return []
        self._swept = True
        tape = self.machine.tapes[self.tape_id]
        self._bytes_read += tape._nbytes
        return tape.records[::-1] if self.direction == REVERSE else tape.records[:]

    def write_many(self, recs: Sequence[bytes]) -> None:
        if self.mode == READ:
            raise MachineError("read pass cannot write")
        if not recs:
            return
        self._writes.extend(recs)
        self._bytes_written += sum(map(len, recs))
        biggest = 8 * max(map(len, recs))
        if biggest > self._max_rec_bits:
            self._max_rec_bits = biggest

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
        if self.closed:
            return
        self.closed = True
        machine = self.machine
        tape = machine.tapes[self.tape_id]
        del machine._open[self.tape_id]
        rejected = None
        if self.mode == REWRITE and machine.config.model in (
            ModelKind.W_STREAMS,
            ModelKind.STREAM_SORT,
        ):
            out_bits = 8 * self._bytes_written
            allowed = (
                math.ceil(machine.config.expansion_factor * self._bits_before)
                + self._max_rec_bits
            )
            if out_bits > allowed:
                # The pass still counts and closes; the tape keeps its records.
                rejected = ExpansionError(
                    f"rewrite pass wrote {out_bits} bits from {self._bits_before}; "
                    f"allowed {allowed} at factor {machine.config.expansion_factor}"
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
        self._ledger = MachineLedger()
        self._charged = 0
        self._input_reads = 0
        self._open: dict = {}
        self.trace: Optional[Callable[[str], None]] = None

    # -- passes ----------------------------------------------------------

    def begin_pass(self, tape_id: str = INPUT, direction: str = FORWARD, mode: str = READ) -> TapePass:
        self._check_pass(tape_id, direction, mode)
        if tape_id in self._open:
            raise MachineError(f"tape {tape_id!r} already has an open pass")
        if mode == READ and tape_id == INPUT:
            self._input_reads += 1
        self._ledger.passes += 1
        handle = TapePass(self, tape_id, direction, mode)
        self._open[tape_id] = handle
        return handle

    def _check_pass(self, tape_id: str, direction: str, mode: str) -> None:
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
        if mode == READ:
            if model is ModelKind.STANDARD and tape_id == INPUT and self._input_reads >= 1:
                raise CapabilityError("standard model permits exactly one input pass")
            return
        if mode == WRITE:
            if model is not ModelKind.READ_WRITE:
                raise CapabilityError("truncating write passes need the read-write model")
            return
        # mode == REWRITE
        if model not in _REWRITE_MODELS:
            raise CapabilityError(f"model {model.value} cannot rewrite tapes")

    def write_output(self, rec: bytes) -> None:
        tape = self.tapes[OUTPUT]
        tape.records.append(rec)
        tape._nbytes += len(rec)
        self._ledger.total_output_bits += 8 * len(rec)

    def sort_pass(self, key: Callable[[bytes], object]) -> None:
        """Stable oracle sort of the stream tape, charged as one pass (streamsort only)."""
        if self.config.model is not ModelKind.STREAM_SORT:
            raise CapabilityError("sort passes need the streamsort model")
        if self._open:
            raise MachineError("cannot sort while a pass is open")
        tape = self.tapes[INPUT]
        tape.records.sort(key=key)
        self._ledger.sort_passes += 1
        self._ledger.passes += 1
        self._finish_pass(INPUT, FORWARD, tape._nbytes, tape._nbytes)

    def _finish_pass(self, tape_id: str, direction: str, bytes_in: int, bytes_out: int) -> None:
        """Record a finished pass: the tape's size in the ledger, and its trace line.

        Passes are numbered as they close: pass N is ``per_pass_tape_bits[N-1]``.
        """
        tape_bits = self._ledger.per_pass_tape_bits
        tape_bits.append(self.tapes[tape_id].bits())
        if self.trace is not None:
            self.trace(
                f"pass={len(tape_bits)} tape={tape_id} dir={direction} "
                f"bytes_in={bytes_in} bytes_out={bytes_out} "
                f"mem_peak={self._ledger.peak_memory_bits}"
            )

    # -- memory ----------------------------------------------------------

    def charge_memory(self, bits: int) -> None:
        if bits < 0:
            raise ValueError("bits must be >= 0")
        new = self._charged + bits
        if new > self.config.memory_budget_bits:
            raise BudgetExceededError(
                f"charged {new} bits exceeds budget {self.config.memory_budget_bits}"
            )
        self._charged = new
        if new > self._ledger.peak_memory_bits:
            self._ledger.peak_memory_bits = new

    def release_memory(self, bits: int) -> None:
        if bits < 0:
            raise ValueError("bits must be >= 0")
        if bits > self._charged:
            raise ValueError("release below zero")
        self._charged -= bits

    # -- inspection --------------------------------------------------------

    def ledger(self) -> MachineLedger:
        return self._ledger.snapshot()


def tape_merge_sort(machine: Machine, tape_id: str, key, scratch_a: str, scratch_b: str) -> None:
    """Stable bottom-up two-way merge sort of one tape (read-write model).

    The ledger charges the balanced two-way tape merge exactly: runs of
    length r = 1, 2, 4, ... are distributed alternately onto the two scratch
    tapes and merged back, ceil(log2 n) levels at six head sweeps per level,
    each opened by :meth:`Machine.begin_pass` with its per-pass tape bits
    and trace line.  The host does not move records run by run.  After the
    level of run length r the tape holds each 2r-record chunk of the
    original tape stably sorted, so every sweep's byte count follows from
    chunk membership, and one stable ``sorted`` gives the tapes: afterwards
    ``tape_id`` holds ``sorted(records, key=key)`` and, with r the largest
    power of two below n, the scratch tapes hold ``sorted(records[:r])``
    and ``sorted(records[r:])``, exactly as the record-by-record merge
    (kept in the tests as the oracle) leaves them.  Keys must be totally
    ordered.  Passes, trace lines and the tapes after the sort are the
    contract; tape contents while it runs are not.
    """
    records = machine.tapes[tape_id].records
    n = len(records)
    if n <= 1:
        return
    keys = list(map(key, records))
    order = sorted(range(n), key=keys.__getitem__)  # stable: ties keep tape order
    last = 1 << ((n - 1).bit_length() - 1)
    pick = records.__getitem__
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
            wa._sweep(a_bytes, list(map(pick, filter(last.__gt__, order))) if final else None)
            wb._sweep(b_bytes, list(map(pick, filter(last.__le__, order))) if final else None)
        with machine.begin_pass(scratch_a) as ra, \
                machine.begin_pass(scratch_b) as rb, \
                machine.begin_pass(tape_id, mode=WRITE) as out:
            ra._sweep(a_bytes)
            rb._sweep(b_bytes)
            out._sweep(total, list(map(pick, order)) if final else None)
        run <<= 1
