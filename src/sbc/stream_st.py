"""Length-k context sorting in the streamsort model.

Records start at one byte per character.  Rewrite passes double every
record by zero padding until records are wide enough to absorb a context
key, which keeps each pass within the factor-two expansion bound and makes
the pad-pass count exactly ceil(log2(target/8)) for a target of
ceil(log2 n) bits.  One more rewrite pass tracks the last k characters in
a logarithmic register and writes them, most recent first, as a fixed
width key in front of each record, appending the end-marker record with
its own key.  The register is one integer of k fields of
ceil(log2(sigma+1)) bits, the marker as 0 and rank r as r+1, most recent
character in the top field; each record shifts the oldest field out and
its own character in.  Every field holds its whole value and the key has
a fixed width, so comparing keys as big-endian bytes compares the
integers, which compares the contexts as tuples.  A single stable sort
pass by key then realizes the transform, and a final rewrite strips keys
and padding.

The context of a position p < k runs past the string's start into the end
marker and, cyclically, the string's tail.  The tracker starts at 0
instead, so p's key has the marker at digit p and zeros after it.  The
marker is below every character, and no other key matches p's through
digit p, so comparing p's key with any other is decided at or before that
digit: the tail's digits would never affect the order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from .coders import _ceil_log2
from .machine import (
    INPUT,
    REWRITE,
    Machine,
    MachineConfig,
    ModelKind,
    held,
)
from .pipelines import PipelineId, _best_k, _container, _dc_ac_payload
from .transforms import _validate_ranks


def default_streamsort_machine(input_data: bytes = b"") -> Machine:
    budget_bits = 4096 + 64 * max(1, len(input_data)).bit_length()
    cfg = MachineConfig(ModelKind.STREAM_SORT, memory_budget_bits=budget_bits)
    return Machine(cfg, input_data)


def _check_key_width(n: int, k: int, sigma: int) -> None:
    # Keys stay logarithmic, a bound that grows with k; its floor of 8 keeps tiny inputs usable.
    if k * _ceil_log2(max(sigma, 2)) > max(8, 4 * _ceil_log2(max(n, 2))):
        raise ValueError("context length too large for a logarithmic key")


def streamsort_st(s: Sequence[int], k: int, machine: Optional[Machine] = None, *,
                  sigma: int, stats: Optional[Dict] = None) -> List[int]:
    """Compute the length-k context sort of s+sentinel on a streamsort tape.

    A given machine's input tape is the input, and its symbols must be
    ranks below ``sigma``; ``s`` gives only its length.  A given ``stats``
    dict receives the number of ``pad_passes``.
    """
    n = len(s)
    if k < 0:
        raise ValueError("context length must be >= 0")
    _check_key_width(n, k, sigma)
    if machine is None:
        _validate_ranks(s, sigma)  # before bytes(s) refuses a symbol in its own words
        machine = default_streamsort_machine(bytes(s))
    machine.require(ModelKind.STREAM_SORT, length=n, sigma=sigma)

    char_width = max(1, sigma.bit_length())  # shifted values 0..sigma need this many bits
    key_bits = k * char_width
    key_bytes = (key_bits + 7) // 8
    target_bits = max(8, _ceil_log2(max(n, 2)), key_bits)

    # Doubling pad passes until records can absorb the key.
    width_bytes = 1
    pad_passes = 0
    while 8 * width_bytes < target_bits:
        with held(machine, 2 * 8 * width_bytes + 32), \
                machine.begin_pass(INPUT, mode=REWRITE) as p:
            recs = p.read_all()
            p.write_many([rec + b"\x00" * len(rec) for rec in recs])
        width_bytes *= 2
        pad_passes += 1

    control_bits = 2 * _ceil_log2(n + 2) + 64
    with held(machine, key_bits + control_bits):
        # The tracker holds the context of the next position, most recent
        # first, packed char_width bits per character; position 0's is the
        # end marker and zeros.
        tracker = 0
        shift = char_width * (k - 1)

        with machine.begin_pass(INPUT, mode=REWRITE) as p:
            recs = p.read_all()
            new = []
            for rec in recs:
                c = rec[0] + 1
                new.append(tracker.to_bytes(key_bytes, "big") + bytes((c,)) + rec[1:])
                if k:
                    tracker = (c << shift) | (tracker >> char_width)
            new.append(tracker.to_bytes(key_bytes, "big") + b"\x00" * width_bytes)  # the end marker's record
            p.write_many(new)

        machine.sort_pass(key=itemgetter(slice(0, key_bytes)))

        with machine.begin_pass(INPUT, mode=REWRITE) as p:
            recs = p.read_all()
            p.write_many(list(map(itemgetter(slice(key_bytes, key_bytes + 1)), recs)))

    if stats is not None:
        stats["pad_passes"] = pad_passes
    return [rec[0] - 1 for rec in machine.tapes[INPUT].records]


def streamsort_st_best_k(s: Sequence[int], k_max: int, machine: Optional[Machine] = None, *,
                         sigma: int, alphabet: Optional[bytes] = None) -> bytes:
    """Encode via the context sort for every k up to k_max, keep the shortest.

    Every k runs on one streamsort machine: the caller's, or else a
    :func:`default_streamsort_machine`.  The sort rewrites the input tape
    and the model cannot restore it, so ``s`` is loaded onto the input tape
    again before each k; that load is host work, not a pass.  The trace
    lists k from k_max down (:func:`_best_k`).  A k whose payload's floor
    is more than a byte over the best so far is not coded at all
    (:func:`_dc_ac_code`), but its coder pass still sweeps the whole tape
    under the same charge: the ledger sums the passes of every k, and its
    peak is the largest of any k.  The coder's forward pass is charged σ+1
    registers but codes every first occurrence before any look-ahead gap,
    so it must buffer the tape.
    """
    s = list(s)
    _validate_ranks(s, sigma)  # s is loaded onto the tape before each k
    if machine is None:
        machine = default_streamsort_machine(bytes(s))
    machine.require(ModelKind.STREAM_SORT)
    _check_key_width(len(s), k_max, sigma)  # the widest key, before any k runs

    def payload_for(k: int, limit: Optional[int]) -> Optional[bytes]:
        machine.tapes[INPUT].records = [bytes((c,)) for c in s]
        streamsort_st(s, k, machine=machine, sigma=sigma)
        # One more sweep feeds the transformed tape through the coder.
        with machine.begin_pass(INPUT) as p:
            return _dc_ac_payload([rec[0] for rec in p.read_all()], sigma + 1, machine, limit)

    best_k, payload = _best_k(k_max, payload_for)
    machine.write_output(payload)
    return _container(PipelineId.ST_DC_AC, sigma, best_k, len(s), payload, alphabet)
