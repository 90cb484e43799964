"""Adversarial inputs and the memory/redundancy separation experiment.

A cyclic string of length sigma^k containing every k-tuple exactly once
has zero order-k entropy when repeated, yet each repetition is essentially
incompressible to any algorithm whose memory cannot hold the pattern.
``separation_experiment`` makes that gap measurable: it compresses such a
power once with the memory-bounded block coder and once with the
full-memory transform pipeline and reports both sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from .entropy import _window_counts
from .machine import Machine, MachineConfig, ModelKind
from .pipelines import BlockPlan, block_encode, check_exponents, encode_bwt_dc_ac

#: Blocks a few dozen symbols long still carry fixed coder state, so the
#: desk-scale realization of an O(n^c)-bit budget needs a constant factor.
MEMORY_SLACK = 8

#: Cap on sigma**k in :func:`de_bruijn`; it guards the CLI's --sigma/--k.
MAX_DE_BRUIJN_LENGTH = 1 << 22


@dataclass(frozen=True)
class DeBruijnPrefix:
    sigma: int
    k: int
    d: tuple

    def __len__(self) -> int:
        return len(self.d)


@dataclass(frozen=True)
class SeparationReport:
    n: int
    c: float
    epsilon: float
    k: int
    size_block_bits: int
    size_full_bits: int
    ratio: float


def de_bruijn(sigma: int, k: int) -> DeBruijnPrefix:
    """Lexicographically least cyclic sequence covering every k-tuple once."""
    if sigma < 2:
        raise ValueError("alphabet size must be >= 2")
    if k < 1:
        raise ValueError("order must be >= 1")
    if sigma ** k > MAX_DE_BRUIJN_LENGTH:
        raise ValueError(f"sigma**k exceeds the configured cap {MAX_DE_BRUIJN_LENGTH}")
    # Necklace concatenation: gathering the Lyndon-word rotations in
    # lexicographic order yields the least De Bruijn cycle.
    a = [0] * sigma * k
    seq: List[int] = []

    def db(t: int, p: int) -> None:
        if t > k:
            if k % p == 0:
                seq.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, sigma):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return DeBruijnPrefix(sigma, k, tuple(seq))


def verify_de_bruijn(d: Sequence[int], k: int) -> bool:
    """Whether every k-tuple over the observed alphabet occurs exactly once cyclically."""
    if k < 1:
        raise ValueError("order must be >= 1")
    d = list(d)
    sigma = len(set(d))
    if sigma == 0 or len(d) != sigma ** k:
        raise ValueError("length must equal sigma**k")
    return len(_window_counts(d, k - 1, cyclic=True)) == len(d)


def db_power(prefix: DeBruijnPrefix, i: int) -> List[int]:
    if i < 1:
        raise ValueError("power must be >= 1")
    return list(prefix.d) * i


def separation_experiment(n: int, c: float, epsilon: float) -> SeparationReport:
    """Measure block-coded versus full-memory size on a zero-entropy power.

    The context order k grows with the memory exponent so the pattern is
    exactly too large for the block coder's budget.  The block side runs on
    a standard machine whose budget realizes ceil(n^c) bits (times the
    documented desk-scale slack); the full side is unconstrained.
    """
    check_exponents(c, epsilon)  # before log2 and ceil can see a NaN
    k = math.ceil((c + epsilon / 2) * math.log2(n))
    prefix = de_bruijn(2, k)
    reps = max(1, round(n / 2 ** k))
    s = db_power(prefix, reps)
    actual_n = len(s)

    plan = BlockPlan.for_length(actual_n, c, epsilon)
    budget = MEMORY_SLACK * math.ceil(actual_n ** c)
    machine = Machine(
        MachineConfig(ModelKind.STANDARD, memory_budget_bits=budget),
        bytes(s),
    )
    blocked = block_encode(s, 2, plan, known_n=True, machine=machine)
    full = encode_bwt_dc_ac(s, 2)
    size_block = 8 * len(blocked)
    size_full = 8 * len(full)
    return SeparationReport(
        n=actual_n,
        c=c,
        epsilon=epsilon,
        k=k,
        size_block_bits=size_block,
        size_full_bits=size_full,
        ratio=size_block / size_full,
    )
