"""Streaming-model compression toolkit.

Context-sorting transforms with adaptive coding, a block scheme trading
memory for redundancy, tape-machine simulations that account for passes
and charged memory, and adversarial generators that exhibit the gap
between memory-bounded and full-memory compression.
"""

from .adversary import (
    DeBruijnPrefix,
    SeparationReport,
    db_power,
    de_bruijn,
    separation_experiment,
    verify_de_bruijn,
)
from .coders import (
    FreqModel,
    kth_order_decode,
    kth_order_encode,
)
from .entropy import ContextStats, EntropyReport, context_stats, entropy_report, h0, hk, superadditive_check
from .machine import (
    BudgetExceededError,
    CapabilityError,
    ExpansionError,
    Machine,
    MachineConfig,
    MachineError,
    MachineLedger,
    ModelKind,
)
from .pipelines import (
    BlockPlan,
    ContainerHeader,
    FormatError,
    PipelineId,
    block_encode,
    decode_container,
    encode_bwt_dc_ac,
    encode_bwt_mtf_rle_ac,
    encode_kth_order,
    encode_st_dc_ac,
)
from .stream_bwt import (
    rw_bwt_encode,
    rw_bwt_invert,
    rw_suffix_array,
    sort_chars_via_bwt,
    sort_numbers_via_bwt,
)
from .stream_st import streamsort_st, streamsort_st_best_k
from .transforms import (
    SENTINEL,
    bwt,
    bwt_inverse,
    dc_encode,
    mtf_encode,
    st,
)

__version__ = "0.1.0"
