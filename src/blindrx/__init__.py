"""blindrx: single-carrier signal synthesis, blind estimation, and decoding."""

from .blind import (
    BandEstimate,
    EstimateSet,
    band_segment,
    blind_chain,
    cma_equalize,
    equalized_output,
    fine_cfo,
    fine_symbol_rate,
    gardner_timing,
    welch_psd,
)
from .generator import (
    DatasetSpec,
    TxGroundTruth,
    TxParams,
    add_awgn,
    build_fading,
    generate_one,
    read_dataset,
    sample_params,
    write_dataset,
)
from .metrics import (
    EvalRecord,
    aggregate,
    estimation_errors,
    per,
    phase_invariant_loss,
    ser_cdf,
)
from .modulation import (
    ModulationType,
    SymbolSequence,
    constellation,
    map_symbols,
    modulate_cpfsk,
    modulate_gmsk,
    rrc_taps,
)
from .recovery import (
    decode_packet,
    decode_symbols,
    genie_chain,
    genie_equalize,
    genie_output,
    ser,
    symbol_resample,
)

__version__ = "0.1.0"
