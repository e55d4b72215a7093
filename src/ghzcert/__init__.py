"""Sample-efficient device-independent certification of 4-qubit GHZ states."""

from .bell import (
    BellFunctional,
    BellTerm,
    NonlocalGame,
    baccari_functional,
    classical_bound,
    functional_from_json,
    functional_to_json,
    get_functional,
    mermin_functional,
    pass_probability,
    to_game,
    violation,
    zhao_functional,
)
from .certification import (
    CertificationQuery,
    CertificationReport,
    confidence_bound,
    kl,
    max_certified_extractability,
    min_samples,
    operator_context,
    sweep,
)
from .quantum import (
    expectation,
    fidelity,
    ghz_state,
    ghz_vector,
    kron,
    kron_all,
    maximally_mixed,
    min_eigenvalue,
    noisy_ghz,
)
from .replay import (
    Events,
    decomposed,
    events_from_transcript,
    events_to_jsonl,
    hold_out,
    parse_events,
    replay,
    strict_select,
)
from .selftest import (
    JordanPoint,
    SelfTestBound,
    bound_search,
    build_K,
    certificate_min_eig,
    extractability_bound,
    extraction_channel,
    jordan_observable,
    published_bound,
)
from .simulate import (
    BlockCorrelated,
    Drifting,
    IIDNoisy,
    Transcript,
    run_protocol,
)

__version__ = "0.1.0"
