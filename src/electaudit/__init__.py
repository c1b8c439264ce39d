"""Risk-limiting audits: assorter construction, sequential tests, apportionment
checks and a reproducible Monte Carlo harness."""

from .alpha import (
    AssertionOutcome,
    AuditConfig,
    AuditOutcome,
    alpha_audit,
    alpha_batch_audit,
    alpha_init,
)
from .apportionment import AllocationTieError, highest_averages
from .batchcomp import (
    BatchAssorter,
    batch_assorter_value,
    batchcomp_audit,
    make_batch_assorter,
)
from .census import (
    CensusData,
    CensusModel,
    CensusOutcome,
    apportion,
    census_rla,
    generate_census_population,
)
from .core import (
    Assorter,
    BallotType,
    BatchMatrix,
    BatchRecord,
    Contest,
    Tally,
    assorter_mean,
    batch_matrix,
    plurality_assorter,
)
from .knesset import (
    KnessetContest,
    allocate_seats,
    assertion_margin,
    generate_assertions,
)

__version__ = "0.1.0"
