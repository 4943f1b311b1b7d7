"""Desk-scale laboratory for word maps, walks, and generation on finite groups.

The package is organized around a small set of building blocks:

- `groups`: index-based finite groups (cyclic, dihedral, permutation,
  2x2 matrix groups over small prime fields, explicit Cayley tables,
  direct powers) plus structural helpers (center, commutator subgroup,
  quotients).
- `words`: reduced words in d generators, sampling models, exponent-sum
  vectors, gcd certificates, evaluation at element indices.
- `measure`: exact and sampled pushforward distributions of word maps,
  L1 distance to uniform, image versus m-th powers.
- `lattice_walks`: simple random walks on Z^d, exact mod-q endpoint laws,
  return probabilities, and a sampling-free prediction of the endpoint
  gcd law.
- `group_walks`: exact laws and mixing profiles of walks on finite
  groups, and the cyclic obstruction to mixing.
- `generation`: counting generating tuples, largest d-generated direct
  power, and generation checks on G^N.
- `harness` / `cli`: deterministic, auditable experiment runs.
"""

__version__ = "0.1.0"

from .errors import (
    BadLetterError,
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    EmptyWordError,
    GroupMismatchError,
    MalformedCayleyTableError,
    NotGeneratingError,
    NotInCatalogError,
    RankMismatchError,
    TooLargeError,
    UnsupportedParameterError,
    WordlabError,
)
from .groups import (
    CATALOG_SPECS,
    CayleyGroup,
    CyclicGroup,
    DihedralGroup,
    DirectPowerGroup,
    Element,
    Group,
    GroupSpec,
    PSL2Group,
    PermutationGroup,
    SL2Group,
    center,
    closure,
    commutator_subgroup,
    construct_group,
    is_perfect,
    load_cayley_table,
    quotient_by_center,
    quotient_group,
)
from .words import (
    Word,
    abelianize,
    bezout_certificate,
    evaluate_indices,
    gcd_of_vector,
    make_word,
    parse_word,
    reduce_letters,
    sample_word,
)
from .measure import (
    Distribution,
    ImageReport,
    exact_distribution,
    image_and_power_coverage,
    l1_uniform_distance,
    monte_carlo_distribution,
)
from .lattice_walks import (
    ModLaw,
    TailEstimate,
    TailPrediction,
    exact_mod_law,
    gcd_tail_estimate,
    predicted_tail_probability,
    return_probability,
    sample_endpoints,
)
from .group_walks import (
    ObstructionWitness,
    StepSet,
    cyclic_obstruction,
    exact_walk_law,
    mixing_profile,
)
from .generation import (
    AUT_ORDERS,
    HallReport,
    count_generating_tuples,
    hall_max_power,
    power_tuple_generates,
)
from .harness import (
    ExperimentConfig,
    audit_report,
    build_config,
    canonical_report_bytes,
    ingest_cayley_table,
    parse_config_file,
    run_density,
    run_generation,
    run_mixing,
    run_trend,
    run_walk_gcd,
    write_report,
)
