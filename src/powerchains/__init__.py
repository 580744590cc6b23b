"""Power-residue chains over Z and F_p[t].

Verify kth-power-residue chains (plain, cyclic, permutation), search for
prime moduli realizing them, and compare the measured density of
chain-realizing primes against the Chebotarev lower bound computed from the
class group of the subset sums modulo kth powers.
"""

from powerchains.arith import (
    euler_phi,
    factor,
    is_kth_residue,
    is_prime,
    primes_in_range,
)
from powerchains.chains import (
    ChainFailure,
    ChainVerdict,
    SumDistinctResult,
    exceptional_primes,
    find_chain_primes,
    is_chain,
    is_cyclic_chain,
    is_permutation_chain,
    is_sum_distinct,
    naive_permutation_chain,
    subset_sums,
    vegh_sequence,
)
from powerchains.errors import (
    InvalidCandidateError,
    OverflowLimitError,
    SizeLimitError,
)
from powerchains.ffield import (
    FFPoly,
    ff_is_chain,
    ff_is_cyclic_chain,
    ff_is_permutation_chain,
    ff_is_sum_distinct,
    ff_subset_sums,
    find_chain_irreducibles,
    irreducibles_of_degree,
    is_irreducible,
    is_kth_residue_ff,
    poly_from_text,
    poly_to_text,
)
from powerchains.kummer import (
    DensityReport,
    KummerClassGroup,
    class_group,
    empirical_density,
    exponent_vector,
    predicted_density,
)

__version__ = "0.1.0"
