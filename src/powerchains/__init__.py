"""Power-residue chains over Z and F_p[t].

Verify kth-power-residue chains (plain, cyclic, permutation), search for
prime moduli realizing them, and compare the measured density of
chain-realizing primes against the Chebotarev lower bound computed from the
class group of the subset sums modulo kth powers.

The public names below live in the package's modules (`arith`, `chains`,
`errors`, `ffield`, `kummer`).  Each is imported from its module on first
access, so `import powerchains` loads none of them, and a command of the CLI
loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name: the module it is imported from
_EXPORTS = {
    "euler_phi": "arith",
    "factor": "arith",
    "is_kth_residue": "arith",
    "is_prime": "arith",
    "primes_in_range": "arith",
    "ChainFailure": "chains",
    "ChainVerdict": "chains",
    "SumDistinctResult": "chains",
    "exceptional_primes": "chains",
    "find_chain_primes": "chains",
    "is_chain": "chains",
    "is_cyclic_chain": "chains",
    "is_permutation_chain": "chains",
    "is_sum_distinct": "chains",
    "naive_permutation_chain": "chains",
    "subset_sums": "chains",
    "vegh_sequence": "chains",
    "InvalidCandidateError": "errors",
    "OverflowLimitError": "errors",
    "SizeLimitError": "errors",
    "FFPoly": "ffield",
    "find_chain_irreducibles": "ffield",
    "irreducibles_of_degree": "ffield",
    "is_irreducible": "ffield",
    "is_kth_residue_ff": "ffield",
    "poly_from_text": "ffield",
    "poly_to_text": "ffield",
    "DensityReport": "kummer",
    "class_group": "kummer",
    "empirical_density": "kummer",
    "exponent_vector": "kummer",
    "predicted_density": "kummer",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # an unknown name raises AttributeError, so `from powerchains import
    # chains` goes on to import the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
