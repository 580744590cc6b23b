"""The public names of `powerchains`, each imported from its module on
first access."""

import subprocess
import sys

import pytest

import powerchains
from powerchains import arith, chains, errors, ffield, kummer

PUBLIC = {
    arith: ["euler_phi", "factor", "is_kth_residue", "is_prime", "primes_in_range"],
    chains: ["ChainFailure", "ChainVerdict", "SumDistinctResult", "exceptional_primes",
             "find_chain_primes", "is_chain", "is_cyclic_chain", "is_permutation_chain",
             "is_sum_distinct", "naive_permutation_chain", "subset_sums",
             "vegh_sequence"],
    errors: ["InvalidCandidateError", "OverflowLimitError", "SizeLimitError"],
    ffield: ["FFPoly", "find_chain_irreducibles", "irreducibles_of_degree",
             "is_irreducible", "is_kth_residue_ff", "poly_from_text", "poly_to_text"],
    kummer: ["DensityReport", "class_group", "empirical_density",
             "exponent_vector", "predicted_density"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_lists_the_public_names():
    assert sorted(powerchains.__all__) == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_a_public_name_is_the_object_of_its_module(name):
    assert getattr(powerchains, name) is getattr(HOME[name], name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from powerchains import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(powerchains.__all__)


def test_dir_lists_all():
    assert set(powerchains.__all__) <= set(dir(powerchains))
    assert "__version__" in dir(powerchains)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        powerchains.no_such_name
    assert not hasattr(powerchains, "no_such_name")


def test_fresh_imports_load_only_what_they_name():
    # the version loads no module of the package; a submodule imported by
    # name, through `from powerchains import ...`, loads as before
    script = """
import sys
import powerchains
print(powerchains.__version__, *sorted(m for m in sys.modules if m.startswith("powerchains")))
from powerchains import kummer
print(kummer.__name__, "powerchains.ffield" in sys.modules)
from powerchains import FFPoly
print(FFPoly.__module__)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split("\n")[:-1] == [
        f"{powerchains.__version__} powerchains", "powerchains.kummer False",
        "powerchains.ffield"]
