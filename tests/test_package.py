"""The package's public surface is exactly its modules' __all__ lists."""

import spectral_risk
from spectral_risk import analysis, distributions, errors, measures, quadrature, risk_aversion

MODULES = (analysis, distributions, errors, measures, quadrature, risk_aversion)


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), "a name is public in two modules"
    assert sorted(spectral_risk.__all__) == sorted(names)


def test_each_package_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spectral_risk, name) is getattr(module, name), name
