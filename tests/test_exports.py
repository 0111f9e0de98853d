import importlib

import pytest

import riccati_hjb

MODULES = ["riccati_hjb", "riccati_hjb.alpha", "riccati_hjb.analysis",
           "riccati_hjb.config", "riccati_hjb.model", "riccati_hjb.pde"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["step", "cutoff_level",
                                  "envelope_gradient_x", "sobolev_norm",
                                  "ContractionBudget", "exhaustive_alpha",
                                  "PicardError"])
def test_removed_entry_points_are_gone(name):
    # a run's M, lambda and T come from solve alone, one-step solves replace
    # the separate stepper, the energy check takes its norms from the
    # scheme's own operator, the contraction budget is a plain record, and
    # a stalled step is a plain SolverError
    assert name not in riccati_hjb.__all__
    assert not hasattr(riccati_hjb, name)
    for module in MODULES[1:]:
        assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("name", ["riccati_hjb.alpha", "riccati_hjb.analysis",
                                  "riccati_hjb.model", "riccati_hjb.pde"])
def test_package_exports_every_module_name(name):
    # the package's public list is the union of its modules' own lists
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if n not in riccati_hjb.__all__]
    assert missing == []
    for n in module.__all__:
        assert getattr(riccati_hjb, n) is getattr(module, n)
