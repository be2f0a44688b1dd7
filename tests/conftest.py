from functools import cached_property

import pytest

from surfield.lattice import FieldEnsemble


@pytest.fixture
def embeddings(monkeypatch):
    """The ensembles whose dense data tensor is built while the test runs,
    one entry per build."""
    built = []
    embed = FieldEnsemble.dense.func

    def counted(ens):
        built.append(ens)
        return embed(ens)

    prop = cached_property(counted)
    prop.__set_name__(FieldEnsemble, "dense")
    monkeypatch.setattr(FieldEnsemble, "dense", prop)
    return built
