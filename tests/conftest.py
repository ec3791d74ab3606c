import collections.abc
import os
import subprocess
import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class DirichletWork(collections.abc.Mapping):
    """DirichletOperator assemblies ("__init__") and solves ("solve"), the
    solves summed over the `tally` of every operator assembled; `clear()`
    starts both from zero again."""

    def __init__(self):
        self.tallies = []
        self.clear()

    def clear(self):
        self.assemblies = 0
        self.solved_before = sum(t.solves for t in self.tallies)

    def __getitem__(self, key):
        solves = sum(t.solves for t in self.tallies) - self.solved_before
        return {"__init__": self.assemblies, "solve": solves}[key]

    def __iter__(self):
        return iter(("__init__", "solve"))

    def __len__(self):
        return 2


@pytest.fixture
def dirichlet_work(monkeypatch):
    """The DirichletWork of the test: only `__init__` is wrapped."""
    from vekua_lab import pde

    work = DirichletWork()
    init = pde.DirichletOperator.__init__

    def counted(self, *args, **kwargs):
        work.assemblies += 1
        init(self, *args, **kwargs)
        work.tallies.append(self.tally)

    monkeypatch.setattr(pde.DirichletOperator, "__init__", counted)
    return work


def fresh_python(code, *args, **env):
    """Run `code` with `args` in a fresh interpreter that imports this
    checkout's package, with `env` added to the environment."""
    import vekua_lab

    src = os.path.dirname(os.path.dirname(os.path.abspath(vekua_lab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
