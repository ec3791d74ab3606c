import collections
import os
import subprocess
import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def dirichlet_work(monkeypatch):
    """Counter of DirichletOperator assemblies ("__init__") and solves ("solve")."""
    from vekua_lab import pde

    counts = collections.Counter()
    for method in ("__init__", "solve"):
        def counted(self, *args, _method=method, _original=getattr(pde.DirichletOperator, method),
                    **kwargs):
            counts[_method] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(pde.DirichletOperator, method, counted)
    return counts


def fresh_python(code, *args, **env):
    """Run `code` with `args` in a fresh interpreter that imports this
    checkout's package, with `env` added to the environment."""
    import vekua_lab

    src = os.path.dirname(os.path.dirname(os.path.abspath(vekua_lab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
