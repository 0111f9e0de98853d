"""Test-only twin of a run whose clamp sits at another level.

Every run clamps the advective coefficient at the paper's a-priori level
M = max |alpha(x, phi0)|; no setting selects another. A test that needs the
unclamped run (level inf) or a clamp that engages everywhere (a level below
M) patches `pde._resolve_cutoff` for the runs inside the block. The patch
is undone on leaving the block, so it is safe inside a hypothesis example.
"""

import contextlib
import dataclasses
from unittest import mock

from riccati_hjb import pde


@contextlib.contextmanager
def clamp_level(m):
    """Runs inside the block clamp at level m, with the run's own lambda
    and T; None keeps the run's own level."""
    if m is None:
        yield
        return
    resolve = pde._resolve_cutoff

    def at_level(model, config, phi0):
        return dataclasses.replace(resolve(model, config, phi0), m=m)

    with mock.patch.object(pde, "_resolve_cutoff", at_level):
        yield
