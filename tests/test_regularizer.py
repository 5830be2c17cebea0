"""The regularizer contract: both kinds answer the same methods, which the
solver, certify, snap_to_graph and qg_audit call without knowing the kind."""

import numpy as np
import pytest

from helpers import random_group_instance, random_nuclear_instance
from stabcert.groupnorm import group_norm
from stabcert.nuclear import nuclear_norm
from stabcert.solver import prox_gradient_solve
from stabcert.stability import certify, snap_to_graph

KINDS = {
    "group": (random_group_instance, lambda reg, x: group_norm(x, reg)),
    "nuclear": (
        random_nuclear_instance,
        lambda reg, x: nuclear_norm(x.reshape(reg.n1, reg.n2)),
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_regularizer_contract(kind):
    make, reference_value = KINDS[kind]
    rng = np.random.default_rng(71)
    for _ in range(20):
        spec = make(rng)
        reg = spec.reg
        assert reg.kind == kind

        z = rng.standard_normal(reg.n) * 2.0
        t = float(rng.uniform(0.2, 2.0))
        p, _, _ = reg.prox(z, t)
        assert p.shape == (reg.n,)
        # the prox residual (z - p) / t is a subgradient at p
        assert reg.classify(p, (z - p) / t, 1e-10).residual <= 1e-10
        assert reg.value(z) == reference_value(reg, z)

        res = prox_gradient_solve(spec)
        xs, ys, _ = snap_to_graph(reg, res.x, res.y)
        assert xs.shape == ys.shape == (reg.n,)
        assert reg.classify(xs, ys, 1e-12).residual <= 1e-12

        cert = certify(spec, xs)
        assert cert.kind == kind
        assert cert.kkt_residual == cert.classification.residual <= 1e-7
        assert cert.subspace_dim == cert.classification.v_basis.shape[1]
        assert cert.classification.as_dict()["kind"] == kind

