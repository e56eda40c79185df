"""Entry points refuse malformed input with the package's typed errors.

One table of (entry point, input, expected outcome): ragged branch tables,
non-integer windows, windows that are not one pair, non-integer sizes,
seeds that are not non-negative integers, random-mode ranges of negative or
overflowing width, circle potentials whose exp overflows or vanishes,
hypothesis parameters that are not integers or not
finite, and matrices the
stationary oracle cannot iterate each raise their StructuralError or
DomainError at the call, not a numpy or builtin error later.  The last row holds the C+ ratio reduction to its boundary
rule: no positive multiple of f lies below a vector with a negative entry
where f vanishes, so A = 0 and the distance to f is infinite.
"""
import math

import numpy as np
import pytest

from nsrpf.cones import theta_positive
from nsrpf.errors import DomainError, StructuralError
from nsrpf.hypotheses import HypothesisParams
from nsrpf.spaces import Field, PointSpace
from nsrpf.systems import (CircleMapSpec, MatrixChainSpec, build_circle_chain,
                           build_matrix_chain, oracle_stationary_rpf)
from nsrpf.transfer import Stage, StageSeq

SP = PointSpace.simplex(2)
STAGES = build_matrix_chain(MatrixChainSpec.random(d=2, window=(0, 4), seed=1)).stages
HYP = dict(D=2, delta=0.1, rho=0.5, tau=3, H=1.0, beta=1.0, V=0.4)


def _stage(**table):
    return Stage(SP, SP, **table)


def _hyp(**changed):
    return HypothesisParams(**{**HYP, **changed})


CASES = {
    "ragged branch index": (_stage, dict(branch_index=[[0, 1], [0]],
                                         branch_frac=[[0.0, 0.0], [0.0]],
                                         branch_weight=[[1.0, 1.0], [1.0]]), StructuralError),
    "ragged branch weight": (_stage, dict(branch_index=[[0, 1], [0, 1]],
                                          branch_frac=[[0.0, 0.0], [0.0, 0.0]],
                                          branch_weight=[[1.0, 1.0], [1.0]]), StructuralError),
    "float stage window": (StageSeq, dict(n_min=0, n_max=4.0, stages=STAGES), StructuralError),
    "float spec window": (MatrixChainSpec, dict(d=2, window=(0.0, 4.0),
                                                matrices=np.ones((4, 2, 2))), StructuralError),
    "float d": (MatrixChainSpec.random, dict(d=2.5, window=(0, 4)), StructuralError),
    "float stationary window": (MatrixChainSpec.stationary,
                                dict(m=np.ones((2, 2)), window=(0, 4.0)), StructuralError),
    "float N": (lambda **kw: build_circle_chain(CircleMapSpec.make(**kw)),
                dict(N=64.0, window=(-8, 8)), DomainError),
    "float circle window": (CircleMapSpec.make, dict(N=64, window=(-8.0, 8)), StructuralError),
    "three-end window": (MatrixChainSpec.random, dict(d=2, window=(0, 4, 5)), StructuralError),
    "one-end window": (MatrixChainSpec.random, dict(d=2, window=(0,)), StructuralError),
    "one-end circle window": (CircleMapSpec.make, dict(N=16, window=(0,)), StructuralError),
    "float matrix seed": (MatrixChainSpec.random, dict(d=2, window=(0, 4), seed=1.5),
                          StructuralError),
    "string matrix seed": (MatrixChainSpec.random, dict(d=2, window=(0, 4), seed="3"),
                           StructuralError),
    "negative matrix seed": (MatrixChainSpec.random, dict(d=2, window=(0, 4), seed=-1),
                             DomainError),
    "float circle seed": (CircleMapSpec.make, dict(N=64, window=(0, 8), eps_mode="random",
                                                   seed=1.5), StructuralError),
    "string circle seed": (CircleMapSpec.make, dict(N=64, window=(0, 8), seed="3"),
                           StructuralError),
    "negative circle seed": (CircleMapSpec.make, dict(N=64, window=(0, 8), seed=-1),
                             DomainError),
    "negative random amplitude": (CircleMapSpec.make, dict(N=64, window=(0, 8), a=-0.1,
                                                           a_mode="random"), DomainError),
    "negative random eps": (CircleMapSpec.make, dict(N=64, window=(0, 8), eps=-0.01,
                                                     eps_mode="random"), DomainError),
    "overflowing random range": (CircleMapSpec.make, dict(N=64, window=(0, 8), a=1e308,
                                                          a_mode="random"), DomainError),
    "potential past exp's range": (CircleMapSpec.make, dict(N=64, window=(-32, 32), a=800.0,
                                                            a_mode="constant"), DomainError),
    "potential below exp's range": (CircleMapSpec.make, dict(N=64, window=(-32, 32),
                                                             b=-800.0), DomainError),
    "float tau": (_hyp, dict(tau=2.0), DomainError),
    "float D": (_hyp, dict(D=2.0), DomainError),
    "nan delta": (_hyp, dict(delta=math.nan), DomainError),
    "nan H": (_hyp, dict(H=math.nan), DomainError),
    "inf V": (_hyp, dict(V=math.inf), DomainError),
    "1-D oracle matrix": (oracle_stationary_rpf, dict(m=np.ones(2)), StructuralError),
    "non-square oracle matrix": (oracle_stationary_rpf, dict(m=np.ones((2, 3))),
                                 StructuralError),
    "nan oracle entry": (oracle_stationary_rpf, dict(m=[[1.0, math.nan], [1.0, 1.0]]),
                         DomainError),
    "negative outside f's support": (theta_positive, dict(f=Field(SP, [1.0, 0.0]),
                                                          g=Field(SP, [1.0, -1.0])), math.inf),
}


@pytest.mark.parametrize("entry, kwargs, expected", CASES.values(), ids=CASES)
def test_entry_points_refuse_malformed_input(entry, kwargs, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            entry(**kwargs)
    else:
        assert entry(**kwargs) == expected
