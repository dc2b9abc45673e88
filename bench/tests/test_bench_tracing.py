"""The tracer wraps every binding of a function and restores them all."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import xplab  # noqa: E402
from xplab import experiments, operators, space  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (space.norm_p, operators.norm_p, xplab.norm_p, space.SpVector.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert space.norm_p is operators.norm_p is xplab.norm_p
        assert space.norm_p is not originals[0]
        sp = space.WeightedSpace(4.0, (1.0, 0.5))
        x = space.SpVector(sp, {1: 1.0, 2: 1.0})
        assert space.xp_norm(x) == originals[0](x)
        out = experiments.run_experiment("rosenthal-identities", seed=0, scale=0.01)
        assert out["verdict"]
    finally:
        tracer.uninstall()
    assert (space.norm_p, operators.norm_p, xplab.norm_p, space.SpVector.__init__) == originals
    m = tracer.metrics(1)
    # xp_norm calls norm_p and norm_2w: three norm calls, one outermost span
    assert m["space.norm_calls"][0] >= 3
    assert m["space.construct_calls"][0] >= 2
    assert m["experiments.calls"][0] == 1
    assert m["experiments.rosenthal-identities_s"][0] > 0
    assert m["space.norm_s"][0] > 0
