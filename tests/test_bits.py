"""Pinned bits of the small-call API.

``steady_energy`` and every steady ``gain_report`` field, each float as
``float.hex``, of both families and the four variants at n = 1, 4 and 8,
one band-route network (n = 100) per family, a report whose joint stack
refuses r1 (r1 solved again alone), one whose gains are all flagged and
one power report per family.
The values in ``bits.json`` were written by the code before the per-call
cost of the steady stack path was cut; any change to how a small call
is assembled, gated or solved must leave every one of them as it is.
"""

import json
import pathlib

import pytest

from qbnet import TopologyParams, gain_report, steady_energy
from qbnet.network import FAMILIES, VARIANTS

PINNED = json.loads((pathlib.Path(__file__).parent / "bits.json").read_text())


def _params(family, variant, n, **fields):
    values = dict(g_b=0.02, gamma_c=0.1, gamma_b=tuple(0.05 + 0.01 * k for k in range(n)),
                  Gamma=0.3, xi=1.0 - 0.5j,
                  thetas=tuple(0.3 * k - 1.0 for k in range(n)) if variant == "custom" else None)
    values.update(fields)
    return TopologyParams(family, variant, n, **values)


CASES = {f"{family}-{variant}-{n}": _params(family, variant, n)
         for family in FAMILIES for variant in VARIANTS for n in (1, 4, 8)}
CASES.update({f"{family}-r2-100": _params(family, "r2", 100, g_b=0.05)
              for family in FAMILIES})
#: the joint gain stack refuses r1 here (Gamma / 2 fails its gate)
CASES["cascaded-nr-2-joint-refuses-r1"] = TopologyParams("cascaded", "nr", 2, 1e-4, 0.1, 0.1,
                                                         1e-13, 1.0)
#: every energy underflows to 0: both gains undefined and flagged
CASES["parallel-nr-4-flagged"] = _params("parallel", "nr", 4, g_b=1e-200)
POWER_CASES = {f"{family}-nr-2-power": _params(family, "nr", 2) for family in FAMILIES}


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def observed(params, include_power=False) -> dict:
    """Every float of the call(s) as ``float.hex``, by field."""
    report = gain_report(params, include_power)
    fields = ["e_nr", "e_r1", "e_r2", "g1", "g2"]
    if include_power:
        fields += ["p_max_nr", "p_max_r1", "p_max_r2", "eta1", "eta2"]
    out = {"targets": list(report.targets), "flags": list(report.flags)}
    out.update((f, _hex(getattr(report, f))) for f in fields)
    if not include_power:
        out["steady_energy"] = float(steady_energy(params)).hex()
    return out


def test_pins_cover_every_case():
    assert sorted(PINNED) == sorted([*CASES, *POWER_CASES])


@pytest.mark.parametrize("name", sorted(CASES))
def test_steady_bits(name):
    assert observed(CASES[name]) == PINNED[name]


@pytest.mark.parametrize("name", sorted(POWER_CASES))
def test_power_report_bits(name):
    assert observed(POWER_CASES[name], include_power=True) == PINNED[name]
