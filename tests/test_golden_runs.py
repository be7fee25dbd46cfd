"""Golden short runs of the bundled configs.

Each config in ``demos/configs`` runs through ``run_simulation`` to a short
horizon (18 steps; the 2-D variants 10).  The step count is pinned exactly, and the last step
and the final state's norms to 1e-12 relative, so a refactor that claims
identical outputs is checked, not asserted.  Variants of a bundled config
reach paths the configs themselves do not, such as the direct 1-D solve
of NSK2 with a variable mobility on a periodic grid.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from korteweg.harness import config_from_dict, load_config, run_simulation

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# name: (t_end, steps, dt_last, rms rho, min rho, max rho, rms of each m component)
GOLDEN = {
    "literal_convention": (0.02, 18, 0.00048639783087980545, 1.5597152837481987,
                           1.000450886021468, 1.9990245601101952, (0.2758834036893532,)),
    "nsk1_interface": (0.02, 18, 0.00048640264225295257, 1.5605755381386623,
                       1.0004502437619993, 1.9991886393466105, (0.024548498223590367,)),
    "nsk2_interface": (0.02, 18, 0.00048658072365971583, 1.560578367517863,
                       1.0004333763140936, 1.999203904774118, (0.024040327482801126,)),
    "nsk2_neumann": (0.001, 18, 1.657519207583528e-05, 1.5009372358085808,
                     1.4250053679457468, 1.5749944410727115, (0.00018644712714377558,)),
}

# name: (bundled config, section overrides, golden values as above)
VARIANTS = {
    "nsk2_interface_cosine_mobility": (
        "nsk2_interface", {"mobility": {"kind": "cosine", "base": 2, "amplitude": 1, "mode": 1}},
        (0.02, 18, 0.000486580592780006, 1.560577115196243, 1.00043339628966,
         1.99919332612211, (0.024546221655788812,))),
}

# the 2-D spectral right-hand side: 96^2, 10 steps
_SQUARE_96 = {"grid": {"n": [96, 96], "length": [6.283185307179586, 6.283185307179586],
                       "boundary": "periodic"}}
VARIANTS.update({
    "nsk1_interface_96x96": (
        "nsk1_interface", _SQUARE_96,
        (0.02, 10, 0.0016350835405082136, 1.5414002677043124, 1.000450776054857,
         1.9992044379877458, (0.022009644442545023, 0.023081513006595354))),
    "nsk2_interface_96x96": (
        "nsk2_interface", _SQUARE_96,
        (0.02, 10, 0.0016352158578614648, 1.5414017239946103, 1.0004344294391867,
         1.9992187024980999, (0.0211352737989008, 0.022144151750192017))),
})


def _rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(a * a)))


def test_every_bundled_config_has_a_golden_run():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)


def _check_short_run(cfg, golden):
    t_end, steps, dt_last, rms_rho, min_rho, max_rho, rms_m = golden
    cfg = dataclasses.replace(cfg, control=dataclasses.replace(cfg.control, t_end=t_end))
    res = run_simulation(cfg, quiet=True)
    rho = res.state.rho.values
    assert res.steps == steps
    assert res.state.t == pytest.approx(t_end, rel=1e-14)
    measured = (res.dt_last, _rms(rho), float(rho.min()), float(rho.max()),
                *(_rms(c) for c in res.state.m.components))
    for got, want in zip(measured, (dt_last, rms_rho, min_rho, max_rho, *rms_m), strict=True):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_short_run_matches_golden(name):
    _check_short_run(load_config(CONFIGS / f"{name}.json"), GOLDEN[name])


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_short_variant_run_matches_golden(name):
    config, overrides, golden = VARIANTS[name]
    doc = json.loads((CONFIGS / f"{config}.json").read_text())
    _check_short_run(config_from_dict({**doc, **overrides}), golden)
