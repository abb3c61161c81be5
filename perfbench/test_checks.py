"""The benchmark's checkers reject wrong values, and every workload runs
correctly at its smallest size.

Run with  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from flatbilliards import cyclotomic as cy
from flatbilliards.catalog import make_entry
from flatbilliards.covers import analyze_cover, tile_by_words

import checks
import tilings

HERE = Path(__file__).resolve().parent


def _analysis(family, n, words):
    return analyze_cover(tile_by_words(make_entry(family, n).polygon, words))


def test_genus_checker_rejects_off_by_one():
    angles = [F(1, 5), F(3, 10), F(1, 2)]  # family 2, n = 5: genus 2
    assert checks.angle_genus(angles) == (2, 10)
    assert checks.check_genus(angles, 2) == []
    assert checks.check_genus(angles, 3)
    assert checks.check_genus(angles, 1)


def _branched(family, n, words):
    a = _analysis(family, n, words)
    return [bp.class_id for bp in a.branched_classes()]


def test_branch_checker_rejects_a_single_branch_point():
    # [[], [0]] over (1/2,1/5,3/10) branches over both pi/5 centres;
    # [[], [0], [0, 2]] over (1/2,1/8,3/8) over the pi/8 point only
    two = _branched("2", 5, [[], [0]])
    one = _branched("2", 8, [[], [0], [0, 2]])
    assert checks.check_several_branch_points(two) == []
    assert checks.check_several_branch_points(one)


def test_riemann_hurwitz_checker_rejects_total_off_by_one():
    a = _analysis("2", 5, [[], [0]])
    ram = [e for bp in a.branch_points for e in bp.ram_indices]
    assert checks.check_riemann_hurwitz(a.chi_cover, a.degree, a.chi_base, ram) == []
    assert checks.check_riemann_hurwitz(a.chi_cover, a.degree, a.chi_base, ram + [2])
    assert checks.check_riemann_hurwitz(a.chi_cover + 1, a.degree, a.chi_base, ram)


def test_ratio_checker_rejects_a_square_other_than_a_third():
    inv_sqrt3 = cy.sin_pi(F(1, 6)) / cy.cos_pi(F(1, 6))  # tan(pi/6)
    assert checks.check_ratio_5a(inv_sqrt3) == []
    assert checks.check_ratio_5a(1 - inv_sqrt3) == []
    assert checks.check_ratio_5a(cy.embed(F(1, 2)))
    assert checks.check_ratio_5a(inv_sqrt3 / 2)


def test_5c_checker_rejects_wrong_height():
    # sqrt(3) cos(7 pi/18) ~ 0.5924 is the root the paper's point gives
    h = 2 * cy.sin_pi(F(1, 3)) * cy.cos_pi(F(7, 18))
    half = cy.embed(F(1, 2))
    assert min(abs(float(r) - float(h)) for r in checks.cubic_5c_roots()) < 1e-12
    assert checks.check_split_5c(half, h) == []
    assert checks.check_split_5c(half, h + F(1, 10**9))
    assert checks.check_split_5c(cy.embed(F(1, 3)), h)


def test_decimal_checker_rejects_a_wrong_digit():
    with mpmath.workdps(60):
        good = mpmath.nstr(1 / mpmath.sqrt(3), 50, strip_zeros=False)
    candidates = checks.ratio_5a_candidates()
    assert checks.check_decimal(good, candidates) == []
    wrong = good[:-3] + str((int(good[-3]) + 1) % 10) + good[-2:]
    assert checks.check_decimal(wrong, candidates)
    assert checks.check_decimal(good[:20], candidates)


def test_area_checker_and_float_judge():
    base = tilings.Base(make_entry("10").polygon.vertices())
    layout = tilings.judge(base, [(), (0,)])
    assert layout.valid
    points = [p for p, _ in layout.outline]
    assert checks.check_outline_area(points, 2, base.area) == []
    assert checks.check_outline_area(points, 3, base.area)
    assert tilings.judge(base, [(), (0,), (0, 0)]).reason == "two copies coincide"
    assert tilings.judge(base, [(), (0, 2)]).reason == "disconnected"


@pytest.mark.parametrize("workload", ["certify", "search", "covers"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_at_smallest_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
