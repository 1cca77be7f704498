"""README's "Benchmark lifetimes" table against the program.

Each number of its "defaults give" and "one-parameter fit" columns is
recomputed, the first with spin_flip_rate on the preset stacks and the second
with the fit of scripts/fit_conductivity.py, and compared at the significant
digits the README prints.
"""

import re
from decimal import Decimal
from pathlib import Path

import pytest

from fit_conductivity import Z, bscco_stack, fit, nb_stack
from spinflip import BSCCO, COPPER, NIOBIUM, VACUUM, Layer, LayerStack, spin_flip_rate

README = Path(__file__).resolve().parent.parent / "README.md"

# Per row: the preset film on copper at the README's thickness, the
# temperature, and the fit script's stack for the same film.
ROWS = {
    "niobium, 4.2 K": (NIOBIUM, 1e-6, 4.2, nb_stack),
    "BSCCO, 4.2 K": (BSCCO, 2.5e-6, 4.2, bscco_stack),
    "BSCCO, 77 K": (BSCCO, 2.5e-6, 77.0, bscco_stack),
    "normal Nb, 77 K": (NIOBIUM, 1e-6, 77.0, nb_stack),
}
RATIO = "ratio Nb/BSCCO 4.2 K"


def table() -> dict[str, list[str]]:
    """Case -> [benchmark, defaults give, one-parameter fit] cells."""
    section = README.read_text("utf-8").split("\n## Benchmark lifetimes\n", 1)[1]
    lines = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("|")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]
    return {row[0]: row[1:] for row in rows}  # lines[:2]: the header and its rule


def as_printed(value: float, printed: str) -> bool:
    """Whether `value` rounds to `printed` at the significant digits printed."""
    digits = len(Decimal(printed).as_tuple().digits)
    return Decimal(f"{value:.{digits - 1}e}") == Decimal(printed)


def default_tau(case: str) -> float:
    film, d, T, _ = ROWS[case]
    return spin_flip_rate(LayerStack((Layer(VACUUM), Layer(film, d), Layer(COPPER)), T), Z).tau


def test_every_row_is_checked():
    assert Z == 10e-6  # the README's canonical height
    assert table().keys() == ROWS.keys() | {RATIO}


@pytest.mark.parametrize("case", ROWS)
def test_defaults_give(case):
    printed = table()[case][1]
    assert printed.endswith(" s") and as_printed(default_tau(case), printed.removesuffix(" s"))


def test_defaults_give_the_ratio():
    ratio = default_tau("niobium, 4.2 K") / default_tau("BSCCO, 4.2 K")
    assert as_printed(ratio, table()[RATIO][1])


@pytest.mark.parametrize("case", ROWS)
def test_one_parameter_fit(case):
    benchmark, _, cell = table()[case]
    target = float(benchmark.removesuffix(" s"))
    *_, T, make_stack = ROWS[case]
    sigma, tau, status = fit(make_stack, target, T)
    if cell == "unreachable (see below)":  # the whole window stays above the target
        assert status == "window edge (target below reachable range)" and tau > target
        return
    printed = re.fullmatch(r"sigma (\S+) (S/m|\(edge\)) -> (\S+) s", cell)
    assert printed, cell
    assert as_printed(sigma, printed[1]) and as_printed(tau, printed[3])
    assert (printed[2] == "(edge)") == status.startswith("window edge")
