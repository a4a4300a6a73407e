"""The public surface: the names the package exports and the README example."""
import re
from pathlib import Path

import ising_lab

_README = Path(__file__).resolve().parent.parent / "README.md"

_PUBLIC = {
    "ChiResult", "ConvergenceError", "CorrelationResult", "CouplingK", "DomainError",
    "FredholmResult", "PhaseError", "PrecisionWarning", "ProbeEntry", "QuadratureSpec",
    "RadialScan", "RootOfUnity", "SmoothnessReport", "SnResult",
    "chi_d", "diagonal_correlation", "fredholm_det", "k_from_temperature",
    "lint_integral", "magnetization", "radial_scan", "radii_grid", "s_n",
    "s_via_fredholm", "smoothness_probe", "sweep",
}


def test_public_names_are_pinned():
    assert len(ising_lab.__all__) == len(_PUBLIC) == 26
    assert set(ising_lab.__all__) == _PUBLIC
    assert all(hasattr(ising_lab, name) for name in _PUBLIC)


def test_readme_library_example_runs():
    text = _README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(_README), "exec"), {})
