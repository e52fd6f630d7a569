"""Start-up cost guard: entry points load only what their path runs.

scipy serves only side paths (probe-inference confidence intervals,
numeric ``E[max]`` quadrature), so those functions import it lazily
and every fresh process — ``repro serve``, a CLI run, a spawn-started
worker — skips its ~1 s import until a call needs it.  Likewise every
package ``__init__`` re-exports lazily, so building a ``Session`` or a
``LiveMarket`` loads no executor, HTTP or simulator module.  Each
check runs in a fresh interpreter, because the test process itself has
long since imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "entry",
    [
        "import repro",
        "from repro.cli import main",
        "from repro.api import Session; Session()",
        "from repro.serve import ReproService, LiveMarket; ReproService()",
    ],
)
def test_entry_point_does_not_import_scipy(entry):
    out = run_fresh(
        f"{entry}\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]", f"{entry!r} imported {out.strip()}"


#: Modules (and packages, with everything under them) that a library
#: caller building a ``Session`` or pricing on a ``LiveMarket`` never runs.
LIGHT_PATH_EXCLUDES = (
    "asyncio",
    "repro.exec",
    "repro.serve.service",
    "repro.serve.backend",
    "repro.serve.loadgen",
    "repro.market.platform",
    "repro.market.simulator",
)


def loaded_from(entry: str, excluded) -> list:
    """Which of *excluded* (or their submodules) *entry* loads."""
    out = run_fresh(
        f"{entry}\nimport json, sys\n"
        f"excluded = {tuple(excluded)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules if any("
        "m == e or m.startswith(e + '.') for e in excluded))))"
    )
    return json.loads(out)


@pytest.mark.parametrize(
    "entry",
    [
        "from repro.api import Session; Session()",
        "from repro.serve import LiveMarket",
    ],
)
def test_library_entry_points_stay_light(entry):
    assert loaded_from(entry, LIGHT_PATH_EXCLUDES) == []


def test_serve_command_path_skips_loadgen_and_platform():
    # The imports ``repro serve`` makes before it binds the socket.
    entry = (
        "import asyncio\n"
        "from repro.cli import main\n"
        "from repro.serve import DEFAULT_MARKET_BUDGET, ReproService, "
        "serve_forever\n"
        "ReproService()"
    )
    assert loaded_from(
        entry, ("repro.serve.loadgen", "repro.market.platform")
    ) == []


def test_lazy_scipy_paths_return_seed_values():
    out = run_fresh(
        """
import json, sys
from repro.inference.mle import (
    estimate_rate_fixed_period, estimate_rate_random_period,
)
from repro.stats.distributions import Erlang, Exponential
from repro.stats.order_statistics import (
    expected_max_erlang_iid, expected_maximum_generic,
)
assert "scipy" not in sys.modules
ci = lambda e: [e.rate, e.ci_low, e.ci_high]
print(json.dumps({
    "fixed": ci(estimate_rate_fixed_period(12, 4.0)),
    "fixed_zero": ci(estimate_rate_fixed_period(0, 2.0)),
    "random": ci(estimate_rate_random_period(10, 3.5)),
    "erlang_max": expected_max_erlang_iid(5, 3, 1.0),
    "generic_max": expected_maximum_generic([Exponential(1.0), Erlang(2, 2.0)]),
    "scipy_loaded": "scipy" in sys.modules,
}))
"""
    )
    assert json.loads(out) == {
        "fixed": [3.0, 1.5501437771805548, 5.24039626204424],
        "fixed_zero": [0.0, 0.0, 1.8444397270569677],
        "random": [2.5714285714285716, 1.3701110560378382, 4.8813724146911905],
        "erlang_max": 5.197368634430234,
        "generic_max": 1.4444444444444404,
        "scipy_loaded": True,
    }
