"""Determinism lint (D3xx): fixture sources for each rule variant."""

from __future__ import annotations

import textwrap

import pytest

from repro.staticcheck.diagnostics import Waiver, apply_waivers
from repro.staticcheck.lint import lint_paths, lint_source


def _lint(source):
    return lint_source(textwrap.dedent(source), path="fixture.py")


def _rules(diagnostics):
    return [d.rule for d in diagnostics]


class TestGlobalRNG:
    @pytest.mark.parametrize(
        "source",
        [
            "import random\n",
            "import random as rnd\n",
            "from random import randint\n",
            "from random import Random, shuffle\n",
            "import numpy as np\nx = np.random.seed(0)\n",
            "import numpy as np\nx = np.random.random(3)\n",
            "import numpy\nnumpy.random.shuffle(items)\n",
            "import numpy.random\nnumpy.random.rand(4)\n",
            "import numpy.random as nr\nnr.randint(10)\n",
            "from numpy import random as nprand\nnprand.normal()\n",
            "from numpy.random import seed\n",
        ],
    )
    def test_d301_fires(self, source):
        diagnostics = _lint(source)
        assert "D301" in _rules(diagnostics), source

    @pytest.mark.parametrize(
        "source",
        [
            # Explicit generators are the sanctioned API.
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "from numpy.random import default_rng, SeedSequence\n",
            "import numpy.random as nr\ng = nr.Generator(nr.PCG64(3))\n",
            # Names that merely *look* like the banned modules.
            "x = self.random.choice(3)\n",
            "import numpy as np\nval = np.randomized_thing\n",
            "random = 3\nprint(random)\n",
        ],
    )
    def test_allowed_patterns_clean(self, source):
        assert _lint(source) == [], source


class TestWallClock:
    @pytest.mark.parametrize(
        "source",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.perf_counter()\n",
            "import time as tm\nt = tm.monotonic()\n",
            "from time import perf_counter\n",
            "from datetime import datetime\nd = datetime.now()\n",
            "from datetime import datetime as dt\nd = dt.utcnow()\n",
            "import datetime\nd = datetime.date.today()\n",
        ],
    )
    def test_d302_fires(self, source):
        diagnostics = _lint(source)
        assert "D302" in _rules(diagnostics), source

    @pytest.mark.parametrize(
        "source",
        [
            "import time\ntime.sleep(0.1)\n",
            "from time import sleep\n",
            "from datetime import timedelta\n",
            "import datetime\nd = datetime.timedelta(days=1)\n",
        ],
    )
    def test_non_clock_time_usage_clean(self, source):
        assert _lint(source) == [], source


class TestParsing:
    def test_d300_on_syntax_error(self):
        (diag,) = _lint("def broken(:\n")
        assert diag.rule == "D300" and diag.severity == "error"

    def test_locations_carry_line_numbers(self):
        (diag,) = _lint("x = 1\nimport random\n")
        assert diag.location == "fixture.py:2"


class TestRealTree:
    def test_shipped_library_findings_all_waivable(self):
        """Every D3xx finding in src/repro matches a committed waiver."""
        from repro.staticcheck.waivers import BUILTIN_WAIVERS

        diagnostics = lint_paths(["src/repro"], root=".")
        lint_waivers = [w for w in BUILTIN_WAIVERS if w.rule.startswith("D")]
        applied = apply_waivers(diagnostics, lint_waivers)
        unwaived = [
            d for d in applied if d.rule.startswith("D") and not d.waived
        ]
        assert unwaived == [], [(d.location, d.message) for d in unwaived]

    def test_migrated_modules_are_clean_without_waivers(self):
        """rng.py and crn/ssa.py, which seed numpy generators, must lint
        clean on their own."""
        diagnostics = lint_paths(
            [
                "src/repro/rng.py",
                "src/repro/crn/ssa.py",
            ],
            root=".",
        )
        assert diagnostics == []

    def test_waiver_scoping(self, tmp_path):
        victim = tmp_path / "victim.py"
        victim.write_text("import random\n")
        diagnostics = lint_paths([victim], root=tmp_path)
        applied = apply_waivers(
            diagnostics,
            [Waiver(rule="D301", location="victim.py", justification="test")],
        )
        assert applied[0].waived
