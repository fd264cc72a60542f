"""``examples/quickstart.py`` prints the figure 3 inference.

The quickstart runs the inference engine over a hand-built four-member
route server with no scenario behind it.  Its output is pinned line for
line: the route-server members (A_RS), the looking-glass queries spent,
every member's reconstructed N_a, the five reciprocal-ALLOW links and
the note on the one pair that A's EXCLUDE of C leaves unlinked.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

QUICKSTART = Path(__file__).resolve().parents[1] / "examples" / "quickstart.py"

EXPECTED = """\
route-server members (A_RS): [64496, 64497, 64498, 64499]
looking-glass queries used:  9
  AS64496 (all-except) allows -> [64497, 64499]
  AS64497 (all-except) allows -> [64496, 64498, 64499]
  AS64498 (all-except) allows -> [64496, 64497, 64499]
  AS64499 (all-except) allows -> [64496, 64497, 64498]

inferred multilateral peering links (5):
  AS64496 -- AS64497
  AS64496 -- AS64499
  AS64497 -- AS64498
  AS64497 -- AS64499
  AS64498 -- AS64499

note: AS64496 and AS64498 have no link because A excludes C.
"""


def test_quickstart_prints_the_figure3_inference():
    main = runpy.run_path(str(QUICKSTART))["main"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        main()
    assert printed.getvalue() == EXPECTED
