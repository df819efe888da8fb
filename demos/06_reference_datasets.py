#!/usr/bin/env python3
"""Regenerate every reference dataset into ./figure_data/.

Each panel id maps to a fixed parameter set (declared in the CSV
metadata).  Pass panel ids as arguments to rebuild a subset; every
panel takes well under a second (the eta panels fig4c and fig4d, once
the slow ones, about 0.1 s each).
"""

import sys
import time

from qbnet import FIGURE_IDS, run_figure

OUT = "figure_data"

wanted = sys.argv[1:] or list(FIGURE_IDS)
for fig_id in wanted:
    t0 = time.time()
    paths = run_figure(fig_id, OUT, deterministic=True)
    print(f"{fig_id}: {', '.join(paths)}   ({time.time() - t0:.1f}s)")
