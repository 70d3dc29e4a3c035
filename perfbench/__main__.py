"""``python -m perfbench``: make ``src/`` importable, then run the CLI."""

import sys

from perfbench.harness import SRC_DIR

if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"perfbench: no program to measure at {SRC_DIR}/repro")
sys.path.insert(0, str(SRC_DIR))

from perfbench.cli import main  # noqa: E402

sys.exit(main())
