"""``python -m repro`` is the CLI (:mod:`repro.cli`)."""

from repro.cli import main

raise SystemExit(main())
