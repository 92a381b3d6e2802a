"""Write ``src/charclass/character_forms.json`` from the symbolic pipeline.

    python3 tools/write_forms.py

Run it after any change to the pipeline that moves a character or a
double-locus residual; ``charclass verify`` fails its
``forms/file-matches-pipeline`` line until the file is rewritten.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from charclass import forms  # noqa: E402


def main() -> int:
    with open(forms.FORMS_FILE, "w", encoding="utf-8") as fh:
        fh.write(forms.render_forms())
    print(f"wrote {forms.FORMS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
