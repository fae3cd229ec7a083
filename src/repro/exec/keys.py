"""Content-addressed cache keys for compiled circuits.

A cache key names *everything that determines the compiled artifact*: the
synthesis strategy and its ``(d, k)`` scenario, the compilation stage
(macro synthesis vs. G-gate lowering) and a code-version salt that is
bumped whenever the compilers change behaviour without changing their
inputs.  Lowering has one pipeline and no options, so the salt covers it.
Keys are the SHA-256 of a canonical JSON rendering, so they are

* **stable across processes** — no reliance on ``hash()`` (which is
  randomised per process), dict ordering, or object identity;
* **sensitive to the salt** — bumping :data:`CODE_VERSION` (or passing a
  custom ``salt=``) invalidates every previously cached artifact at once.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional


#: Bump whenever synthesis or lowering output changes for identical inputs
#: (a new peephole rule, a changed template, a serialization format change).
#: Every key embeds this, so stale artifacts are never deserialized.
CODE_VERSION = "repro-exec-1"

#: Version of the key layout itself (field names / ordering below).
_KEY_LAYOUT = 3


def cache_key(
    strategy: str,
    dim: int,
    k: int,
    *,
    stage: str = "lowered",
    salt: Optional[str] = None,
) -> str:
    """The content address of one compiled artifact (SHA-256 hex digest).

    ``stage`` is ``"synth"`` for the macro-level synthesis output and
    ``"lowered"`` for the G-gate form.
    """
    payload = {
        "layout": _KEY_LAYOUT,
        "salt": salt if salt is not None else CODE_VERSION,
        "strategy": str(strategy),
        "d": int(dim),
        "k": int(k),
        "stage": str(stage),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()
