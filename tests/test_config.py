"""Configuration: every key is read by the package."""

import dataclasses
import re
from pathlib import Path

import genimm
from genimm.config import Config


def test_every_config_key_is_read_outside_config():
    package = Path(genimm.__file__).parent
    source = "\n".join(p.read_text(encoding="utf-8")
                       for p in sorted(package.glob("*.py"))
                       if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Config)
              if not re.search(rf"\.{f.name}\b", source)]
    assert unread == []
