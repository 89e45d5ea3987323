"""Set-up cost as a command-line user pays it: run in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIGS_JSON

Imports ``zenocool`` from SRC_DIR, parses every config in CONFIGS_JSON
(a JSON list of raw config mappings) and prints one JSON line with the
import and parse times in seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import zenocool  # noqa: E402

imported = time.perf_counter()
import json  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    configs = json.load(fh)
for config in configs:
    zenocool.parse_config_data(config)
parsed = time.perf_counter()
print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported}))
