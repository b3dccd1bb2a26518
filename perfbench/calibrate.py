"""A fixed piece of Python work that does not touch tagweaver.

``run.py`` starts it as a child process once per round and keeps every
timing of the round also as a ratio to this process's wall time.  On a
shared machine whose speed drifts for minutes at a time, the drift slows
this process as much as the workload, so the ratio stays put while a
change to tagweaver moves only the workload's side.

The work mixes what tagweaver's pipeline does: building names, grouping
them in dictionaries, tokenizing with a regular expression, and rendering
and reading back indented JSON.
"""

import json
import re

names = [f"S{i % 89}_{i}" for i in range(30000)]
groups: dict = {}
for name in names:
    groups.setdefault(name.split("_")[0], []).append(name)
tokens = re.findall(r"[A-Za-z]+|\d+|_", " ".join(names))
doc = json.dumps({key: sorted(group, reverse=True) for key, group in sorted(groups.items())},
                 indent=2)
if len(json.loads(doc)) != 89 or len(tokens) != 4 * len(names):
    raise SystemExit("calibration work gave a wrong result")
