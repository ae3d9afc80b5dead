#!/usr/bin/env python3
"""Extract the fig6 / fig8 / modes / ablation numbers from results/*.txt and
print markdown fragments for EXPERIMENTS.md (helper for maintainers
re-running the campaign)."""
import re, pathlib

root = pathlib.Path(__file__).parent

def section(path, start, end=None, n=60):
    text = (root / path).read_text()
    lines = text.splitlines()
    out, grab = [], False
    for l in lines:
        if start in l:
            grab = True
        if grab:
            out.append(l)
            if end and end in l and len(out) > 1:
                break
            if len(out) >= n:
                break
    return "\n".join(out)

for name, start in [
    ("repro_fig6.txt", "L = 1"),
    ("repro_fig8.txt", "Figure 8 reproduction"),
    ("repro_modes.txt", "query"),
    ("ablation_cache.txt", "cache / working set"),
    ("ablation_cascade.txt", "threshold"),
    ("ablation_codec.txt", "profile/QP"),
]:
    print(f"===== {name} =====")
    try:
        print(section(name, start))
    except FileNotFoundError:
        print("(missing)")
    print()
