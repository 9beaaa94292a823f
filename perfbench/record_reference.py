"""Write perfbench/reference.json: the exact values every fixed benchmark
instance produces, as ``quantred verify --json`` prints them.

    python3 perfbench/record_reference.py

Run it only on a commit whose results are trusted; the benchmark counts any
later difference from this table as a failed verification.
"""

from __future__ import annotations

import json

import workloads


def main():
    m = workloads.import_quantred()
    table = {}
    for fixed, _ in workloads.WORKLOADS.values():
        for p in fixed(m):
            _, text = workloads.verify_document(m, p.name, m["fixedpoint"].instance_to_dict(p))
            row = workloads.values(text)
            problem = workloads.check(text, row)
            if problem is not None:
                raise SystemExit(f"{p.name}: {problem}")
            table[p.name] = row
            print(p.name, row)
    workloads.REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
