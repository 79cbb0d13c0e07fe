"""Run the bianchi9 CLI under the benchmark's tracer and save what it saw.

Usage: python3 perfbench/cli_child.py STATS_JSON [bianchi9 CLI arguments...]

Stdout, stderr and the exit code are those of ``python3 -m bianchi9.cli``
with the same arguments.  STATS_JSON receives the tracer's counters plus the
import time, the time in ``cli.main``, cache hits, misses and rejects (a
read of an existing entry that returned nothing), and bytes written.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> None:
    stats_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import bianchi9.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer().install()
    counts = tracer.stats.counts
    counts["cli.children"] += 1
    counts["cli.import_s"] += import_s
    read, write = getattr(cli, "cache_read", None), getattr(cli, "cache_write", None)

    def classified_read(path):
        existed = Path(path).exists()
        doc = read(path)
        counts["cli.hits" if doc is not None else "cli.rejects" if existed else "cli.misses"] += 1
        return doc

    def sized_write(path, doc):
        write(path, doc)
        counts["cli.bytes_written"] += Path(path).stat().st_size

    if read is not None:
        cli.cache_read = classified_read
    if write is not None:
        cli.cache_write = sized_write
    t1 = time.perf_counter()
    try:
        cli.main(argv)
    finally:
        counts["cli.main_s"] += time.perf_counter() - t1
        stats_path.write_text(json.dumps({"missing": tracer.missing, **tracer.stats.to_json()}))


if __name__ == "__main__":
    main()
