"""Regenerate pins.json: the answers of jobs that have no independent oracle.

    python3 perfbench/pin.py

Run it only at a commit whose answers are trusted.  The pins were taken at
the seed commit; a later change that alters a pinned answer shows up as
failed calls, and the pins are retaken only when the change in the answer is
the intended one.  For `gsw index` every word of the query pools is pinned,
so every seed finds its drawn words.  The answers of the jobs named in
``workloads.KNOWN_DEFECTS`` are pinned apart, under "known-defects".
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def pinned_answers(jobs, defects) -> tuple:
    """Digests of the jobs without an oracle, and of the known defects."""
    out, wrong = {}, {}
    for job in jobs:
        if job.oracle is None:
            out[job.name] = workloads.digest(job.answer(job.call()))
        elif job.name in defects:
            wrong[job.name] = workloads.digest(job.answer(job.call()))
            if wrong[job.name] == workloads.digest(job.oracle()):
                sys.exit("perfbench: %r agrees with its oracle; drop it from "
                         "KNOWN_DEFECTS" % job.name)
    return out, wrong


def main() -> int:
    if not run.use_sources():
        sys.exit("perfbench: no gsworkbench sources under src/")
    with run.work_dir("pin-") as workdir:
        gsw = run.import_fresh()
        pins = {"known-defects": {}}
        for name, setup in workloads.WORKLOADS.items():
            jobs = setup(gsw, workdir, 1)
            if name == "gsw-cli":
                for path in workloads.INDEX_DRAWS:
                    for members, edits in workloads.index_pool(gsw, path).values():
                        jobs += workloads.index_jobs(gsw, workdir, path, members + edits)
            defects = workloads.KNOWN_DEFECTS.get(name, {})
            pins[name], wrong = pinned_answers(jobs, defects)
            if wrong:
                pins["known-defects"][name] = wrong
    text = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    workloads.PINS_PATH.write_text(text, encoding="utf-8")
    answers = [v for w in pins.values() for v in w.values()]
    print("pinned %d answers" % sum(len(v) if isinstance(v, dict) else 1 for v in answers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
