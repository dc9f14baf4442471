"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right: the
benchmark counts every later difference from these files as a failure.
"""

from __future__ import annotations

import json

import worker


def main() -> None:
    worker.import_engine()
    from ncgl2 import simples, standard, weights

    worker.REFERENCE.mkdir(exist_ok=True)
    sweep = {
        str(lam): worker.sweep_row(simples.classify_crosscheck(lam))
        for lam in weights.enumerate_lambda(worker.SWEEP_ELL)
    }
    d7 = worker.d7_record(standard.canonical_map(weights.parse_lambda(worker.D7)))
    proc = worker.run_cli(worker.CHECK_ARGV)
    if proc.returncode != 0:
        raise SystemExit(f"ncgl2 {' '.join(worker.CHECK_ARGV)} exited {proc.returncode}")
    for name, data in (("sweep_ell6", sweep), ("canonical_d7", d7)):
        text = json.dumps(data, indent=1, sort_keys=True) + "\n"
        (worker.REFERENCE / f"{name}.json").write_text(text, encoding="utf-8")
    (worker.REFERENCE / "check_all_len4.stdout").write_text(proc.stdout, encoding="utf-8")
    print(f"wrote {len(sweep)} sweep rows, the d^7 digest and {len(proc.stdout)} bytes of CLI output")


if __name__ == "__main__":
    main()
