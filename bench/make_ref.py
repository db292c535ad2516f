"""Regenerate the reference outputs in bench/ref from the current program.

    python3 bench/make_ref.py

Runs each workload once at the default seed and standard size. Only do
this in a change that means to alter the outputs, and say so.
"""

import tempfile

import run
import worker


def main():
    worker.REF_DIR.mkdir(exist_ok=True)
    for name, spec in run.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
            workload = worker.WORKLOADS[name](name, run.DEFAULT_SEED, spec["size"], workdir)
            out = workload.run()
        path = worker.REF_DIR / worker.REF_FILES[name]
        if isinstance(out, bytes):
            path.write_bytes(out)
        else:
            path.write_text(out)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
