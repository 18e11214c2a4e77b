"""Write perfbench/reference.json: the output digest of every workload at the
reference seed. Run it only when outputs change on purpose, and say so.

    python3 perfbench/make_reference.py
"""

import json

import run  # caps BLAS threads before numpy loads
import workloads


def main():
    lib = run.load_library()
    ref = {"seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(lib, workloads.REFERENCE_SEED)
        out = wl.run()
        problems = wl.check(out)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        ref["workloads"][name] = workloads.digest(out)
        print(f"{name}: {len(out)} outputs")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
