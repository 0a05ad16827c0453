"""Run a fixed list of CLI commands on one checkout, for byte comparison.

Usage: python tools/cli_matrix.py CHECKOUT OUTDIR

Each command runs as a fresh ``python -m drivenbath.cli`` process with
PYTHONPATH=CHECKOUT/src and OPENBLAS_NUM_THREADS=1, one at a time, in its
own directory OUTDIR/NAME.  That directory receives the files the
command writes (at their default names), its ``stdout``, its ``stderr``
and its ``exit`` code.  ``diff -r`` of the OUTDIRs of two checkouts is
then the byte comparison of their CLIs.

The list: ``verify --verbose`` and the README's five examples; ``wext``
and ``engine`` for each coupling; the single-spec error paths (``engine``
and ``wext`` for fermion at beta 5000, where the i-beta deficit fails
but the mean work does not, and ``engine`` at beta -1 and at p 0.3);
``wcf`` and ``wdf`` with and without ``--nonperturbative``; and all four
sweep quantities on p-axis plans and on row-layout plans, including
invalid p, alpha and beta, beta <= 0, gap 0 and beta into the
thousands, where some i-beta deficits fail.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

QUANTITIES = ("wext", "chi-i-beta", "delta-s", "figure-of-merit")

#: the README's CLI examples, without their --out
README = {
    "readme-wcf": "wcf --qubit none --alpha 5 --beta 1 --nonperturbative",
    "readme-wdf": "wdf --qubit spin --p 1.0 --omega 0.05",
    "readme-wext": "wext --qubit none --alpha 2 --beta 10",
    "readme-engine": "engine --qubit spin --p 0.9 --beta 1 --omega 0.05",
    "readme-sweep": "sweep --qubit spin --alpha 5 --omega 0.05 --sweep-x p "
                    "--x-range 0,1 --sweep-y beta --y-range 0.1,100 "
                    "--y-scale log --quantity wext",
}

#: single-spec commands on their error paths: engine exits 1 on the
#: failed deficit, wext 0; an invalid beta and the engine guard exit 2
SINGLE_ERRORS = {
    "engine-fermion-beta-5000": "engine --qubit fermion --p 0.9 "
                                "--beta 5000",
    "wext-fermion-beta-5000": "wext --qubit fermion --p 0.9 --beta 5000",
    "engine-spin-negative-beta": "engine --qubit spin --beta -1",
    "engine-spin-inverted": "engine --qubit spin --p 0.3",
}

#: sweep plans with a p axis, each run for every quantity
P_PLANS = {
    "p-beta": "--qubit spin --sweep-x p --x-range 0,1 --sweep-y beta "
              "--y-range 0.1,100 --y-scale log --nx 24 --ny 24",
    "p-beta-invalid-p": "--qubit spin --sweep-x p --x-range=-0.1,1 "
                        "--sweep-y beta --y-range 0.1,100 --y-scale log "
                        "--nx 128 --ny 16",
    "p-beta-one-invalid-p": "--qubit spin --sweep-x p --x-range=-0.001,1 "
                            "--sweep-y beta --y-range 0.1,100 "
                            "--y-scale log --nx 128 --ny 16",
    "beta-p-from-zero": "--qubit fermion --sweep-x beta --x-range 0,10 "
                        "--sweep-y p --y-range 0.5,1 --nx 16 --ny 16",
    "beta-p-one-beta-zero": "--qubit fermion --sweep-x beta --x-range 0,10 "
                            "--sweep-y p --y-range 0.55,1 --nx 128 --ny 16",
    "gap-p-from-zero": "--qubit spin --alpha 0.7 --sweep-x omega_gap "
                       "--x-range 0,0.5 --sweep-y p --y-range 0.55,0.95 "
                       "--nx 18 --ny 18",
    "gap-p-one-gap-zero": "--qubit spin --alpha 0.7 --sweep-x omega_gap "
                          "--x-range 0,0.5 --sweep-y p "
                          "--y-range 0.55,0.95 --nx 128 --ny 18",
    "alpha-p-invalid-alpha": "--qubit topological --omega 0.5 "
                             "--sweep-x alpha --x-range=-0.01,6 "
                             "--sweep-y p --y-range 0.05,0.95 "
                             "--nx 64 --ny 16",
    "alpha-p-one-invalid-alpha": "--qubit topological --omega 0.5 "
                                 "--sweep-x alpha --x-range 0.09,6 "
                                 "--sweep-y p --y-range 0.05,0.95 "
                                 "--nx 128 --ny 16",
    "p-beta-thousands": "--qubit spin --sweep-x p --x-range 0.5,1 "
                        "--sweep-y beta --y-range 100,20000 --y-scale log "
                        "--nx 16 --ny 24",
    "p-beta-lambda-50": "--qubit spin --lambda0 50 --sweep-x p "
                        "--x-range 0,1 --sweep-y beta --y-range 0.1,100 "
                        "--y-scale log --nx 16 --ny 16",
}

#: sweep plans without a p axis, each run for every quantity
ROW_PLANS = {
    "gap-beta-log": "--qubit fermion --p 0.9 --sweep-x omega_gap "
                    "--x-range 0.01,1 --x-scale log --sweep-y beta "
                    "--y-range 0.1,100 --y-scale log --nx 24 --ny 24",
    "gap-beta-from-zero": "--qubit fermion --p 0.9 --sweep-x omega_gap "
                          "--x-range 0,0.1 --sweep-y beta --y-range 0,10 "
                          "--nx 16 --ny 16",
    "gap-beta-negative-to-thousands": "--qubit spin --p 0.9 "
                                      "--sweep-x omega_gap "
                                      "--x-range 0.01,0.1 --sweep-y beta "
                                      "--y-range=-2000,500000 "
                                      "--nx 16 --ny 128",
    "gap-beta-one-negative-gap": "--qubit spin --p 0.9 --sweep-x omega_gap "
                                 "--x-range=-0.001,0.2 --sweep-y beta "
                                 "--y-range 0.1,10 --nx 256 --ny 16",
    "beta-alpha-invalid-alpha": "--qubit fermion --p 0.9 --omega 0.05 "
                                "--sweep-x beta --x-range 0.1,100 "
                                "--x-scale log --sweep-y alpha "
                                "--y-range=-0.01,5 --nx 16 --ny 64",
    "beta-alpha-one-invalid-alpha": "--qubit fermion --p 0.9 --omega 0.05 "
                                    "--sweep-x beta --x-range 0.1,100 "
                                    "--x-scale log --sweep-y alpha "
                                    "--y-range 0.09,5 --nx 16 --ny 128",
    "alpha-beta": "--qubit spin --p 0.9 --sweep-x alpha --x-range 0.3,5 "
                  "--sweep-y beta --y-range 0.1,100 --y-scale log "
                  "--nx 16 --ny 16",
}


def commands() -> dict:
    """Every command of the matrix, keyed by its directory name."""
    runs = {"verify": "verify --verbose", **README}
    for coupling in ("none", "spin", "fermion", "topological"):
        runs[f"wext-{coupling}"] = f"wext --qubit {coupling} --alpha 2.5 " \
                                   "--p 0.9"
        runs[f"engine-{coupling}"] = f"engine --qubit {coupling} --p 0.9"
    runs.update(SINGLE_ERRORS)
    for command in ("wcf", "wdf"):
        runs[command] = command
        runs[f"{command}-nonperturbative"] = f"{command} --nonperturbative"
    for name, plan in {**P_PLANS, **ROW_PLANS}.items():
        for quantity in QUANTITIES:
            runs[f"sweep-{name}-{quantity}"] = \
                f"sweep {plan} --quantity {quantity}"
    return {name: args.split() for name, args in runs.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout, outdir = Path(argv[0]).resolve(), Path(argv[1])
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    for name, args in commands().items():
        cwd = outdir / name
        cwd.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, "-m", "drivenbath.cli", *args], cwd=cwd,
            env=env, capture_output=True)
        (cwd / "stdout").write_bytes(done.stdout)
        (cwd / "stderr").write_bytes(done.stderr)
        (cwd / "exit").write_text(f"{done.returncode}\n")
        print(f"{done.returncode} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
