"""Fixed reference work that times the machine, not phasequark.

The shared machine this benchmark was tuned on changes speed by up to
1.5x for seconds to minutes at a time, as other tenants load the cores it
runs on; a 30 s run can fall wholly in a slow or a fast stretch.  So every
op is timed next to the reference kernel, and its latency is reported in
units of the kernel's time, scaled by REF_MS back to milliseconds.  In the
same way each timed `import phasequark` alternates with a reference
import of stdlib modules, scaled by REF_IMPORT_S.

The kernel does the kinds of work the package spends its time on:
argparse, json, and small complex NumPy products, Kronecker products and
an eigensolver, so it slows by about as much as an op does.  The import
loads pure-Python and C-extension modules, as the package's import does.
Neither touches phasequark, so a change to the package cannot move them.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

import numpy as np

__all__ = ["REF_MS", "REF_IMPORT_S", "REFERENCE_IMPORTS", "kernel", "timed_kernel"]

# About what the kernel and the import took on the machine they were tuned
# on (Intel Xeon, 2 vCPUs, Python 3.11, NumPy 2.4).  Fixed constants: they
# only set the scale of the reported times.
REF_MS = 0.6
REF_IMPORT_S = 0.1

REFERENCE_IMPORTS = "argparse, asyncio, decimal, email.parser, fractions, json, unittest, xml.dom.minidom"

_SPEC = json.dumps({"kind": "ColorR", "m": 1.25, "p": [0.5, -1.0, 2.0], "x": [1.0, 0.0, -0.5],
                    "em": {"e": 0.5, "A0": -0.25, "Avec": [0.0, 1.0, 0.5]}})
_SIGMA = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]], dtype=complex))


def kernel() -> float:
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("path")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--angle", type=float, default=0.0)
    args = parser.parse_args(["spec.json", "--angle=0.25"])
    spec = json.loads(_SPEC)
    h = np.zeros((8, 8), dtype=complex)
    for i, value in enumerate((spec["m"], *spec["p"])):
        h += value * np.kron(np.kron(_SIGMA[i], _SIGMA[(i + 1) % 4]), _SIGMA[(i + 2) % 4])
    h = h + args.angle * h.conj().T
    eigenvalues = np.linalg.eigvalsh(h @ h.conj().T)
    text = json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in h.tolist()],
                       "eigenvalues": eigenvalues.tolist()})
    return len(text) + float(eigenvalues[-1])


def timed_kernel() -> float:
    """Seconds of one kernel call, with the cyclic collector held off."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()
