"""Regenerate tests/shot_table.json: BVP shots frozen bit for bit, so a
drift in the last bits of the Airy kernel or of flow's shot arithmetic
fails a test even where the other tests share that code.  Each row is one
shot of flow.shooter(params, u10) at c, with float.hex of u1(L), the
Pruefer angle A, dA/dc and the constants' fields (a, b, c, c1, c2, zeta0).

The rows: DRAWS random_flow_case draws, each shot at N_C values of c
spread over its default bracket, plus the cases in EXTRA: t(0) in the
t > 9 scaled tail, t(L) in the t < -9 tail, and the pole band at L.  Run
from the repository root:

    PYTHONPATH=src python tests/make_shot_table.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from airyflow.airy import airy_eval
from airyflow.bvp import default_c_bracket
from airyflow.flow import FlowParams, exact_u1, shooter
from airyflow.verify import random_flow_case

SEED = 20261019
DRAWS = 20
N_C = 12
README = (1.0, -2.0, 0.0, 1.0)  # nu, grad_term, f1, length; t(0) = -c/2, t(L) = 1 - c/2


def _band_u10() -> float:
    # z = Bi(1) Ai - Ai(1) Bi vanishes at t(L) = 1 on README at c = 0: u10 is its u1(0)
    q0, q1 = airy_eval(0.0), airy_eval(1.0)
    return -2.0 * (q1.bi * q0.ai_prime - q1.ai * q0.bi_prime) / (q1.bi * q0.ai - q1.ai * q0.bi)


def _extra() -> list[tuple[tuple, float, float]]:
    """(params, u10, c) past |t| = 9 at one end, and at the pole band."""
    tails = [(README, u10, c) for u10 in (0.0, 0.7) for c in (-30.0, -1e3, -1e9, 30.0, 1e3)]
    wide = (0.3, -5.0, 1.0, 2.5)  # t(0) = -c/1.87, t(L) = t(0) + 8.05: one end past |t| = 9
    tails += [(wide, -0.4, c) for c in (-12.0, -5.0, -2.0, 17.0)]
    return tails + [(README, _band_u10(), 0.0)]


def rows() -> list[dict]:
    rng = random.Random(SEED)
    cases = []
    for _ in range(DRAWS):
        params, data, consts = random_flow_case(rng)
        lo, hi = default_c_bracket(data.u10, exact_u1(params.length, params, consts), params.nu)
        p = (params.nu, params.grad_term, params.f1, params.length)
        cases += [(p, data.u10, lo + (hi - lo) * i / (N_C - 1)) for i in range(N_C)]
    out = []
    for p, u10, c in cases + _extra():
        u1, angle, slope, fields, _ = shooter(FlowParams(*p), u10)(c)
        out.append({"params": [x.hex() for x in p], "u10": u10.hex(), "c": c.hex(),
                    "shot": [x.hex() for x in (u1, angle, slope)],
                    "fields": [x.hex() for x in fields]})
    return out


def main() -> None:
    table = rows()
    out = Path(__file__).parent / "shot_table.json"
    out.write_text(json.dumps({"seed": SEED, "shots": table}, indent=1) + "\n")
    print(f"wrote {out} ({len(table)} shots)")


if __name__ == "__main__":
    main()
