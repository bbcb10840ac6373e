"""Re-record the benchmark's fixed answers from the current sources.

    python3 perfbench/record.py

Writes the `cli` fixture inputs (drawn from a fixed seed), their expected
stdout, and perfbench/reference.json: every answer of seed 0 for the whole
`order` and `steer` sequences and the first NORMS_RECORDED `norms` cases.
Run it only on a commit whose answers are trusted; the benchmark then
holds later commits to them.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import cli_workload, run  # noqa: E402

FIXTURE_SEED = 20220218
NORMS_RECORDED = 1024   # recorded prefix of the `norms` sequence


def _coords(v):
    return [float(x) for x in v.coords]


def _measure(m):
    from gptsteer import systems

    return {"system": systems.system_to_payload(m.system),
            "atoms": [{"weight": float(w), "point": _coords(p)}
                      for w, p in m.atoms]}


def _assemblage(asm):
    from gptsteer import systems

    return {"system": systems.system_to_payload(asm.system),
            "barycenter": _coords(asm.barycenter),
            "entries": [[_coords(rho) for rho in row] for row in asm.entries]}


def _bipartite(state):
    from gptsteer import systems

    return {"system_a": systems.system_to_payload(state.system_a),
            "system_b": systems.system_to_payload(state.system_b),
            "coeffs": state.coeffs.tolist()}


def fixtures():
    """Payloads of the cli inputs, by file name."""
    import numpy as np

    from gptsteer import bipartite, sampling, systems
    from perfbench import workloads

    rng = np.random.default_rng(FIXTURE_SEED)
    pent = systems.regular_polygon(5)
    t = sampling.random_steerable_leaning_tensor(rng, pent, g=2)
    sq = systems.hypercube(2)
    diag = workloads.diag_state()
    meas = bipartite.unsteerable_dichotomic(diag).measurements
    three = meas + (sampling.random_measurement(rng, sq, 2),)
    sigma = sampling.random_interior_state(rng, pent)
    mu = sampling.random_dilation(
        rng, sampling.random_measure_with_barycenter(rng, pent, sigma))
    nu = workloads.two_atom_split(rng, pent, sigma)
    return {
        "tensor.json": {"system": systems.system_to_payload(pent),
                        "sigma": _coords(t.sigma),
                        "components": [_coords(y) for y in t.components]},
        "asm_steerable.json": _assemblage(
            bipartite.conditional_assemblage(diag, meas)),
        "asm_three_settings.json": _assemblage(
            bipartite.conditional_assemblage(diag, three)),
        "nu.json": _measure(nu),
        "mu.json": _measure(mu),
        "state_diag.json": _bipartite(diag),
        "state_noisy.json": _bipartite(workloads.noisy(diag, 0.7)),
    }


def record_cli():
    inputs = ROOT / cli_workload.INPUTS
    expected = ROOT / cli_workload.EXPECTED
    inputs.mkdir(parents=True, exist_ok=True)
    expected.mkdir(parents=True, exist_ok=True)
    for name, payload in fixtures().items():
        (inputs / name).write_text(json.dumps(payload, indent=1) + "\n")
    for name, args in cli_workload.INVOCATIONS:
        code, out = cli_workload.run_child(ROOT, args)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        (expected / f"{name}.json").write_bytes(out)


def record_reference():
    from perfbench import cases as cs
    from perfbench import workloads

    reference = {}
    for name, count in (("norms", NORMS_RECORDED),
                        ("order", workloads.ORDER_GROUPS),
                        ("steer", workloads.STEER_BLOCKS)):
        sequence = workloads.BUILDERS[name](run.REFERENCE_SEED, count)
        tally = cs.Tally()
        answers = []
        for case in sequence:
            got = cs.answer_case(case, tally)
            cs.judge(case, got, tally)
            answers.append(got)
        if tally.failed:
            raise SystemExit(f"{name}: {tally.problems[:5]}")
        reference[name] = answers
        print(f"{name}: {len(answers)} cases, {tally.busy:.1f} s",
              file=sys.stderr)
    with open(ROOT / run.REFERENCE, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


def main():
    run.import_library()
    record_cli()
    record_reference()


if __name__ == "__main__":
    main()
