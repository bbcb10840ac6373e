"""Command-line front end: JSON in, JSON verdicts with certificates out.

Every verb maps onto one library operation.  Exit codes: 0 computed,
1 invalid input (the first violated invariant is named on stderr),
2 guard exceeded, 3 numerical failure.  Output is deterministic for a
fixed command line and seed: keys are sorted and all randomness flows
through the --seed option.  The selftest verb prints its human report on
stderr and the JSON summary on stdout, so piping stays clean.

Each verb runs in its own process, so each loads only the modules it
runs: `systems` is imported here, and the loaders and handlers import
tensors, steering, choquet, bipartite or selftest where they use them
(and look functions up on the module, so patching one takes effect).

File schemas, shared with the library loaders:
  system     {"kind", "dim", "vertices" | "ball_norm", "unit"}
  tensor     {"system", "sigma", "components"}
  assemblage {"system", "barycenter", "entries": [[vector, ...], ...]}
  measure    {"system", "atoms": [{"weight", "point"}, ...]}
  bipartite  {"system_a", "system_b", "coeffs"}
"""

import argparse
import json
import sys

import numpy as np

from . import __version__, guards, systems
from .errors import GuardExceeded, InvalidInput, NumericalFailure
from .tolerances import CERTIFICATE, LP_FEASIBILITY, LP_GAP

TOLERANCES = {"lp_feasibility": LP_FEASIBILITY, "lp_gap": LP_GAP,
              "certificate": CERTIFICATE}


# ---------------------------------------------------------------------------
# payload loading


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def _expect(obj, keys, what):
    if not isinstance(obj, dict):
        raise InvalidInput(f"{what} payload must be a JSON object")
    for key in keys:
        if key not in obj:
            raise InvalidInput(f"{what} payload is missing '{key}'")
    return obj


def _vector(system, raw, what):
    arr = systems.payload_floats(raw, what)
    if arr.ndim != 1 or arr.shape[0] != system.dim:
        raise InvalidInput(f"{what} must be a vector of length {system.dim}")
    return system.vector(arr)


def load_tensor(path):
    from . import tensors

    obj = _expect(_load_json(path), ("system", "sigma", "components"),
                  "tensor")
    system = systems.system_from_payload(obj["system"])
    comps = obj["components"]
    if not isinstance(comps, list) or not comps:
        raise InvalidInput("tensor payload needs a nonempty component list")
    return tensors.DichotomicTensor(
        sigma=_vector(system, obj["sigma"], "sigma"),
        components=tuple(
            _vector(system, c, f"component {x}")
            for x, c in enumerate(comps)))


def load_assemblage(path):
    from . import steering

    obj = _expect(_load_json(path), ("system", "barycenter", "entries"),
                  "assemblage")
    system = systems.system_from_payload(obj["system"])
    rows = obj["entries"]
    if not isinstance(rows, list) or not rows:
        raise InvalidInput("assemblage payload needs a nonempty entry list")
    for x, row in enumerate(rows):
        if not isinstance(row, list):
            raise InvalidInput(f"entry row {x} must be a list of vectors")
    entries = tuple(
        tuple(_vector(system, rho, f"entry ({a}|{x})")
              for a, rho in enumerate(row))
        for x, row in enumerate(rows))
    return steering.Assemblage(
        barycenter=_vector(system, obj["barycenter"], "barycenter"),
        entries=entries)


def load_measure(path):
    from . import choquet

    obj = _expect(_load_json(path), ("system", "atoms"), "measure")
    system = systems.system_from_payload(obj["system"])
    raw = obj["atoms"]
    if not isinstance(raw, list) or not raw:
        raise InvalidInput("measure payload needs a nonempty atom list")
    atoms = []
    for j, atom in enumerate(raw):
        _expect(atom, ("weight", "point"), f"atom {j}")
        weight = atom["weight"]
        if not guards.real_number(weight):
            raise InvalidInput(f"atom {j} weight must be a number")
        atoms.append((float(weight),
                      _vector(system, atom["point"], f"atom {j} point")))
    return choquet.SimpleMeasure(tuple(atoms))


def load_bipartite(path):
    from . import bipartite, tensors

    obj = _expect(_load_json(path), ("system_a", "system_b", "coeffs"),
                  "bipartite state")
    sys_a = systems.system_from_payload(obj["system_a"])
    sys_b = systems.system_from_payload(obj["system_b"])
    coeffs = systems.payload_floats(obj["coeffs"], "coeffs")
    if coeffs.ndim != 2 or coeffs.shape != (sys_a.dim, sys_b.dim):
        raise InvalidInput(
            f"coeffs must be a {sys_a.dim} x {sys_b.dim} matrix")
    return bipartite.BipartiteState(tensors.TensorElement(
        system_a=sys_a, system_b=sys_b, coeffs=coeffs))


# ---------------------------------------------------------------------------
# payload emission


def _coords(v):
    return [float(x) for x in v.coords]


def _witness_payload(witness):
    return {
        "components": [_coords(w) for w in witness.components],
        "base": None if witness.base is None else _coords(witness.base),
        "normalized": bool(witness.normalized),
    }


def _model_payload(model):
    return {
        "weights": [float(w) for w in model.weights],
        "states": [_coords(rho) for rho in model.states],
        "responses": [[r.tolist() for r in row] for row in model.responses],
    }


def _measure_payload(measure, system):
    return {
        "system": systems.system_to_payload(system),
        "atoms": [{"weight": float(w), "point": _coords(p)}
                  for w, p in measure.atoms],
    }


def _measurements_payload(measurements):
    return [[_coords(f) for f in m.effects] for m in measurements]


# ---------------------------------------------------------------------------
# verb handlers


def _run_norm(args):
    from . import tensors

    t = load_tensor(args.file)
    if args.kind == "injective":
        return {"kind": args.kind,
                "value": float(tensors.injective_norm_dichotomic(t))}
    if args.kind == "projective":
        return {"kind": args.kind,
                "value": float(tensors.projective_norm_dichotomic(t))}
    result = tensors.steering_norm(t)
    return {"kind": args.kind, "value": float(result.value),
            "witness": _witness_payload(result.witness)}


def _run_lhs(args):
    from . import steering

    asm = load_assemblage(args.file)
    verdict = steering.lhs_check(asm)
    out = {"verdict": "classical" if verdict.classical else "steerable",
           "robustness": float(steering.robustness(asm))}
    if verdict.classical:
        out["model"] = _model_payload(verdict.model)
    else:
        out["violation"] = float(verdict.violation)
        if verdict.witness is not None:
            out["witness"] = _witness_payload(verdict.witness)
        else:
            out["functionals"] = [_coords(g) for g in verdict.functionals]
    return out


def _run_robustness(args):
    from . import steering

    asm = load_assemblage(args.file)
    return {"robustness": float(steering.robustness(asm))}


def _run_witness(args):
    from . import steering

    asm = load_assemblage(args.file)
    witness = steering.optimal_witness(asm)
    return {"witness": _witness_payload(witness),
            "detection_value": float(witness.detection_value(asm))}


def _run_choquet(args):
    from . import choquet

    nu = load_measure(args.nu)
    mu = load_measure(args.mu)
    verdict = choquet.choquet_below(nu, mu)
    out = {"below": bool(verdict.below)}
    if verdict.below:
        out["responses"] = np.asarray(
            verdict.responses, dtype=np.float64).tolist()
    else:
        out["functionals"] = [_coords(g) for g in verdict.functionals]
        out["violation"] = float(verdict.violation)
    return out


def _run_cmu(args):
    from . import choquet

    mu = load_measure(args.mu)
    system = mu.barycenter.system
    value = choquet.c_mu(system, mu.barycenter, mu)
    return {"value": float(value), "sigma": _coords(mu.barycenter)}


def _run_mc_cmu(args):
    from . import choquet

    est = choquet.c_mu_monte_carlo(
        system=systems.ball(args.dim), samples=args.samples, seed=args.seed)
    return {"value": float(est.value), "stderr": float(est.stderr),
            "reference": float(est.reference), "samples": int(est.samples)}


def _run_unsteerable(args):
    from . import bipartite

    state = load_bipartite(args.file)
    if args.sufficient is not None:
        holds = bipartite.unsteerable_sufficient(state, args.sufficient)
        return {"test": "sufficient", "s_lower": float(args.sufficient),
                "unsteerable": bool(holds)}
    verdict = bipartite.unsteerable_dichotomic(state)
    out = {"test": "dichotomic", "unsteerable": bool(verdict.unsteerable)}
    if verdict.unsteerable:
        out["model"] = _measure_payload(verdict.model, state.system_b)
    else:
        out["functionals"] = [_coords(h) for h in verdict.functionals]
        out["measurements"] = _measurements_payload(verdict.measurements)
    return out


def _run_search(args):
    from . import bipartite

    state = load_bipartite(args.file)
    try:
        shapes = tuple(int(s) for s in args.shapes.split(","))
    except ValueError as exc:
        raise InvalidInput("shapes must be comma-separated integers") from exc
    result = bipartite.steerability_search(
        state, shapes=shapes, budget=args.budget, seed=args.seed)
    out = {"found": bool(result.found), "tried": int(result.tried)}
    if result.found:
        out["measurements"] = _measurements_payload(result.measurements)
    return out


def _run_selftest(args):
    from . import selftest

    overrides = {}
    for entry in args.override or ():
        name, eq, value = entry.partition("=")
        if not eq:
            raise InvalidInput("overrides take the form name=value")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise InvalidInput(
                f"override value for {name} is not a number") from exc
    items = selftest.run(quick=args.quick, seed=args.seed,
                         tol_overrides=overrides or None)
    for item in items:
        print(selftest.format_line(item), file=sys.stderr)
    return {
        "all_passed": all(item.passed for item in items),
        "quick": bool(args.quick),
        "items": [{"name": item.name, "passed": item.passed,
                   "measured": item.measured} for item in items],
    }


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gptsteer",
        description="steering certificates for general probabilistic "
                    "theories")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, seeded=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="FILE",
                       help="write the JSON verdict here instead of stdout")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = verb("norm", _run_norm, help="tensor norm of a dichotomic family")
    p.add_argument("file", help="tensor JSON file")
    p.add_argument("--kind", choices=("injective", "steering", "projective"),
                   default="steering")

    p = verb("lhs", _run_lhs, help="hidden-state model or steering witness")
    p.add_argument("file", help="assemblage JSON file")

    p = verb("robustness", _run_robustness,
             help="steering robustness of an assemblage")
    p.add_argument("file", help="assemblage JSON file")

    p = verb("witness", _run_witness,
             help="optimal witness of a two-outcome assemblage")
    p.add_argument("file", help="assemblage JSON file")

    p = verb("choquet", _run_choquet, help="Choquet order decision")
    p.add_argument("nu", help="candidate lower measure JSON file")
    p.add_argument("mu", help="candidate upper measure JSON file")

    p = verb("cmu", _run_cmu,
             help="variational constant of a measure at its barycenter")
    p.add_argument("mu", help="measure JSON file")

    p = verb("mc-cmu", _run_mc_cmu, seeded=True,
             help="Monte Carlo constant of the l2 ball")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--samples", type=int, default=100000)

    p = verb("unsteerable", _run_unsteerable,
             help="dichotomic unsteerability certificate")
    p.add_argument("file", help="bipartite state JSON file")
    p.add_argument("--sufficient", type=float, metavar="S_LOWER",
                   help="run the one-sided degree test instead of the LP")

    p = verb("search", _run_search, seeded=True,
             help="falsification search over measurement families")
    p.add_argument("file", help="bipartite state JSON file")
    p.add_argument("--shapes", default="2,2",
                   help="comma-separated outcome counts (default 2,2)")
    p.add_argument("--budget", type=int, default=50)

    p = verb("selftest", _run_selftest, seeded=True,
             help="run the acceptance battery")
    p.add_argument("--quick", action="store_true",
                   help="scaled-down battery for a fast signal")
    p.add_argument("--override", action="append", metavar="NAME=TOL",
                   help="replace one item's tolerance (repeatable)")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for guards here
        return 0 if exc.code == 0 else 1
    try:
        fields = args.handler(args)
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    payload = {"verb": args.verb, "version": __version__,
               "seed": getattr(args, "seed", None),
               "tolerances": TOLERANCES}
    payload.update(fields)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"invalid input: cannot write {args.out}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
