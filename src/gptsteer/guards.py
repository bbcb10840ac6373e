"""Size guards for the brute-force enumerations, and the two input rules
every entry point shares.

Every guard can be raised explicitly through the GPTSTEER_GUARDS environment
variable, e.g.

    GPTSTEER_GUARDS="dim=8,sign_vectors=16" gptsteer norm ...

Keys not listed below are rejected so typos fail loudly.

`is_integer` is the rule for counts (trials, samples, settings g, search
budget and outcome counts).  `real_numbers`, `real_number` and
`float_array` are the rule for every coordinate, weight, scale and LP
datum: the spaces are real ordered vector spaces, so bools, text, None and
complex numbers are rejected, though numpy would convert them (a complex
one with only a warning).
"""

import numbers
import os

import numpy as np

from .errors import GuardExceeded, InvalidInput

# Defaults are desk scale: the enumerations behind them are exponential.
DEFAULTS = {
    "dim": 6,            # effect / facet / vertex enumeration: d-subset search
    "vertices": 64,      # stored extreme points per system (dual description)
    "sign_vectors": 12,  # dichotomic settings g: steering-norm LP and ball
                         # witness check grow as 2^g, projective LP as 2^(g-1)
    "lhs_atoms": 4096,   # product of outcome counts in the LHS feasibility LP
    "symmetry_vertices": 16,   # ordered-tuple search over vertex images
    "cmu_dim": 5,        # sigma-interval enumeration behind the c_mu facet
                         # scan, the universal degree LP and the sigma_B
                         # degree test
    "exact_vars": 64,    # tableau columns allowed in exact-rational LP mode
}


def _parse_env():
    raw = os.environ.get("GPTSTEER_GUARDS", "")
    out = {}
    if not raw:
        return out
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise InvalidInput(f"GPTSTEER_GUARDS entry {piece!r} is not name=value")
        key, val = piece.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise InvalidInput(f"unknown guard {key!r} in GPTSTEER_GUARDS")
        try:
            out[key] = int(val)
        except ValueError as exc:
            raise InvalidInput(f"guard {key!r} value {val!r} is not an integer") from exc
    return out


def limit(name):
    """Current limit for a named guard (env override wins)."""
    if name not in DEFAULTS:
        raise InvalidInput(f"unknown guard {name!r}")
    return _parse_env().get(name, DEFAULTS[name])


def check(name, value):
    """Raise GuardExceeded when value exceeds the active limit for name."""
    lim = limit(name)
    if value > lim:
        raise GuardExceeded(
            f"{name}={value} exceeds guard {lim}; "
            f"set GPTSTEER_GUARDS=\"{name}={value}\" to allow"
        )


def is_integer(value):
    """Whether value is an integer count: Python and numpy integers pass,
    bools (an int subclass) and everything else fail."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_PLAIN_REALS = frozenset((float, int, np.float64))


def real_numbers(raw):
    """Whether every leaf of raw is a real number.  Lists, tuples and numpy
    arrays nest; anything else is a leaf, and bools, text, None, complex
    numbers and other containers (a range, a dict) are not real numbers,
    though numpy would convert some of them.  A level whose entries are all
    plain floats and ints is decided by one set of types."""
    if isinstance(raw, np.ndarray):
        if raw.dtype.kind != "O":
            return raw.dtype.kind in "iuf"
        raw = raw.ravel()
    elif not isinstance(raw, (list, tuple)):
        return type(raw) is not bool and isinstance(raw, numbers.Real)
    return set(map(type, raw)) <= _PLAIN_REALS or all(map(real_numbers, raw))


def real_number(raw):
    """Whether raw is one real number: `real_numbers` of rank 0, so a
    Python or numpy real or a 0-d array, not a list or a 1-element array."""
    if type(raw) is float or type(raw) is int:
        return True
    return (not isinstance(raw, (list, tuple)) and np.ndim(raw) == 0
            and real_numbers(raw))


def float_array(raw, message):
    """raw as a float array, or InvalidInput(message) when it is not real
    numbers (`real_numbers`) or its nesting is ragged.  A float array is
    returned as it is, unchecked."""
    if type(raw) is np.ndarray and raw.dtype == np.float64:
        return raw
    if real_numbers(raw):
        try:
            return np.asarray(raw, dtype=np.float64)
        except (ValueError, OverflowError):   # ragged, or past float range
            pass
    raise InvalidInput(message)
