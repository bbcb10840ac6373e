"""Size guards for the brute-force enumerations, the three input rules
every entry point shares, and one allocation rule.

Every guard can be raised explicitly through the GPTSTEER_GUARDS environment
variable, e.g.

    GPTSTEER_GUARDS="dim=8,sign_vectors=16" gptsteer norm ...

Keys not listed below are rejected so typos fail loudly.

The three input rules:
- counts (trials, samples, seeds, settings g, search budget and outcome
  counts): `is_integer` and `count` take Python and numpy integers that
  fit an index;
- reals: `real_numbers`, `real_number`, `float_array` and `real_float`
  decide every coordinate, weight, scale and LP datum.  The spaces are
  real ordered vector spaces, so bools, text, None, complex numbers and
  numbers past float range are rejected, though numpy would convert the
  first four (a complex one with only a warning);
- the public boundary: `expect` checks a typed argument's class and
  system, and `items` turns a collection into a nonempty tuple.  Every
  public name calls them at entry, so a wrong type, a foreign system or a
  non-iterable collection is InvalidInput (SystemMismatch for the system)
  and only GptSteerError subclasses escape.

The allocation rule: a count can fit an index and still not fit memory,
so every array sized by a caller's count is allocated under `allocation`,
which turns numpy's ValueError (past its size limit) or MemoryError into
InvalidInput naming the count.
"""

import contextlib
import numbers
import os
import sys

import numpy as np

from .errors import GuardExceeded, InvalidInput, SystemMismatch

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
    """Whether value is an integer count: Python and numpy integers that
    fit an index pass; bools (an int subclass), integers past sys.maxsize
    (numpy cannot allocate them and a loop over them never ends) and
    everything else fail."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and -sys.maxsize - 1 <= value <= sys.maxsize)


def count(value, least, message):
    """value, once it is an integer count (`is_integer`) of at least
    `least`; InvalidInput(message) otherwise."""
    if not is_integer(value) or value < least:
        raise InvalidInput(message)
    return value


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


def real_float(raw, message):
    """raw as a float, or InvalidInput(message) unless it is one real
    number (`real_number`) within float range: `float_array`'s rule for a
    single number."""
    if real_number(raw):
        try:
            return float(raw)
        except OverflowError:   # past float range
            pass
    raise InvalidInput(message)


@contextlib.contextmanager
def allocation(what):
    """Run the allocations in the block; numpy's ValueError ("array is too
    big") or MemoryError becomes InvalidInput "no memory for <what>"."""
    try:
        yield
    except (ValueError, MemoryError):
        raise InvalidInput(f"no memory for {what}") from None


_ANY_SYSTEM = object()


def expect(x, cls, system=_ANY_SYSTEM, name=None):
    """x, once it is a `cls` tagged with `system` (when one is passed, even
    None: a caller's system argument is checked as given).

    Raises InvalidInput "expected a <cls>" when it is no cls, and
    SystemMismatch "<cls> tagged with a different system" when its system
    differs; with a name, "<name> must be a <cls>" and "<name> lives on
    another system"."""
    if not isinstance(x, cls):
        raise InvalidInput(f"{name} must be a {cls.__name__}" if name
                           else f"expected a {cls.__name__}")
    if system is not _ANY_SYSTEM and x.system != system:
        raise SystemMismatch(f"{name} lives on another system" if name else
                             f"{cls.__name__.lower()} tagged with a "
                             "different system")
    return x


def items(raw, message):
    """raw as a nonempty tuple, or InvalidInput(message) when it is not
    iterable (a number, None) or holds nothing."""
    try:
        out = tuple(raw)
    except TypeError:
        raise InvalidInput(message) from None
    if not out:
        raise InvalidInput(message)
    return out
