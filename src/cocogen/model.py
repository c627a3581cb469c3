"""Domain types for one stage game: organizations, market, economy, bounds.

Everything is an immutable dataclass. A scenario holds each organization
parameter as a read-only column. A ``Scenario`` checks every invariant when
it is built, its market, economy and bounds included, and raises
:class:`ScenarioValidationError` with the full list of violations, so a
config file can be diagnosed in one pass. So every scenario that exists is
valid, and so is every copy (``dataclasses.replace``, unpickling).

Scenario files, and the sweep files of :mod:`cocogen.scenario`, are read by
one table-driven reader (:func:`_fields`, :func:`_block`, :func:`_array`):
each JSON object is a spec table of its keys' parsers and defaults, read in
table order, so the first fault of a file is the one reported.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    CocogenError,
    DimensionMismatch,
    InvariantViolation,
    NonNegativeZWeight,
    ScenarioValidationError,
    UnwritableOutput,
)

__all__ = [
    "ScalingLaw",
    "Market",
    "EconomyParams",
    "Eps0Mode",
    "PayoffMode",
    "StrategyBounds",
    "Scenario",
    "StrategyProfile",
    "check_seed",
    "scenario_to_dict",
    "scenario_from_dict",
    "load_scenario",
    "save_scenario",
    "json_text",
    "DEFAULT_ETA",
    "DEFAULT_MU",
    "DEFAULT_C_CMP",
    "DEFAULT_C0",
]

# Cycles per sample are not published; cost magnitude is therefore a pure
# calibration choice (see README, "Cost calibration").
DEFAULT_ETA = 1.0e4
DEFAULT_MU = 1.0e4
# 0.3438 currency per kWh converted to currency per joule.
DEFAULT_C_CMP = 0.3438 / 3.6e6
DEFAULT_C0 = 0.0


def _readonly(a) -> np.ndarray:
    """A read-only float64 copy of ``a``; one that already is (and owns its
    data) is kept."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.owndata:
        if not a.flags.writeable:
            return a
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _frozen(a) -> np.ndarray:
    """``_readonly(a)`` without its copy when ``a`` is a float64 array that
    owns its data: for a fresh result that no one else holds."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.owndata:
        a.setflags(write=False)
    return _readonly(a)


def _check_number(out: list, where: str, value, ok: Callable, detail: str) -> None:
    """Record a violation of ``where`` if the number, or any entry of the
    array, is NaN or infinite, or else if ``ok(value)`` is false."""
    if isinstance(value, np.ndarray):
        finite = bool(np.isfinite(value).all())
    else:
        finite = math.isfinite(value)
    if not finite:
        out.append(InvariantViolation(where, "must be finite"))
    elif not ok(value):
        out.append(InvariantViolation(where, detail))


def _positive(v) -> bool:
    return v > 0


def _non_negative(v) -> bool:
    return v >= 0


@dataclass(frozen=True)
class ScalingLaw:
    """Inverse power law mapping total training data to local model error."""

    alpha: float
    beta: float
    delta: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise InvariantViolation("alpha", f"must be > 0, got {self.alpha!r}")
        if not (self.beta > 0):
            raise InvariantViolation("beta", f"must be > 0, got {self.beta!r}")
        if not (self.delta >= 0):
            raise InvariantViolation("delta", f"must be >= 0, got {self.delta!r}")


@dataclass(frozen=True, eq=False)
class Market:
    """Pairwise competitive intensities plus the transfer rate parameters."""

    gamma: np.ndarray
    xi: float
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _readonly(self.gamma))
        object.__setattr__(self, "phi", _readonly(self.phi))

    def _violations(self, n_orgs: int) -> list[CocogenError]:
        out: list[CocogenError] = []
        g = self.gamma
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            out.append(DimensionMismatch(f"gamma must be square, got shape {g.shape}"))
            return out
        if g.shape[0] != n_orgs:
            out.append(
                DimensionMismatch(
                    f"gamma is {g.shape[0]}x{g.shape[1]} but there are {n_orgs} organizations"
                )
            )
        if self.phi.ndim != 1 or self.phi.shape[0] != g.shape[0]:
            out.append(
                DimensionMismatch(
                    f"phi has shape {self.phi.shape}, expected ({g.shape[0]},)"
                )
            )
            return out
        _check_number(
            out, "market.gamma", g, lambda v: ((v >= 0) & (v <= 1)).all(),
            "entries must lie in [0, 1]",
        )
        if g.diagonal().any():
            out.append(InvariantViolation("market.gamma", "diagonal must be zero"))
        n_before = len(out)
        _check_number(out, "market.xi", self.xi, _non_negative, "must be >= 0")
        _check_number(out, "market.phi", self.phi, lambda v: (v > 0).all(), "entries must be > 0")
        if len(out) == n_before and self.xi > float(self.phi.min()):
            out.append(
                InvariantViolation(
                    "market.xi", "must not exceed min(phi) (cooperation stability)"
                )
            )
        return out


class Eps0Mode(str, Enum):
    """How the pre-training global error is obtained."""

    AT_ZERO_GENERATION = "at_zero_generation"
    FIXED = "fixed"


class PayoffMode(str, Enum):
    """Payoff-transfer convention: the printed formula, or a balanced variant."""

    LITERAL = "literal"
    ANTISYMMETRIC = "antisymmetric"


@dataclass(frozen=True)
class EconomyParams:
    varrho: float = 20.0
    c0: float = DEFAULT_C0
    eps0_mode: Eps0Mode = Eps0Mode.AT_ZERO_GENERATION
    eps0_value: float | None = None
    bb_mode: PayoffMode = PayoffMode.LITERAL

    def _violations(self) -> list[CocogenError]:
        out: list[CocogenError] = []
        _check_number(out, "economy.varrho", self.varrho, _positive, "must be > 0")
        _check_number(out, "economy.c0", self.c0, _non_negative, "must be >= 0")
        v = self.eps0_value
        if v is not None and not math.isfinite(v):
            out.append(InvariantViolation("economy.eps0_value", "must be finite"))
        elif self.eps0_mode is Eps0Mode.FIXED and (v is None or not (0 < v <= 1)):
            out.append(InvariantViolation("economy.eps0_value", "must lie in (0, 1]"))
        return out


@dataclass(frozen=True)
class StrategyBounds:
    d_min: int = 0
    d_max: int = 3000

    def _violations(self) -> list[CocogenError]:
        out: list[CocogenError] = []
        if self.d_min < 0:
            out.append(InvariantViolation("bounds.d_min", "must be >= 0"))
        if self.d_max < self.d_min:
            out.append(InvariantViolation("bounds.d_max", "must be >= d_min"))
        elif self.d_max >= 2**63:
            out.append(
                InvariantViolation("bounds.d_max", "must be below 2**63 (RaDG draws int64 volumes)")
            )
        return out


# A scenario's per-organization parameter columns, in the order their
# violations are reported, with each one's name under ``organizations[i]``.
ORG_COLUMNS = ("d_loc", "f", "kappa", "eta", "mu", "c_cmp", "psi", "alpha", "beta", "delta")
# Whether each column must be > 0 (else >= 0), and the least value it allows.
_STRICT = np.array([[name not in ("d_loc", "psi", "delta")] for name in ORG_COLUMNS])
_LEAST = np.where(_STRICT, np.nextafter(0.0, 1.0), 0.0)
# Validation codes one column can earn, 0 meaning none; the last field is the
# zero-total-data check, appended to the columns.
_FIELDS = [f"law.{c}" if c in ("alpha", "beta", "delta") else c for c in ORG_COLUMNS] + ["d_loc"]
_RANGE_CODE = np.where(_STRICT, 2, 3)
_DETAILS = (
    None, "must be finite", "must be > 0", "must be >= 0",
    "must be > 0 when bounds.d_min is 0 (zero total training data)",
)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete game instance. Immutable; safe to share across workers.
    Built only if valid: construction raises :class:`ScenarioValidationError`
    with every invariant violation.

    Each organization parameter is a read-only float column with one entry
    per organization; ``alpha``, ``beta`` and ``delta`` are the error laws.
    """

    d_loc: np.ndarray
    f: np.ndarray
    kappa: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    c_cmp: np.ndarray
    psi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    market: Market
    economy: EconomyParams
    bounds: StrategyBounds
    seed: int = 0

    def __post_init__(self):
        for name in ORG_COLUMNS:
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        shape = self.d_loc.shape
        if len(shape) != 1 or any(getattr(self, name).shape != shape for name in ORG_COLUMNS):
            raise DimensionMismatch("organization columns must be 1-d and of one length")
        violations = _violations(self)
        if violations:
            raise ScenarioValidationError(violations)

    @property
    def n(self) -> int:
        return self.d_loc.shape[0]

    def cached(self, key: str, build: Callable[[], object]) -> np.ndarray:
        """Read-only float array derived from this scenario, built on first use.

        ``build``'s fresh result is frozen in place. The cache lives on the
        instance: copies made with ``dataclasses.replace`` or the constructor
        start empty, and pickling drops it (see ``__getstate__``), so no copy
        sees another's arrays.
        """
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = _frozen(build())
        return cache[key]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_cache", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """Real-relaxed generated-data volumes, one entry per organization."""

    d_gen: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d_gen", _readonly(np.atleast_1d(self.d_gen)))


ProfileLike = Union[StrategyProfile, np.ndarray, Sequence[float]]


def as_dgen(profile: ProfileLike, n_orgs: int) -> np.ndarray:
    """Coerce a profile-like object to a float64 vector; check its length."""
    d = profile.d_gen if isinstance(profile, StrategyProfile) else profile
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1:
        raise DimensionMismatch(f"profile must be 1-d, got shape {d.shape}")
    if d.shape[0] != n_orgs:
        raise DimensionMismatch(f"profile has length {d.shape[0]}, expected {n_orgs}")
    return d


def _org_violations(s: Scenario) -> list[CocogenError]:
    """Every organization's violations, organization by organization, each
    in ``ORG_COLUMNS`` order and then the zero-total-data check."""
    values = np.array([getattr(s, name) for name in ORG_COLUMNS])  # (column, organization)
    codes = np.where(np.isfinite(values), (values < _LEAST) * _RANGE_CODE, 1)
    zero_total = (s.d_loc == 0) & (s.bounds.d_min == 0)
    if not (codes.any() or zero_total.any()):
        return []
    codes = np.vstack([codes, 4 * zero_total]).T
    return [
        InvariantViolation(f"organizations[{i}].{_FIELDS[j]}", _DETAILS[codes[i, j]])
        for i, j in zip(*np.nonzero(codes))  # row-major: organization by organization
    ]


def _weight_violations(z: np.ndarray) -> list[CocogenError]:
    """One violation per organization whose game weight in ``z`` is not
    negative."""
    bad = z >= 0
    if not bad.any():
        return []
    return [NonNegativeZWeight(int(n), float(z[n])) for n in np.flatnonzero(bad)]


def check_seed(value: int, field: str) -> None:
    """Refuse a seed that does not fit in 64 unsigned bits, the width of the
    generator key it becomes."""
    if not 0 <= value < 2**64:
        raise InvariantViolation(field, "must fit in 64 unsigned bits")


# The field named when welfare can overflow, by its largest term's sum: the
# revenues, the losses (which bound the payments), the costs, the server fees.
_TERM_FIELDS = ("organizations[*].psi", "market.phi", "organizations[*]", "economy.c0")


def _violations(s: Scenario) -> list[CocogenError]:
    """Every invariant violation of the scenario being built, in report
    order; an empty list means that it is valid."""
    if s.n < 1:
        return [InvariantViolation("organizations", "need at least one")]
    violations = _org_violations(s)
    violations.extend(s.market._violations(s.n))
    violations.extend(s.economy._violations())
    violations.extend(s.bounds._violations())

    try:
        check_seed(s.seed, "seed")
    except InvariantViolation as exc:
        violations.append(exc)

    if not violations:
        # Only meaningful once the market shape checks passed.
        from .economics import _ceiling_errors, _column_sums, _contribution_factors, _costs
        from .economics import _floor_error, _transfer_rates, epsilon_zero
        from .game import z_weights

        # Welfare adds, one organization at a time, each one's revenue
        # psi_n (eps0 - err), payment in, loss Phi_n (err - counterfactual),
        # cost and server fee. The all-d_min profile has the largest global
        # and counterfactual errors in the box, and the all-d_max profile
        # the largest costs, so each revenue, payment and loss is at most
        # its rate times ``span`` in size (under antisymmetric payoffs a
        # payment's two parts have opposite signs), and the first row
        # bounds every partial sum of welfare and of each of its terms. The
        # other rows bound the terms but the payments (G_n <= Phi_n, since
        # xi <= min(phi)); the largest of their sums names the field. Each
        # contribution gap is ``-err f_n``, and the factor f_n >= 0 is
        # largest at d_max, so its product with the all-d_min error bounds
        # every gap; it is finite only if that error is. Overflows, and the
        # NaNs that inf - inf and 0 * inf give, are refused below without
        # numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            z = z_weights(s)
            worst = float(_floor_error(s))
            ceiling = _costs(s, float(s.bounds.d_max))
            span = max(worst, epsilon_zero(s))
            gains, losses = _transfer_rates(s)
            c0 = s.economy.c0
            welfare_bound, *term_bounds = _column_sums(np.array([
                (s.psi + gains + losses) * span + (ceiling + c0),
                s.psi * span, losses * span, ceiling, np.full(s.n, c0),
            ]))
            gap_bound = _contribution_factors(s, _ceiling_errors(s)) * worst
        violations.extend(_weight_violations(z))
        n_bounded = len(violations)
        violations.extend(
            InvariantViolation(f"organizations[{n}]", "generation cost at bounds.d_max overflows")
            for n in np.flatnonzero(~np.isfinite(ceiling))
        )
        if not np.isfinite(gap_bound).all():
            violations.append(
                InvariantViolation(
                    "economy.varrho",
                    "too small for these error laws: the global error at the all-d_min "
                    "profile, or its product with a contribution factor at bounds.d_max, "
                    "overflows",
                )
            )
        elif not np.isfinite(z).all():
            violations.append(
                InvariantViolation("market.phi", "too large: the game weights overflow")
            )
        if len(violations) == n_bounded and not math.isfinite(welfare_bound):
            violations.append(
                InvariantViolation(
                    _TERM_FIELDS[int(np.argmax(term_bounds))],
                    "too large for these error laws and costs: the welfare sum of the "
                    "revenues, payments, losses, costs and server fees can overflow",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# JSON config format, read through spec tables (module docstring). Unknown
# keys are an error. Floats are serialized via repr (shortest round-trip), so
# a write/read cycle is bit-identical.
# ---------------------------------------------------------------------------

# The defaults a spec entry can hold besides a value: the key must be given,
# or an absent key is left out so that the dataclass default applies.
_REQUIRED = object()
_OMITTED = object()


def _fields(obj, spec: dict, where: str, prefix: str = "") -> dict:
    """The fields of the JSON object ``obj``, read by ``spec`` in its order.

    ``spec`` maps each key to ``(parse, default)``: a given value is read by
    ``parse(value, prefix + key)``; an absent key is an error if ``default``
    is ``_REQUIRED``, left out if it is ``_OMITTED``, else ``default``.
    Errors about the object itself name it ``where``.
    """
    if not isinstance(obj, dict):
        raise InvariantViolation(where, f"must be an object, got {type(obj).__name__}")
    unknown = obj.keys() - spec.keys()
    if unknown:
        raise InvariantViolation(where, f"unknown key(s): {sorted(unknown)}")
    out = {}
    for key, (parse, default) in spec.items():
        if key in obj:
            out[key] = parse(obj[key], prefix + key)
        elif default is _REQUIRED:
            raise InvariantViolation(where, f"missing required key {key!r}")
        elif default is not _OMITTED:
            out[key] = default
    return out


def _block(spec: dict, build: Callable) -> Callable:
    """A parser of a nested object: ``build`` called with its fields, each
    named ``where.key``."""
    return lambda obj, where: build(**_fields(obj, spec, where, where + "."))


def _array(parse: Callable) -> Callable:
    """A parser of a JSON array: the tuple of its entries, each read by
    ``parse`` and named ``where[i]``."""

    def parse_array(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise InvariantViolation(where, f"must be an array, got {type(value).__name__}")
        return tuple(parse(x, f"{where}[{i}]") for i, x in enumerate(value))

    return parse_array


def scenario_to_dict(s: Scenario) -> dict:
    rows = zip(*(getattr(s, name).tolist() for name in ORG_COLUMNS))
    return {
        "organizations": [
            {
                "d_loc": int(d_loc), "f": f, "kappa": kappa, "eta": eta, "mu": mu,
                "c_cmp": c_cmp, "psi": psi, "law": {"alpha": alpha, "beta": beta, "delta": delta},
            }
            for d_loc, f, kappa, eta, mu, c_cmp, psi, alpha, beta, delta in rows
        ],
        "market": {
            "gamma": [[float(x) for x in row] for row in s.market.gamma],
            "xi": s.market.xi,
            "phi": [float(x) for x in s.market.phi],
        },
        "economy": {
            "varrho": s.economy.varrho,
            "c0": s.economy.c0,
            "eps0_mode": s.economy.eps0_mode.value,
            "eps0_value": s.economy.eps0_value,
            "bb_mode": s.economy.bb_mode.value,
        },
        "bounds": {"d_min": int(s.bounds.d_min), "d_max": int(s.bounds.d_max)},
        "seed": int(s.seed),
    }


_FLOAT_RANGE = "must be within the float64 range"


def _as_int(value, where: str) -> int:
    """An integral number from a config value; bools, fractions and integers
    beyond the float64 range are errors."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, float)):
        raise InvariantViolation(where, f"must be an integer, got {value!r}")
    number = _as_float(value, where)
    if not math.isfinite(number):
        raise InvariantViolation(where, "must be finite")
    if not number.is_integer():
        raise InvariantViolation(where, f"must be an integer, got {value!r}")
    return int(value)


def _as_float(value, where: str) -> float:
    """A real number from a config value; bools, null, strings, arrays,
    objects and integers beyond the float64 range are errors. NaN and
    infinities pass, for validation to name."""
    if type(value) is float:  # a JSON float, without the ABC checks below
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvariantViolation(where, f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvariantViolation(where, _FLOAT_RANGE) from None


def _as_float_array(value, where: str) -> np.ndarray:
    """A float array from a config value; validation checks its shape."""
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise InvariantViolation(where, _FLOAT_RANGE) from None
    except (TypeError, ValueError):
        raise InvariantViolation(where, "must be an array of numbers") from None


def _as_enum(kind: type[Enum], value, where: str):
    """A member of ``kind`` from its config value; anything else is an error
    that lists the allowed values."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(repr(m.value) for m in kind)
        raise InvariantViolation(where, f"must be one of {allowed}, got {value!r}") from None


# The blocks of a scenario file; ``economy`` and ``bounds`` also appear in a
# sweep file. An organization reads as its row of ``ORG_COLUMNS`` values, its
# error law as the row's (alpha, beta, delta) tail.
_LAW = _block(
    {"alpha": (_as_float, _REQUIRED), "beta": (_as_float, _REQUIRED), "delta": (_as_float, 0.0)},
    lambda alpha, beta, delta: (alpha, beta, delta),
)
_ORGANIZATION = _block(
    {
        "d_loc": (_as_int, _REQUIRED),
        "f": (_as_float, _REQUIRED),
        "kappa": (_as_float, _REQUIRED),
        "eta": (_as_float, DEFAULT_ETA),
        "mu": (_as_float, DEFAULT_MU),
        "c_cmp": (_as_float, DEFAULT_C_CMP),
        "psi": (_as_float, _REQUIRED),
        "law": (_LAW, _REQUIRED),
    },
    lambda law, **row: (*row.values(), *law),
)
_MARKET = _block(
    {"gamma": (_as_float_array, _REQUIRED), "xi": (_as_float, _REQUIRED),
     "phi": (_as_float_array, _REQUIRED)},
    Market,
)
_ECONOMY = _block(
    {
        "varrho": (_as_float, _OMITTED),
        "c0": (_as_float, _OMITTED),
        "eps0_mode": (functools.partial(_as_enum, Eps0Mode), _OMITTED),
        "eps0_value": (lambda v, where: None if v is None else _as_float(v, where), _OMITTED),
        "bb_mode": (functools.partial(_as_enum, PayoffMode), _OMITTED),
    },
    EconomyParams,
)
_BOUNDS = _block({"d_min": (_as_int, _OMITTED), "d_max": (_as_int, _OMITTED)}, StrategyBounds)
_SCENARIO = {
    "organizations": (_array(_ORGANIZATION), _REQUIRED),
    "market": (_MARKET, _REQUIRED),
    "economy": (_ECONOMY, EconomyParams()),
    "bounds": (_BOUNDS, StrategyBounds()),
    "seed": (_as_int, _OMITTED),
}


def _scenario_fields(obj) -> dict:
    """The ``Scenario`` arguments of a scenario file's JSON object, every key read."""
    fields = _fields(obj, _SCENARIO, "scenario")
    rows = fields.pop("organizations")
    columns = np.array(rows, dtype=np.float64).reshape(-1, len(ORG_COLUMNS)).T
    return {**dict(zip(ORG_COLUMNS, columns)), **fields}


def scenario_from_dict(obj: dict) -> Scenario:
    return Scenario(**_scenario_fields(obj))


def json_text(payload: dict, where: str) -> str:
    """The indented JSON document of ``payload`` and its final newline: the
    one JSON writer of scenario files and command outputs, built in memory so
    that it reaches its file in one write. JSON has no NaN or infinity, so a
    payload holding one is refused with an UnwritableOutput that names
    ``where``, the output's flag or path."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise UnwritableOutput(f"{where}: cannot write a non-finite number as JSON") from None


def save_scenario(s: Scenario, path) -> None:
    text = json_text(scenario_to_dict(s), str(path))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _scenario_file_fields(path) -> dict:
    """The ``Scenario`` arguments of a whole scenario file (``_scenario_fields``)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _scenario_fields(json.load(fh))


def load_scenario(path) -> Scenario:
    return Scenario(**_scenario_file_fields(path))
