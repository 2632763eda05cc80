"""System configuration: parsing, checking and the surface power model.

The reconfigurable surface is an Nx-by-Ny grid of passive elements partitioned
into Qx-by-Qy rectangular subarrays of Lx-by-Ly elements each. All elements of
a subarray share one phase shift, and subarrays are numbered x-major. A config
checks its fields whenever it is built: by its constructor, config_from_dict
or its replace method.
"""

import json
import math
import numbers
from functools import partial

TWO_PI = 2.0 * math.pi
MAX_SEED = 2 ** 64 - 1


class ConfigError(ValueError):
    """A config field or run argument was rejected. The message names it."""


def _shown(value) -> str:
    """repr(value) for a message, which cannot fail as repr of a huge int does."""
    try:
        return repr(value)
    except Exception:
        return f"<unprintable {type(value).__name__}>"


# The one check per kind of input. Each returns the value as the program
# uses it, so numpy scalars are accepted; a bool (numpy's too) never is.
def check_int(name: str, value, low: int = 1, high: int | None = None) -> int:
    """value as an int: an integer in [low, high], or >= low without high."""
    if not isinstance(value, bool) and isinstance(value, numbers.Integral):
        number = int(value)
        if number >= low and (high is None or number <= high):
            return number
    rule = (f"an integer in [{low}, {high}]" if high is not None
            else "a positive integer" if low == 1 else f"an integer >= {low}")
    raise ConfigError(f"{name} must be {rule}, got {_shown(value)}")


def _as_float(value) -> float:
    """value as a float, or nan, which every check rejects, for a bool, a
    non-real number and an integer too large for a float."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        return float(value) if real else math.nan
    except OverflowError:
        return math.nan


def check_real(name: str, value, low: float = -math.inf,
               strict: bool = False, high: float = math.inf) -> float:
    """value as a float: a finite real number >= low, or > low if strict,
    and <= high."""
    number = _as_float(value)
    if (math.isfinite(number) and (number > low if strict else number >= low)
            and number <= high):
        return number
    bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
    bound += "" if high == math.inf else f" and <= {high:g}"
    raise ConfigError(f"{name} must be finite{bound}, got {_shown(value)}")


def check_rician(name: str, value) -> float:
    """A Rician factor as a float: >= 0, or inf for pure LoS; -0.0 gives 0.0."""
    number = _as_float(value) + 0.0
    if number >= 0:
        return number
    raise ConfigError(f"{name} must be finite and >= 0, or inf for pure LoS, "
                      f"got {_shown(value)}")


def check_sequence(name: str, values, of: str = "values") -> list:
    """values as a list of at least one value; a bare number, None or a
    string is not a sequence of them."""
    try:
        listed = None if isinstance(values, str) else list(values)
    except TypeError:
        listed = None
    if listed is None:
        raise ConfigError(f"{name} must be a sequence of {of}, got {_shown(values)}")
    if not listed:
        raise ConfigError(f"{name} needs at least one value")
    return listed


def check_grid(name: str, values) -> list:
    """values as a list, each judged by the entry check of grid `name`: at
    least one value, and none repeated once checked (-0.0 repeats 0.0)."""
    grid = [GRID_ENTRY[name](name, value) for value in check_sequence(name, values)]
    for i, value in enumerate(grid):
        if value in grid[:i]:
            raise ConfigError(f"{name} repeats the value {_shown(value)}")
    return grid


def check_square(name: str, value) -> int:
    """value as an int: a positive perfect square, a square surface's size."""
    number = check_int(name, value)
    if math.isqrt(number) ** 2 == number:
        return number
    raise ConfigError(f"{name} must be a perfect square, got {_shown(value)}")


# Each sweep grid's entry check. l0_set excludes 1: the element row is always written.
GRID_ENTRY = {"k_grid": check_rician, "l0_grid": check_int,
              "n_grid": check_square, "l0_set": partial(check_int, low=2)}


class _Record:
    """A frozen record: its fields are the class's annotated names in order,
    and a default is the class attribute of that name. Building one binds the
    fields by keyword or position, then runs __post_init__, the checks."""

    _prefix = ""            # how an error message names a field: "angles."
    _fields = property(lambda self: tuple(type(self).__annotations__))

    def __init__(self, *args, **kwargs):
        fields, cls = self._fields, type(self)
        if len(args) > len(fields):
            raise ConfigError(f"{cls.__name__} has {len(fields)} fields, got {len(args)}")
        for name in kwargs:
            if name not in fields[len(args):]:
                raise ConfigError(f"{'duplicate' if name in fields else 'unknown'} "
                                  f"config field '{self._prefix}{name}'")
        kwargs.update(zip(fields, args))
        for name in fields:
            if name not in kwargs and not hasattr(cls, name):
                raise ConfigError(f"missing config field '{self._prefix}{name}'")
            self.__dict__[name] = kwargs[name] if name in kwargs else getattr(cls, name)
        self.__post_init__()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete '{name}': the record is frozen")

    __delattr__ = __setattr__

    def __iter__(self):
        return iter(self.__dict__.values())

    def __eq__(self, other):
        return type(other) is type(self) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({shown})"

    def replace(self, **changes):
        """A copy with the fields in changes replaced, checked as it is built."""
        return type(self)(**{**self.__dict__, **changes})

    def _check_fields(self, check, *bounds, names=()) -> None:
        """Set each field in names (all by default) to its check."""
        for name in names or self._fields:
            self.__dict__[name] = check(self._prefix + name, self.__dict__[name], *bounds)


class Angles(_Record):
    """Propagation geometry at the surface in radians: (theta_a1, phi_a1)
    are the elevation/azimuth of arrival and (theta_d2, phi_d2) those of
    departure toward the user. Under maximum ratio transmission no transmit
    angle or spacing changes an output, so the transmit array has none.
    """

    _prefix = "angles."
    theta_a1: float
    phi_a1: float
    theta_d2: float
    phi_d2: float

    def __post_init__(self):
        self._check_fields(check_real)


class PowerConstants(_Record):
    """Static power terms in watts.

    p_rest covers transmit and user-terminal circuitry, p_dynamic the
    surface's reconfiguration term (negligible for PIN-diode surfaces),
    p_control the surface control board, p_driver one phase-shift driver.
    """

    _prefix = "power."
    p_rest: float = 20.0
    p_dynamic: float = 0.0
    p_control: float = 4.8
    p_driver: float = 0.43

    def __post_init__(self):
        self._check_fields(check_real, 0.0)
        if not any(self):
            raise ConfigError("power terms must not all be 0: the total power would be 0")


_SECTIONS = {"angles": Angles, "power": PowerConstants}


def ris_power(num_drivers: int, power: PowerConstants) -> float:
    """Surface power draw with one driver per independently controlled phase:
    N drivers for per-element control, Q for subarrays."""
    num_drivers = check_int("num_drivers", num_drivers, low=0)
    return power.p_dynamic + power.p_control + num_drivers * power.p_driver


def total_power(num_drivers: int, power: PowerConstants) -> float:
    """Total consumed power in watts with num_drivers phase-shift drivers."""
    total = power.p_rest + ris_power(num_drivers, power)
    if total <= 0.0:
        raise ValueError("total power must be positive")
    return total


class SystemConfig(_Record):
    """Immutable description of one downlink scenario.

    M transmit antennas, an Nx-by-Ny surface grouped into Lx-by-Ly subarrays,
    the surface's element spacing in wavelengths, Rician factors for the two
    hops, transmit power P, noise power sigma_w2 and the power model behind
    the energy efficiency. All derived sizes are exposed as properties.
    """

    M: int
    Nx: int
    Ny: int
    Lx: int
    Ly: int
    angles: Angles
    d2_over_lambda: float = 0.5
    K1: float = 10.0
    K2: float = 10.0
    P: float = 10.0
    sigma_w2: float = 1.0
    power: PowerConstants = PowerConstants()

    def __post_init__(self):
        self._check_fields(check_int, names=("M", "Nx", "Ny", "Lx", "Ly"))
        for side, size in (("Lx", "Nx"), ("Ly", "Ny")):
            if getattr(self, size) % getattr(self, side):
                raise ConfigError(f"{side}={_shown(getattr(self, side))} does not "
                                  f"divide {size}={_shown(getattr(self, size))}")
        if self.N > 2 ** 20:    # eta's certificate takes time linear in N
            raise ConfigError(f"the surface size, Nx * Ny, must be at most 2**20, got "
                              f"{_shown(self.N)} from Nx={_shown(self.Nx)}, "
                              f"Ny={_shown(self.Ny)}")
        self._check_fields(check_real, 0.0, True, names=(
            "d2_over_lambda", "P", "sigma_w2"))
        self._check_fields(check_rician, names=("K1", "K2"))
        for name, cls in _SECTIONS.items():
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be {cls.__name__}, "
                                  f"got {_shown(getattr(self, name))}")
        # The largest SNR is capped 2**24 below a float's range, so that the
        # bound and every Monte Carlo rate stay finite.
        snr = self.P / self.sigma_w2 * _as_float(self.M * (self.N ** 2 + self.N + 1))
        if not snr <= 2.0 ** 1000:
            raise ConfigError(
                f"the largest SNR, P / sigma_w2 * M * (N**2 + N + 1), must be at most "
                f"2**1000, got {snr:g} from P={self.P!r}, sigma_w2={self.sigma_w2!r}, "
                f"M={_shown(self.M)}, N={_shown(self.N)}")
        # A phase slope is at most 2*pi*d2 in size before it is reduced mod pi.
        if not math.isfinite(TWO_PI * self.d2_over_lambda):
            raise ConfigError(
                f"d2_over_lambda={self.d2_over_lambda!r} overflows the phase "
                f"slopes: 2*pi*d2_over_lambda must be finite")
        # The energy efficiency divides an SE of at most log2(1 + 2**1000) bits,
        # the SNR cap's, by total_power(drivers): largest at N drivers, smallest
        # at 1. The total must be finite, and the efficiency 2**24 below a
        # float's range, so that a regional row's sum over its draws is too.
        p, total = self.power, ("power.p_rest + power.p_dynamic + power.p_control"
                                " + {} * power.p_driver")
        for value, limit, rule in (
                (total_power(self.N, p), math.inf,
                 f"total power, {total.format('N')}, must be finite"),
                (1001.0 / total_power(1, p), 2.0 ** 1000, "energy efficiency, "
                 f"1001 / ({total.format(1)}), must be below 2**1000")):
            if not value < limit:
                raise ConfigError(f"the largest {rule}, got {value:g} from " + ", ".join(
                    f"power.{name}={term!r}" for name, term in vars(p).items())
                    + f", N={_shown(self.N)}")

    Qx = property(lambda self: self.Nx // self.Lx)
    Qy = property(lambda self: self.Ny // self.Ly)
    Q = property(lambda self: self.Qx * self.Qy)
    L = property(lambda self: self.Lx * self.Ly)
    N = property(lambda self: self.Nx * self.Ny)


def config_from_dict(raw: dict) -> SystemConfig:
    """Build a SystemConfig, which checks itself, from parsed JSON, with its
    sections built likewise; values are not coerced."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return SystemConfig(**{
        key: _SECTIONS[key](**value) if key in _SECTIONS and isinstance(value, dict)
        else value for key, value in raw.items()})


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key is an error, not the last one wins.
    An override path such as "angles.phi_d2" repeats "angles" too."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if sum(k == key or k.startswith(key + ".") for k in keys) > 1:
            raise ConfigError(f"duplicate config field '{key}'")
    return dict(pairs)


def load_config(path, overrides=()) -> SystemConfig:
    """Read a JSON config file. Every key must be a field of SystemConfig,
    Angles (under "angles") or PowerConstants (under "power"), given once.
    overrides, (dotted field path, value) pairs such as ("angles.phi_d2", 0.5),
    are merged in first, one per field, and checked like the file."""
    with open(path) as fh:
        raw = json.load(fh, object_pairs_hook=_unique_keys)
    overrides = _unique_keys(list(overrides))
    for name, value in overrides.items() if isinstance(raw, dict) else ():
        parent, dot, key = name.partition(".")
        section = raw.setdefault(parent, {}) if dot else raw
        if not isinstance(section, dict):
            raise ConfigError(f"config field '{parent}' is not a section, in '{name}'")
        section[key if dot else name] = value
    return config_from_dict(raw)
