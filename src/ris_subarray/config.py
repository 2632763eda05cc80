"""System configuration: parsing, checking and the surface power model.

The reconfigurable surface is an Nx-by-Ny grid of passive elements partitioned
into Qx-by-Qy rectangular subarrays of Lx-by-Ly elements each. All elements of
a subarray share one phase shift, and subarrays are numbered x-major. A config
checks its fields whenever it is built: by its constructor, config_from_dict
or dataclasses.replace.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, astuple, dataclass, fields
from functools import partial

TWO_PI = 2.0 * math.pi
MAX_SEED = 2 ** 64 - 1
# Hard caps keeping the exhaustive phase search tractable (levels**Q points).
ORACLE_MAX_Q, ORACLE_MAX_LEVELS = 4, 32


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
               strict: bool = False) -> float:
    """value as a float: a finite real number >= low, or > low if strict."""
    number = _as_float(value)
    if math.isfinite(number) and (number > low if strict else number >= low):
        return number
    bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
    raise ConfigError(f"{name} must be finite{bound}, got {_shown(value)}")


def check_rician(name: str, value) -> float:
    """A Rician factor as a float: >= 0, or inf for pure LoS; -0.0 gives 0.0."""
    number = _as_float(value) + 0.0
    if number >= 0:
        return number
    raise ConfigError(f"{name} must be finite and >= 0, or inf for pure LoS, "
                      f"got {_shown(value)}")


def check_grid(name: str, values) -> list:
    """values as a list, each judged by the entry check of grid `name`: at
    least one value, and none repeated once checked (-0.0 repeats 0.0)."""
    grid = [GRID_ENTRY[name](name, value) for value in values]
    if not grid:
        raise ConfigError(f"{name} needs at least one value")
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


def _check_fields(obj, check, *bounds, names=(), prefix: str = "") -> None:
    """Set each field in names (all by default) of the frozen obj to its check."""
    for name in names or [f.name for f in fields(obj)]:
        object.__setattr__(obj, name, check(prefix + name, getattr(obj, name), *bounds))


@dataclass(frozen=True)
class Angles:
    """Propagation geometry at the surface in radians: (theta_a1, phi_a1)
    are the elevation/azimuth of arrival and (theta_d2, phi_d2) those of
    departure toward the user. Under maximum ratio transmission no transmit
    angle or spacing changes an output, so the transmit array has none.
    """

    theta_a1: float
    phi_a1: float
    theta_d2: float
    phi_d2: float

    def __post_init__(self):
        _check_fields(self, check_real, prefix="angles.")


@dataclass(frozen=True)
class PowerConstants:
    """Static power terms in watts.

    p_rest covers transmit and user-terminal circuitry, p_dynamic the
    surface's reconfiguration term (negligible for PIN-diode surfaces),
    p_control the surface control board, p_driver one phase-shift driver.
    """

    p_rest: float = 20.0
    p_dynamic: float = 0.0
    p_control: float = 4.8
    p_driver: float = 0.43

    def __post_init__(self):
        _check_fields(self, check_real, 0.0, prefix="power.")
        if not any(astuple(self)):
            raise ConfigError("power terms must not all be 0: the total power would be 0")


_SECTIONS = {"angles": Angles, "power": PowerConstants}


def ris_power(num_drivers: int, power: PowerConstants) -> float:
    """Surface power draw with one driver per independently controlled phase:
    N drivers for per-element control, Q for subarrays."""
    num_drivers = check_int("num_drivers", num_drivers, low=0)
    return power.p_dynamic + power.p_control + num_drivers * power.p_driver


@dataclass(frozen=True)
class SystemConfig:
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
        _check_fields(self, check_int, names=("M", "Nx", "Ny", "Lx", "Ly"))
        for side, size in (("Lx", "Nx"), ("Ly", "Ny")):
            if getattr(self, size) % getattr(self, side):
                raise ConfigError(f"{side}={_shown(getattr(self, side))} does not "
                                  f"divide {size}={_shown(getattr(self, size))}")
        _check_fields(self, check_real, 0.0, True, names=(
            "d2_over_lambda", "P", "sigma_w2"))
        _check_fields(self, check_rician, names=("K1", "K2"))
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
        # Each phase of the design is at most 4*pi*d2*(Nx + Ny) in size.
        if not math.isfinite(2 * TWO_PI * self.d2_over_lambda * (self.Nx + self.Ny)):
            raise ConfigError(
                f"d2_over_lambda={self.d2_over_lambda!r} overflows the phases of a "
                f"{self.Nx}x{self.Ny} surface: 4*pi*d2_over_lambda*(Nx + Ny) must be "
                f"finite")
        # The energy efficiency divides by p_rest + ris_power(drivers). N
        # drivers, per-element control, give the largest total, so once it
        # is finite so is every other.
        total = self.power.p_rest + ris_power(self.N, self.power)
        if not math.isfinite(total):
            p = self.power
            raise ConfigError(
                f"the largest total power, power.p_rest + power.p_dynamic + "
                f"power.p_control + N * power.p_driver, must be finite, got "
                f"{total:g} from power.p_rest={p.p_rest!r}, power.p_dynamic="
                f"{p.p_dynamic!r}, power.p_control={p.p_control!r}, "
                f"power.p_driver={p.p_driver!r}, N={_shown(self.N)}")

    Qx = property(lambda self: self.Nx // self.Lx)
    Qy = property(lambda self: self.Ny // self.Ly)
    Q = property(lambda self: self.Qx * self.Qy)
    L = property(lambda self: self.Lx * self.Ly)
    N = property(lambda self: self.Nx * self.Ny)


def _build(cls, raw, prefix: str = ""):
    """cls(**raw) with the sections built likewise; values are not coerced.
    A key that is not a field of cls is an error, not a silent default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} must be a JSON object")
    names = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in names:
            raise ConfigError(f"unknown config field '{prefix}{key}'")
    for name, f in names.items():
        if f.default is MISSING and name not in raw:
            raise ConfigError(f"missing config field '{prefix}{name}'")
    return cls(**{key: _build(_SECTIONS[key], value, f"{key}.")
                  if key in _SECTIONS else value for key, value in raw.items()})


def config_from_dict(raw: dict) -> SystemConfig:
    """Build a SystemConfig, which checks itself, from parsed JSON."""
    return _build(SystemConfig, raw)


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
