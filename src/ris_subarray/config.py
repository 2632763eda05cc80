"""System configuration: parsing, validation and the surface power model.

The reconfigurable surface is an Nx-by-Ny grid of passive elements partitioned
into Qx-by-Qy rectangular subarrays of Lx-by-Ly elements each. All elements of
a subarray share one phase shift. Subarrays are numbered row-major in the
x (subarray row) direction, matching the element order used by the steering
vectors and channel matrices.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, astuple, dataclass, fields, replace

TWO_PI = 2.0 * math.pi
MAX_SEED = 2 ** 64 - 1
# Hard caps keeping the exhaustive phase search tractable (levels**Q points).
ORACLE_MAX_Q, ORACLE_MAX_LEVELS = 4, 32


class ConfigError(ValueError):
    """A config field or run argument was rejected. The message names it."""


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
    raise ConfigError(f"{name} must be {rule}, got {value!r}")


def check_real(name: str, value, low: float = -math.inf,
               strict: bool = False) -> float:
    """value as a float: a finite real number >= low, or > low if strict."""
    if (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value) and (value > low if strict else value >= low)):
        return float(value)
    bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
    raise ConfigError(f"{name} must be finite{bound}, got {value!r}")


def check_rician(name: str, value) -> float:
    """A Rician factor as a float: >= 0, or inf for pure LoS; -0.0 gives 0.0."""
    if (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and value >= 0):
        return float(value) + 0.0
    raise ConfigError(f"{name} must be >= 0 (or inf for pure LoS), got {value!r}")


@dataclass(frozen=True)
class Angles:
    """Propagation geometry in radians.

    theta_d1 is the departure angle at the transmit ULA. (theta_a1, phi_a1)
    are the elevation/azimuth of arrival at the surface and (theta_d2, phi_d2)
    the elevation/azimuth of departure toward the user.
    """

    theta_d1: float
    theta_a1: float
    phi_a1: float
    theta_d2: float
    phi_d2: float


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


def ris_power(num_drivers: int, power: PowerConstants) -> float:
    """Surface power draw with one driver per independently controlled phase:
    N drivers for per-element control, Q for subarrays."""
    num_drivers = check_int("num_drivers", num_drivers, low=0)
    return power.p_dynamic + power.p_control + num_drivers * power.p_driver


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of one downlink scenario.

    M transmit antennas, an Nx-by-Ny surface grouped into Lx-by-Ly subarrays,
    element spacings in wavelengths, Rician factors for the two hops, transmit
    power P, noise power sigma_w2 and the power model behind the energy
    efficiency. Validate with validate_config() before use; all derived sizes
    are exposed as properties.
    """

    M: int
    Nx: int
    Ny: int
    Lx: int
    Ly: int
    angles: Angles
    d1_over_lambda: float = 0.5
    d2_over_lambda: float = 0.5
    K1: float = 10.0
    K2: float = 10.0
    P: float = 10.0
    sigma_w2: float = 1.0
    power: PowerConstants = PowerConstants()

    @property
    def Qx(self) -> int:
        return self.Nx // self.Lx

    @property
    def Qy(self) -> int:
        return self.Ny // self.Ly

    @property
    def Q(self) -> int:
        return self.Qx * self.Qy

    @property
    def L(self) -> int:
        return self.Lx * self.Ly

    @property
    def N(self) -> int:
        return self.Nx * self.Ny


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every field, raising ConfigError naming the offending one.

    Returns cfg with each value as its check returns it: plain ints and
    floats for numpy scalars, and 0.0 for a Rician factor of -0.0.
    """
    sizes = {name: check_int(name, getattr(cfg, name))
             for name in ("M", "Nx", "Ny", "Lx", "Ly")}
    if sizes["Nx"] % sizes["Lx"] != 0:
        raise ConfigError(f"Lx={cfg.Lx} does not divide Nx={cfg.Nx}")
    if sizes["Ny"] % sizes["Ly"] != 0:
        raise ConfigError(f"Ly={cfg.Ly} does not divide Ny={cfg.Ny}")
    reals = {name: check_real(name, getattr(cfg, name), 0.0, strict=True)
             for name in ("d1_over_lambda", "d2_over_lambda", "P", "sigma_w2")}
    reals.update((name, check_rician(name, getattr(cfg, name)))
                 for name in ("K1", "K2"))
    angles = Angles(*(check_real(f"angles.{f.name}", value)
                      for f, value in zip(fields(Angles), astuple(cfg.angles))))
    power = PowerConstants(*(
        check_real(f"power.{f.name}", value, 0.0)
        for f, value in zip(fields(PowerConstants), astuple(cfg.power))))
    if not any(astuple(power)):
        raise ConfigError("power terms must not all be 0: the total power would be 0")
    return replace(cfg, **sizes, **reals, angles=angles, power=power)


_SECTIONS = {"angles": Angles, "power": PowerConstants}


def _build(cls, raw, prefix: str = ""):
    """cls(**raw) with the sections built likewise; values are not coerced.

    Keys that are not fields of cls are rejected, so a misspelled field is
    an error instead of a silent default.
    """
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
    """Build and validate a SystemConfig from parsed JSON."""
    return validate_config(_build(SystemConfig, raw))


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
