import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ris_subarray import (Angles, ConfigError, PowerConstants, SystemConfig,
                          coherence_factor, config_from_dict,
                          energy_efficiency, load_config, max_se_upper_bound)
from ris_subarray.config import (MAX_SEED, check_grid, check_int, check_real,
                                 check_rician)
from ris_subarray.design import phase_certificate
from ris_subarray.metrics import _bound_from_eta

from helpers import (REF_ANGLES, reference_config, small_config, small_raw,
                     subarray_origin)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_derived_sizes():
    cfg = reference_config()
    assert (cfg.Qx, cfg.Qy, cfg.Q) == (16, 16, 256)
    assert (cfg.L, cfg.N) == (4, 1024)


def test_subarray_origin_enumeration():
    # 4x4 surface in 2x2 subarrays: origins derived by hand, row-major.
    cfg = small_config()
    expected = [(1, 1), (1, 3), (3, 1), (3, 3)]
    assert [subarray_origin(cfg, q) for q in (1, 2, 3, 4)] == expected


def test_subarray_origin_reference_case():
    cfg = reference_config()
    assert subarray_origin(cfg, 2) == (1, 3)
    assert subarray_origin(cfg, cfg.Q) == (31, 31)


def test_subarray_origin_out_of_range():
    cfg = small_config()
    with pytest.raises(IndexError):
        subarray_origin(cfg, 0)
    with pytest.raises(IndexError):
        subarray_origin(cfg, cfg.Q + 1)


@pytest.mark.parametrize("field,value,fragment", [
    ("M", 0, "M"),
    ("Nx", -4, "Nx"),
    ("Lx", 3, "does not divide"),
    ("Ly", 3, "does not divide"),
    ("d2_over_lambda", 0.0, "d2_over_lambda"),
    ("K1", -1.0, "K1"),
    ("K2", math.nan, "K2"),
    ("P", 0.0, "P"),
    ("sigma_w2", -2.0, "sigma_w2"),
    # finite and positive, but the rates or the phases would overflow
    pytest.param("M", 10 ** 400, " M=1000", id="M-10**400"),
    pytest.param("P", 1e308, r" P=1e\+308", id="P-1e308"),
    pytest.param("sigma_w2", 1e-310, " sigma_w2=1e-310", id="sigma_w2-1e-310"),
    pytest.param("d2_over_lambda", 1e308, r"^d2_over_lambda=1e\+308 overflows the phase "
                 r"slopes: 2\*pi\*d2_over_lambda must be finite$", id="d2_over_lambda-1e308"),
])
def test_validation_errors_name_field(field, value, fragment):
    cfg = SystemConfig(M=4, Nx=4, Ny=4, Lx=2, Ly=2, angles=REF_ANGLES)
    with pytest.raises(ConfigError, match=fragment):
        cfg.replace(**{field: value})


# Each way to build a config, given the section holding the bad values
# (None for the top level), as a function of those values.
BUILDS = {
    "constructor": lambda section, bad: (
        SystemConfig(**{**vars(small_config()), **bad}) if section is None
        else Angles(**{**vars(REF_ANGLES), **bad}) if section == "angles"
        else PowerConstants(**bad)),
    "replace": lambda section, bad: (
        small_config().replace(**bad) if section is None
        else (REF_ANGLES if section == "angles" else PowerConstants()).replace(**bad)),
    "config_from_dict": lambda section, bad: config_from_dict(
        small_raw(**bad) if section is None
        else small_raw(**{section: {**small_raw().get(section, {}), **bad}})),
}
ZERO_POWER = dict.fromkeys(["p_rest", "p_dynamic", "p_control", "p_driver"], 0)


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("field, section, bad", [
    ("Lx", None, {"Lx": 3}),
    ("M", None, {"M": 0}),
    ("M", None, {"M": 4.5}),
    ("M", None, {"M": True}),
    ("angles.theta_a1", "angles", {"theta_a1": math.nan}),
    ("P", None, {"P": -1}),
    ("sigma_w2", None, {"sigma_w2": 0}),
    ("K1", None, {"K1": -0.5}),
    ("power terms", "power", ZERO_POWER),
    ("angles", None, {"angles": tuple(REF_ANGLES)}),
], ids=["Lx-3-Nx-4", "M-0", "M-4.5", "M-True", "angle-nan", "P-neg",
        "sigma_w2-0", "K1-neg", "power-zero", "angles-tuple"])
def test_every_way_to_build_a_config_checks_it(build, field, section, bad):
    # No config with a bad value exists: the constructor, replace and the
    # JSON path all reject it, naming the field.
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}[ =]"):
        BUILDS[build](section, bad)


@pytest.mark.parametrize("record", [small_config(), REF_ANGLES, PowerConstants(
    p_driver=0.5)], ids=["SystemConfig", "Angles", "PowerConstants"])
def test_a_record_is_frozen_hashable_and_names_its_fields(record):
    cls, fields = type(record), dict(vars(record))
    first = next(iter(fields))
    for change in (lambda: setattr(record, first, 1), lambda: delattr(record, first),
                   lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert vars(record) == fields
    # keyword and positional binding give the same record, and equal
    # records hash equal
    by_position = cls(*record)
    assert by_position == cls(**fields) == record and by_position is not record
    assert hash(by_position) == hash(record)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    assert record.replace() == record


def test_a_record_equals_only_a_record_of_its_type():
    values = (0.5, 1.0, 2.0, 3.0)
    angles, power = Angles(*values), PowerConstants(*values)
    assert tuple(angles) == tuple(power) == values
    assert angles != values and values != angles
    assert angles != power and power != angles
    assert angles.replace(phi_d2=0.0) == Angles(0.5, 1.0, 2.0, 0.0)


@pytest.mark.parametrize("build, message", [
    (lambda: SystemConfig(M=4, Nx=4, Ny=4, Lx=2, Ly=2),
     "missing config field 'angles'"),
    (lambda: Angles(0.0, 0.0, 0.0), "missing config field 'angles.phi_d2'"),
    (lambda: config_from_dict(small_raw(angles={"theta_a1": 0.0})),
     "missing config field 'angles.phi_a1'"),
    (lambda: small_config(Q=4), "unknown config field 'Q'"),
    (lambda: small_config().replace(N=16), "unknown config field 'N'"),
    (lambda: REF_ANGLES.replace(theta_d1=0.0),
     "unknown config field 'angles.theta_d1'"),
    (lambda: PowerConstants(p_drivr=0.43), "unknown config field 'power.p_drivr'"),
    (lambda: SystemConfig(4, 4, 4, 2, 2, REF_ANGLES, M=8),
     "duplicate config field 'M'"),
    (lambda: Angles(0.0, 0.0, 0.0, 0.0, theta_a1=0.0),
     "duplicate config field 'angles.theta_a1'"),
    (lambda: PowerConstants(20.0, p_rest=1.0), "duplicate config field 'power.p_rest'"),
    (lambda: Angles(0.0, 0.0, 0.0, 0.0, 0.0), "Angles has 4 fields, got 5"),
], ids=["missing-top", "missing-angle", "missing-angle-json", "unknown-top",
        "unknown-property", "unknown-angle", "unknown-power", "repeated-top",
        "repeated-angle", "repeated-power", "extra-positional"])
def test_a_missing_unknown_or_repeated_field_is_named(build, message):
    # The constructor, replace and config_from_dict bind fields alike.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build", [
    lambda: check_real("P", 10 ** 5000),
    lambda: check_rician("K1", 10 ** 5000),
    lambda: check_int("seed", 10 ** 5000, 0, MAX_SEED),
    lambda: check_grid("l0_grid", [10 ** 5000] * 2),
    lambda: small_config(Nx=10 ** 5000 + 1, Lx=2),
], ids=["check_real", "check_rician", "check_int", "check_grid", "divides"])
def test_check_names_the_field_for_an_unprintable_integer(build):
    # repr fails on an int of more than 4300 digits; the message does not.
    with pytest.raises(ConfigError, match=(
            r"^(P|K1|seed|l0_grid|Lx=2) .*<unprintable int>")):
        build()


@pytest.mark.parametrize("terms", [
    dict(p_rest=1e308, p_control=1e308),
    dict(p_dynamic=1e308, p_control=1e308),
    # the 16 drivers of per-element control overflow, the 4 subarrays' do not
    dict(p_driver=2e307),
], ids=["rest-control", "dynamic-control", "driver"])
def test_overflowing_total_power_is_rejected(terms):
    # Each term is finite, but per-element control's total power is not:
    # the energy efficiency would read 0 and the surface power inf.
    power = PowerConstants(**terms)
    if "p_driver" in terms:
        assert math.isfinite(power.p_rest + power.p_control
                             + small_config().Q * power.p_driver)
    with pytest.raises(ConfigError, match=(
            r"^the largest total power, power\.p_rest \+ power\.p_dynamic \+ "
            r"power\.p_control \+ N \* power\.p_driver, must be finite, got inf "
            r"from power\.p_rest=.*, N=16$")):
        small_config().replace(power=power)


def test_largest_finite_total_power_is_accepted():
    cfg = small_config().replace(power=PowerConstants(p_driver=1e307))
    assert cfg.power.p_rest + cfg.N * cfg.power.p_driver < math.inf


def test_surface_size_is_capped():
    # eta's certificate takes time linear in N, and sweep-q's default grid in
    # a side: at a side of 2**53, neither finished.
    assert small_config().replace(Nx=1024, Ny=1024).N == 2 ** 20
    with pytest.raises(ConfigError, match=(
            r"^the surface size, Nx \* Ny, must be at most 2\*\*20, got 2097152 "
            r"from Nx=2048, Ny=1024$")):
        small_config().replace(Nx=2048, Ny=1024)


@pytest.mark.parametrize("p_rest", [5e-324, 1e-320, 6e-306])
def test_tiny_total_power_is_rejected(p_rest):
    # 1001 bits, above any SE the SNR cap allows, over one driver's total
    # power: inf at the two subnormals, and finite at 6e-306 W, where a
    # regional row's sum over 100 draws overflowed all the same.
    with pytest.raises(ConfigError, match=(
            r"^the largest energy efficiency, 1001 / \(power\.p_rest \+ "
            r"power\.p_dynamic \+ power\.p_control \+ 1 \* power\.p_driver\), "
            r"must be below 2\*\*1000, got .* from power\.p_rest=.*, N=16$")):
        small_config().replace(power=PowerConstants(p_rest, 0, 0, 0))


def test_smallest_total_power_is_accepted():
    power = PowerConstants(1001 * 2.0 ** -999, 0, 0, 0)     # efficiency 2**999
    assert small_config().replace(power=power).power == power


def test_nonfinite_angle_rejected():
    with pytest.raises(ConfigError, match="theta_a1"):
        small_config().replace(angles=Angles(math.inf, 0, 0, 0))


@pytest.mark.parametrize("field, value, plain", [
    ("M", np.int64(8), 8), ("Nx", np.int32(8), 8), ("Ly", np.uint8(1), 1),
    ("P", np.float32(2.5), 2.5), ("sigma_w2", np.float64(0.5), 0.5),
    ("K1", np.float32(3.0), 3.0), ("K2", np.float64(np.inf), math.inf),
    ("d2_over_lambda", np.float16(0.25), 0.25),
    ("angles", Angles(*np.float32([0.25, 1.5, 2.0, -0.5])),
     Angles(0.25, 1.5, 2.0, -0.5)),
    ("power", PowerConstants(np.float64(10.0), np.int64(0), 4.8, np.float32(0.5)),
     PowerConstants(10.0, 0.0, 4.8, 0.5)),
], ids=["M-int64", "Nx-int32", "Ly-uint8", "P-float32", "sigma_w2-float64",
        "K1-float32", "K2-float64-inf", "d2-float16", "angles-float32", "power-mixed"])
def test_numpy_scalars_are_accepted_as_config_values(field, value, plain):
    # Each check returns the plain int or float the value stands for, so
    # the checked config equals the one built from Python numbers.
    cfg = small_config().replace(**{field: value})
    assert cfg == small_config(**{field: plain})
    checked = getattr(cfg, field)
    for v in checked if isinstance(checked, (Angles, PowerConstants)) else (checked,):
        assert type(v) in (int, float)


@pytest.mark.parametrize("field", ["M", "Lx", "P", "K2", "d2_over_lambda"])
def test_numpy_bool_is_rejected_naming_the_field(field):
    with pytest.raises(ConfigError, match=f"^{field} must be .*, got np.True_$"):
        small_config().replace(**{field: np.bool_(True)})


def test_numpy_bool_is_rejected_in_a_section():
    with pytest.raises(ConfigError, match="^angles.phi_d2 must be finite, got"):
        Angles(*tuple(REF_ANGLES)[:3], np.bool_(False))
    with pytest.raises(ConfigError, match="^power.p_driver must be finite and"):
        PowerConstants(p_driver=np.bool_(True))


def test_negative_zero_rician_factor_is_zero():
    cfg = small_config(K1=-0.0, K2=-0.0)
    assert (math.copysign(1.0, cfg.K1), math.copysign(1.0, cfg.K2)) == (1.0, 1.0)


def test_infinite_rician_factor_allowed():
    cfg = small_config(K1=math.inf, K2=math.inf)
    assert math.isinf(cfg.K1)


def test_config_from_dict_roundtrip(tmp_path):
    raw = {
        "M": 8, "Nx": 8, "Ny": 4, "Lx": 2, "Ly": 2,
        "K1": 3.0, "K2": 4.0, "P": 5.0,
        "angles": {"theta_a1": 0.2, "phi_a1": 0.3,
                   "theta_d2": 0.4, "phi_d2": 0.5},
        "power": {"p_rest": 10.0},
    }
    cfg = config_from_dict(raw)
    assert (cfg.M, cfg.N, cfg.Q) == (8, 32, 8)
    assert cfg.angles.phi_d2 == 0.5
    assert cfg.d2_over_lambda == 0.5  # default applied
    assert cfg.power == PowerConstants(p_rest=10.0)

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert load_config(path) == cfg


def test_config_from_dict_missing_field():
    with pytest.raises(ConfigError, match="angles"):
        config_from_dict({"M": 4, "Nx": 4, "Ny": 4, "Lx": 2, "Ly": 2})


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("raw,field", [
    (small_raw(M=2.7), "^M must"),
    (small_raw(M=True), "^M must"),
    (small_raw(K1="5"), "^K1 must"),
    (small_raw(k1=5.0), "'k1'"),
    (small_raw(power={"p_drivr": 0.43}), "'power.p_drivr'"),
    (small_raw(power={"p_rest": math.nan}), "^power.p_rest must"),
    (small_raw(power={"p_driver": math.inf}), "^power.p_driver must"),
    (small_raw(power={"p_rest": 0, "p_dynamic": 0, "p_control": 0,
                      "p_driver": 0}), "^power terms must not all be 0"),
    (small_raw(angles={**small_raw()["angles"], "theta_d3": 0.0}),
     "'angles.theta_d3'"),
    # the transmit array's spacing and angle are not fields: they change no
    # output under maximum ratio transmission
    (small_raw(d1_over_lambda=0.5), "^unknown config field 'd1_over_lambda'$"),
    (small_raw(angles={**small_raw()["angles"], "theta_d1": 0.0}),
     "^unknown config field 'angles.theta_d1'$"),
    # raw text: a dict cannot hold a repeated key
    ('{"M": 8, ' + json.dumps(small_raw())[1:], "duplicate config field 'M'"),
    (json.dumps(small_raw()).replace('"angles": {', '"angles": {"phi_d2": 0.0, '),
     "duplicate config field 'phi_d2'"),
    (json.dumps(small_raw(power={"p_rest": 20.0})).replace(
        '"power": {', '"power": {"p_rest": 1.0, '),
     "duplicate config field 'p_rest'"),
], ids=["M-float", "M-bool", "K1-string", "unknown-top", "unknown-power",
        "power-nan", "power-inf", "power-zero", "unknown-angle", "removed-d1",
        "removed-theta_d1", "duplicate-top",
        "duplicate-angle", "duplicate-power"])
def test_malformed_input_rejected_naming_field(tmp_path, raw, field):
    path = tmp_path / "cfg.json"
    # NaN and Infinity as Python's json writes them
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    with pytest.raises(ConfigError, match=field):
        load_config(path)


def test_load_config_merges_overrides_from_any_iterable(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_raw()))
    overrides = iter([("M", 8), ("power.p_driver", 0.5)])
    assert load_config(path, overrides) == config_from_dict(
        small_raw(M=8, power={"p_driver": 0.5}))


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_committed_configs_load(path):
    assert isinstance(load_config(path), SystemConfig)


def test_power_section_is_part_of_the_config():
    cfg = load_config(CONFIG_DIR / "default.json")
    assert cfg.power == PowerConstants(p_rest=20.0, p_dynamic=0.0,
                                       p_control=4.8, p_driver=0.43)
    assert small_config().power == PowerConstants()


_reals = st.floats(min_value=1e-3, max_value=1e3)
_angles = st.builds(Angles, *[st.floats(-10.0, 10.0)] * 4)
# An all-zero power model is rejected when built: it has no energy efficiency.
# Tiny and subnormal terms reach the rule on the largest energy efficiency.
_power = st.tuples(*[st.one_of(st.floats(min_value=0.0, max_value=1e3),
                               st.sampled_from([5e-324, 1e-320, 1e-300]))] * 4
                   ).filter(any).map(lambda terms: PowerConstants(*terms))


@st.composite
def _configs(draw):
    # surfaces up to 64 elements a side, spacings of 10^U(-3, 300) wavelengths
    lx, ly = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    try:
        return SystemConfig(
            M=draw(st.integers(1, 64)),
            Nx=lx * draw(st.integers(1, 8)), Ny=ly * draw(st.integers(1, 8)),
            Lx=lx, Ly=ly, angles=draw(_angles),
            d2_over_lambda=10.0 ** draw(st.floats(-3.0, 300.0)),
            K1=draw(st.one_of(st.floats(0.0, 1e3), st.just(math.inf))),
            K2=draw(st.one_of(st.floats(0.0, 1e3), st.just(math.inf))),
            P=draw(_reals), sigma_w2=draw(_reals), power=draw(_power))
    except ConfigError as exc:      # outside the accepted space, as it should be
        assert str(exc).startswith("the largest energy efficiency"), exc
        reject()


# Fixed examples and no example database: every run tries the same configs,
# so a failure is a defect of the code, not a seed that happened to find one.
FIXED = settings(derandomize=True, database=None, deadline=None)


def as_raw(record) -> dict:
    """record as the parsed JSON of a config file, its sections nested."""
    return {name: as_raw(value) if isinstance(value, (Angles, PowerConstants))
            else value for name, value in vars(record).items()}


@FIXED
@given(_configs())
def test_json_roundtrip_property(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "roundtrip.json"
    path.write_text(json.dumps(as_raw(cfg)))
    assert load_config(path) == cfg


@settings(FIXED, max_examples=300)
@given(_configs())
def test_closed_form_core_holds_over_the_accepted_config_space(cfg):
    eta, scale = coherence_factor(cfg), cfg.N ** 2 * cfg.M
    assert 0.0 <= eta <= 1.0
    assert coherence_factor(cfg.replace(Lx=1, Ly=1)) == 1.0
    # the closed-form phases reach eta * N^2 * M and the coherent bound
    gain, coherent = phase_certificate(cfg)
    assert abs(gain / scale - eta) <= 1e-9
    assert (coherent - gain) / scale <= 1e-12
    bound = _bound_from_eta(cfg)
    se = [bound(x) for x in (0.0, eta / 2, eta, 1.0)]
    assert all(map(math.isfinite, se)) and se == sorted(se)
    assert max_se_upper_bound(cfg) == se[2]
    assert math.isfinite(energy_efficiency(se[2], cfg.Q, cfg.power))
    assert math.isfinite(energy_efficiency(se[3], cfg.N, cfg.power))
    # a regional row sums its draws' efficiencies: 2**24 of the largest
    assert energy_efficiency(se[3], 1, cfg.power) * 2.0 ** 24 < math.inf
