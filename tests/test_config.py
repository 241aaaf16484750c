import dataclasses
import inspect
import os
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravnav.config import (
    KEYS,
    MAX_INS_STEPS,
    DivergenceParams,
    FusionParams,
    GaussianBump,
    GravimeterParams,
    InitParams,
    InsParams,
    MapGenParams,
    MapSource,
    MonteCarloParams,
    PmhtParams,
    ScenarioConfig,
    config_hash,
    parse_config,
    parse_config_text,
    serialize_config,
)
from gravnav.errors import ConfigError
from gravnav import assoc, fusion, geomap, pmht

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


SAMPLE = """\
# toy scenario
map.rows = 40
map.cols = 80
map.cell_size = 100
map.background = 9.79
map.bumps = 2000,2000,2e-3,500; 6000,2000,-1e-3,700
map.noise_scale = 1e-4
map.seed = 3
start = 1000,2000
velocity = 22,0
duration = 600
ins.accel_grade = PC-horizontal-accel
gravimeter.sigma = 1e-5
gravimeter.interval = 10
pmht.T = 15
pmht.spread_cov = true
fusion.mode = retrodiction
fusion.nis_gate = none
monte_carlo.runs = 4
monte_carlo.base_seed = 7
"""


class TestParse:
    def test_parses_sample(self):
        cfg = parse_config_text(SAMPLE)
        assert cfg.map.gen.rows == 40
        assert cfg.map.gen.bumps == (GaussianBump(2000.0, 2000.0, 2e-3, 500.0),
                                     GaussianBump(6000.0, 2000.0, -1e-3, 700.0))
        assert cfg.start == (1000.0, 2000.0)
        assert cfg.pmht.T == 15
        assert cfg.pmht.spread_cov is True
        assert cfg.fusion.mode == "retrodiction"
        assert cfg.fusion.nis_gate is None
        assert cfg.monte_carlo.runs == 4
        cfg.validate()

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("pmht.tee = 3\n")
        assert "pmht.tee" in str(exc.value)

    def test_file_and_synthetic_conflict(self):
        with pytest.raises(ConfigError):
            parse_config_text("map.file = x.asc\nmap.rows = 10\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config_text("duration = soon\n")

    @pytest.mark.parametrize("value", ["inf", "nan", "2.5"])
    def test_bad_integer(self, value):
        with pytest.raises(ConfigError, match="pmht.T"):
            parse_config_text(f"pmht.T = {value}\n")

    def test_bad_bump_arity(self):
        with pytest.raises(ConfigError):
            parse_config_text("map.bumps = 1,2,3\n")

    def test_validation_catches_missing_map(self):
        cfg = parse_config_text("duration = 100\n")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_batch_longer_than_flight_names_pmht_t(self):
        # 15 scans every 10 s span 150 s: a 149 s flight never closes a batch
        cfg = parse_config_text(SAMPLE.replace("duration = 600", "duration = 149"))
        with pytest.raises(ConfigError, match="pmht.T"):
            cfg.validate()
        parse_config_text(SAMPLE.replace("duration = 600", "duration = 150")).validate()
        cfg.aiding = False
        cfg.validate()

    @pytest.mark.parametrize("duration, ok", [
        ("0.5", False), ("1", True), (f"{MAX_INS_STEPS}", True),
        (f"{MAX_INS_STEPS + 0.5}", False), ("1e12", False), ("nan", False),
    ])
    def test_duration_from_one_ins_step_to_the_step_cap(self, duration, ok):
        # A standing flight stays on the map however long it is, so only the
        # cap stops it; validate() must not build the route to find that out.
        cfg = parse_config_text(SAMPLE.replace("duration = 600", f"duration = {duration}")
                                + "velocity = 0,0\naiding = false\n")
        if ok:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match="duration"):
                cfg.validate()

    def test_validation_catches_bad_mode(self):
        cfg = parse_config_text(SAMPLE + "fusion.mode = diagonal\n")
        with pytest.raises(ConfigError):
            cfg.validate()


class TestSerialize:
    def test_round_trip_stable(self):
        cfg = parse_config_text(SAMPLE)
        text = serialize_config(cfg)
        again = serialize_config(parse_config_text(text))
        assert text == again

    def test_unset_map_keys_left_out(self):
        def keys(text):
            lines = serialize_config(parse_config_text(text)).splitlines()
            return [line.split(" = ")[0] for line in lines]

        assert [k for k in keys("map.file = m.asc\n") if k.startswith("map.")] == ["map.file"]
        gen_keys = [k for k in keys("map.rows = 10\n") if k.startswith("map.")]
        assert "map.file" not in gen_keys and "map.bumps" not in gen_keys
        assert "map.rows" in gen_keys

    def test_hash_tracks_content(self):
        a = parse_config_text(SAMPLE)
        b = parse_config_text(SAMPLE.replace("duration = 600", "duration = 601"))
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(parse_config_text(SAMPLE))


class TestRanges:
    @pytest.mark.parametrize("key", [k for k in KEYS if (k.gt, k.ge, k.le) != (None,) * 3],
                             ids=lambda k: k.name)
    def test_value_out_of_range_names_key(self, key):
        if key.le is not None:
            bad = key.le + 1
        else:
            bad = key.gt if key.gt is not None else key.ge - 1
        cfg = parse_config_text(SAMPLE)
        cfg.validate()
        key.set(cfg, str(bad))
        with pytest.raises(ConfigError, match=key.name):
            cfg.validate()

    @pytest.mark.parametrize("key", [k for k in KEYS if k.choices is not None],
                             ids=lambda k: k.name)
    def test_unknown_choice_names_key(self, key):
        cfg = parse_config_text(SAMPLE)
        for choice in key.choices:
            key.set(cfg, choice)
            cfg.validate()
        key.set(cfg, "sideways")
        with pytest.raises(ConfigError, match=key.name):
            cfg.validate()

    @pytest.mark.parametrize("text", ["fusion.nis_gate = off", "fusion.q_accel = auto",
                                      "init.bias_sigma = auto"])
    def test_unset_sentinel_skips_range(self, text):
        parse_config_text(SAMPLE + text + "\n").validate()


# config_hash values computed before the key table replaced the per-key code;
# a change here changes every campaign's identity.
PINNED_HASHES = [
    ("corridor.cfg", "e3c8939216196dcbd328f16e6813b1ff5aba2e755fd37664bbe4ef4887abb6b0"),
    ("demo.cfg", "fb15e7451e91bb8bd70541a929c010f92de27005870f1685f971b7d60ae5ef49"),
    ("map.file = map.asc\nfusion.nis_gate = off\nfusion.q_accel = 2.5e-9\n"
     "init.bias_sigma = 1e-6\n",
     "4485c95ed4529833432c5f477cf66081454b14f20f5a554bd7a28b49da12e8a6"),
]


@pytest.mark.parametrize("source, digest", PINNED_HASHES, ids=["corridor", "demo", "map-file"])
def test_config_hash_pinned(source, digest):
    if source.endswith(".cfg"):
        cfg = parse_config(os.path.join(CONFIGS, source))
    else:
        cfg = parse_config_text(source)
    assert config_hash(cfg) == digest


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _values(key):
    """Stored values of one key, drawn from its codec and range."""
    kind = key.codec.kind
    if kind == "int":
        strategy = st.integers(min_value=-2**31 if key.ge is None else int(key.ge),
                               max_value=2**31)
    elif kind == "float":
        low = key.gt if key.gt is not None else key.ge
        strategy = st.floats(min_value=low, max_value=key.le, exclude_min=key.gt is not None,
                             allow_nan=False, allow_infinity=False)
    elif key.choices is not None:
        strategy = st.sampled_from(list(key.choices))
    elif kind == "str":
        strategy = st.text(string.ascii_letters + string.digits + "-_./", max_size=12)
    elif kind == "bool":
        strategy = st.booleans()
    elif kind == "vec2":
        strategy = st.tuples(_FINITE, _FINITE)
    else:
        assert kind == "bumps"
        width = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
        bump = st.builds(GaussianBump, _FINITE, _FINITE, _FINITE, width)
        strategy = st.lists(bump, max_size=3).map(tuple)
    return st.none() | strategy if key.none else strategy


_SECTIONS = {"ins": InsParams, "gravimeter": GravimeterParams, "pmht": PmhtParams,
             "fusion": FusionParams, "init": InitParams, "monte_carlo": MonteCarloParams,
             "divergence": DivergenceParams}


@st.composite
def configs(draw):
    fields = {}
    for key in KEYS:
        fields.setdefault(key.section, {})[key.field] = draw(_values(key))
    if draw(st.booleans()):
        source = MapSource(file=fields["map"]["file"])
    else:
        source = MapSource(gen=MapGenParams(**fields["map.gen"]))
    return ScenarioConfig(map=source, **fields[""],
                          **{name: cls(**fields[name]) for name, cls in _SECTIONS.items()})


@given(configs())
def test_parse_inverts_serialize(cfg):
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_tracker_and_gate_settings_have_one_default():
    """No library parameter or field restates a PmhtParams or FusionParams default."""
    names = {f.name for cls in (PmhtParams, FusionParams) for f in dataclasses.fields(cls)}
    copies = []
    for module in (geomap, assoc, pmht, fusion):
        for attr in module.__all__:
            obj = getattr(module, attr)
            if dataclasses.is_dataclass(obj):
                defaulted = [f.name for f in dataclasses.fields(obj)
                             if f.default is not dataclasses.MISSING
                             or f.default_factory is not dataclasses.MISSING]
            elif inspect.isfunction(obj):
                defaulted = [p.name for p in inspect.signature(obj).parameters.values()
                             if p.default is not p.empty]
            else:
                continue
            copies += [f"{module.__name__}.{attr}: {name}" for name in defaulted
                       if name in names]
    assert copies == []
