"""The in-house config validator against jsonschema, the oracle.

`schemas.errors` checks configs on every run, so a run needs no jsonschema.
It must report what jsonschema's Draft 2020-12 validator reports, with the
same path and wording and, within one path, in the same order, on configs
mutated from each scenario's defaults and on every JSON artifact a scenario
writes, whole or with one key deleted or one value of the wrong type.
"""

import contextlib
import io
import json
import operator
import os
import re
import tempfile

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfoundations import cli, pilotwave, schemas

# the schema of each JSON file a run writes, by file name
_ARTIFACT_SCHEMAS = {
    "manifest.json": "manifest",
    "joint_distribution.json": "joint_distribution",
    "transport_distribution.json": "joint_distribution",
    "joint_frequencies.json": "joint_distribution",
    "path_records.json": "path_records",
    "equivariance_report.json": "equivariance_report",
    "repeatability_with_collapse.json": "test_report",
    "repeatability_without_collapse.json": "test_report",
    "chsh_result.json": "chsh_result",
    "claims_suite.json": "claims_suite",
}

# every scenario, and each mode that writes other files, at small sizes
_RUNS = [
    ["eraser"],
    ["eraser", "--mode", "montecarlo", "--trials", "200"],
    ["double_slit", "--trials", "50", "--steps", "100"],
    ["free_packet", "--trials", "200", "--steps", "100"],
    ["harmonic", "--trials", "200", "--steps", "100"],
    ["repeatability", "--trials", "1000"],
    ["bell_chsh", "--grid-step-count", "8"],
    ["bell_chsh", "--mode", "montecarlo", "--trials", "500", "--grid-step-count", "8"],
    ["claims_suite", "--trials", "20000"],
]

_ANNOTATIONS = {"$schema", "$id", "title"}
_BY_PATH = operator.itemgetter(0)


def _oracle(schema, doc):
    """jsonschema's errors as (path, message), stably sorted by path."""
    found = jsonschema.Draft202012Validator(schema).iter_errors(doc)
    return sorted(((str(e.json_path), e.message) for e in found), key=_BY_PATH)


def _ours(schema, doc):
    return sorted(schemas.errors(schema, doc), key=_BY_PATH)


def _subschemas(schema):
    yield schema
    for key, value in schema.items():
        if key == "properties":
            for sub in value.values():
                yield from _subschemas(sub)
        elif key == "items":
            yield from _subschemas(value)
        elif key == "prefixItems":
            for sub in value:
                yield from _subschemas(sub)


def test_every_schema_keyword_is_implemented():
    for name, schema in schemas.SCHEMAS.items():
        for sub in _subschemas(schema):
            assert set(sub) <= schemas.KEYWORDS | _ANNOTATIONS, (name, sorted(set(sub) - schemas.KEYWORDS))
            # errors implements only `false` here, and writes a property's
            # path as $.name, which jsonschema does for these names alone
            assert sub.get("additionalProperties", False) is False, name
            for prop in sub.get("properties", {}):
                assert re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", prop), (name, prop)


_DELETE = object()
_STRINGS = ["eraser", "montecarlo", "analytic", "interference", "whichpath", "json", "csv", "svg"]
_SCALARS = st.one_of(
    st.integers(-3, 100),
    st.integers(),
    st.sampled_from([2**64, 2**64 - 1, 1.5707963267948966]),
    st.integers(-3, 100).map(float),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.sampled_from(_STRINGS),
    st.text(max_size=4),
)
# values that are equal, or not, only as JSON has it: a bool is no number
_NEAR_EQUAL = [0, 1, 1.0, True, False, None, "csv", "json", [1], [1.0], [True], {"a": 1}, {"a": True}]
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=4),
    st.lists(st.sampled_from(_NEAR_EQUAL), max_size=4),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
)
_KEYS = st.one_of(st.sampled_from(sorted(schemas.SCENARIO_CONFIG["properties"])), st.text(max_size=6))


@st.composite
def configs(draw):
    """A scenario's default config with a few keys set, added or deleted."""
    scenario = draw(st.sampled_from(sorted(cli._SCENARIOS)))
    cfg = {**cli._COMMON_DEFAULTS, **cli._SCENARIOS[scenario][1], "scenario": scenario,
           "out": f"out/{scenario}"}
    for key, value in draw(st.lists(st.tuples(_KEYS, st.one_of(st.just(_DELETE), _VALUES)), max_size=4)):
        if value is _DELETE:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


@settings(max_examples=400, deadline=None)
@given(configs())
def test_config_errors_match_jsonschema(cfg):
    assert _ours(schemas.SCENARIO_CONFIG, cfg) == _oracle(schemas.SCENARIO_CONFIG, cfg)


# numpy warns of overflow on extreme grids; the exit code is what is checked
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(configs())
def test_every_config_is_refused_with_a_path_or_accepted_for_good(cfg):
    """No config-decidable failure reaches the run: `_merge_config` returns
    or exits 1 at a config path, and a grid config it accepts passes the
    engines' setup and stability rules, checked here without a run."""
    scenario = cfg.pop("scenario", None)
    if not (isinstance(scenario, str) and scenario in cli._SCENARIOS):
        scenario = "eraser"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        args = cli._build_parser().parse_args(["run", scenario, "--config", path])
        try:
            with contextlib.redirect_stderr(err):
                merged = cli._merge_config(args)
        except SystemExit as refused:
            assert refused.code == 1 and "config error at $" in err.getvalue(), err.getvalue()
            return
    if cli._SCENARIOS[scenario][0] is cli._run_grid_scenario:
        psi0, params = cli._grid_setup(merged)
        vgrid = params.potential.values(psi0.grid, params.masses)
        pilotwave._check_dt(psi0.grid, params, vgrid, merged["dt"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_NEAR_EQUAL), max_size=4))
@example([[1], [True], [1]])
@example([[1], [1.0], [True]])
def test_unique_items_use_json_equality(formats):
    schema = schemas.SCENARIO_CONFIG["properties"]["formats"]
    assert _ours(schema, formats) == _oracle(schema, formats)


def test_defaults_of_every_scenario_are_valid():
    for scenario, (_, defaults) in cli._SCENARIOS.items():
        cfg = {**cli._COMMON_DEFAULTS, **defaults, "scenario": scenario, "out": "out"}
        assert list(schemas.errors(schemas.SCENARIO_CONFIG, cfg)) == [], scenario
        # mode and trials are common keys: every scenario reads them
        assert {"mode", "trials"} <= defaults.keys(), scenario


def test_errors_within_one_path_keep_keyword_order():
    # type comes before minimum in the seed's schema, as jsonschema reports them
    assert _ours(schemas.SCENARIO_CONFIG, {"seed": -1.5})[-2:] == [
        ("$.seed", "-1.5 is not of type 'integer'"),
        ("$.seed", "-1.5 is less than the minimum of 0"),
    ]


def _variants(doc):
    """Copies of `doc`, each with one key deleted, one value swapped for one
    of another type or one array a item shorter or longer, in every object
    and array reached through first items."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield {k: v for k, v in doc.items() if k != key}
            yield {**doc, key: 1 if isinstance(value, str) else "x"}
            for sub in _variants(value):
                yield {**doc, key: sub}
    elif isinstance(doc, list) and doc:
        yield doc[:-1]
        yield doc + doc[-1:]
        for sub in _variants(doc[0]):
            yield [sub, *doc[1:]]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(file name, schema name, payload) of every JSON file of every run."""
    found = []
    for k, args in enumerate(_RUNS):
        out = tmp_path_factory.mktemp("run") / str(k)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", *args, "--out", str(out), "--format", "json"]) == 0, args
        for path in sorted(out.rglob("*.json")):
            assert path.name in _ARTIFACT_SCHEMAS, f"no schema known for {path.name}"
            found.append((path.name, _ARTIFACT_SCHEMAS[path.name], json.loads(path.read_text())))
    return found


def test_artifacts_and_their_broken_copies_match_jsonschema(artifacts):
    assert {name for _, name, _ in artifacts} == set(schemas.SCHEMAS) - {"scenario_config"}
    broken = 0
    for fname, name, payload in artifacts:
        schema = schemas.SCHEMAS[name]
        assert _ours(schema, payload) == [] == _oracle(schema, payload), fname
        for variant in _variants(payload):
            ours = _ours(schema, variant)
            assert ours == _oracle(schema, variant), fname
            broken += bool(ours)
    assert broken > 300
