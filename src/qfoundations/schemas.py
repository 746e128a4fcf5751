"""JSON Schemas for every document the command line emits or accepts.

The same dictionaries back three uses: validating scenario configs before a
run, validating emitted artifacts in the test-suite, and the `schema` verb
which prints them.  `write_schemas` dumps them into a directory; the copies
under docs/schemas are generated that way and shipped with the repository.
Configs are checked by `errors`, which knows just the KEYWORDS used here, so
a run needs no jsonschema; the tests check `errors` against jsonschema.
"""

from __future__ import annotations

import json
import numbers
import operator
import os
import re

__all__ = ["KEYWORDS", "SCHEMAS", "errors", "write_schemas"]

_SETTING = {"enum": ["interference", "whichpath"]}
_LABEL = {"enum": ["1", "2"]}
_DIGEST = {"type": "string", "pattern": "^[0-9a-f]{64}$"}
_UNIT = {"type": "number", "minimum": 0, "exclusiveMaximum": 1}

SCENARIO_CONFIG = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "qfoundations/scenario_config.json",
    "title": "Scenario configuration",
    "type": "object",
    "properties": {
        "scenario": {
            "enum": [
                "eraser",
                "double_slit",
                "free_packet",
                "harmonic",
                "repeatability",
                "bell_chsh",
                "claims_suite",
            ]
        },
        "mode": {"enum": ["analytic", "montecarlo"]},
        "seed": {"type": "integer", "minimum": 0, "maximum": 18446744073709551615},
        "trials": {"type": "integer", "minimum": 1},
        "out": {"type": "string"},
        "formats": {
            "type": "array",
            "items": {"enum": ["csv", "json", "svg"]},
            "uniqueItems": True,
            "minItems": 1,
        },
        "workers": {"type": "integer", "minimum": 1},
        "left": _SETTING,
        "right": _SETTING,
        "theta": {"type": ["number", "null"], "minimum": 0, "maximum": 1.5707963267948966},
        "right_acts_first": {"type": "boolean"},
        "qmin": {"type": "number"},
        "qmax": {"type": "number"},
        "npoints": {"type": "integer", "minimum": 64},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "steps": {"type": "integer", "minimum": 1},
        "save_every": {"type": "integer", "minimum": 1},
        "sigma": {"type": "number", "exclusiveMinimum": 0},
        "separation": {"type": "number", "exclusiveMinimum": 0},
        "omega": {"type": "number", "exclusiveMinimum": 0},
        "x0": {"type": "number"},
        # the CHSH table holds (count + 1)**4 doubles: a bell_chsh run peaks
        # at 98 MiB RSS at 44 steps, 104 MiB at 45
        "grid_step_count": {"type": "integer", "minimum": 4, "maximum": 44},
    },
    "required": ["scenario", "mode", "seed", "trials", "out", "formats"],
    "additionalProperties": False,
}

TEST_REPORT = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "qfoundations/test_report.json",
    "title": "Statistical test report",
    "type": "object",
    "properties": {
        "test": {"type": "string"},
        "statistic": {"type": "number"},
        "threshold": {"type": "number"},
        "verdict": {"enum": ["violated", "satisfied", "inconclusive"]},
        "n": {"type": "integer", "minimum": 0},
        "mode": {"enum": ["analytic", "monte-carlo"]},
        "details": {"type": "object"},
    },
    "required": ["test", "statistic", "threshold", "verdict", "n", "mode", "details"],
    "additionalProperties": False,
}

_RECORD_ENTRY = {
    "type": "array",
    "prefixItems": [{"type": "integer", "minimum": 0}, _LABEL],
    "minItems": 2,
    "maxItems": 2,
}

PATH_RECORDS = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "qfoundations/path_records.json",
    "title": "Hidden path records",
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "hidden": {
                "type": "object",
                "properties": {
                    "label_L": _LABEL,
                    "label_R": _LABEL,
                    "x_L": _UNIT,
                    "x_R": _UNIT,
                },
                "required": ["label_L", "label_R", "x_L", "x_R"],
                "additionalProperties": False,
            },
            "settings": {
                "type": "object",
                "properties": {"left": _SETTING, "right": _SETTING},
                "required": ["left", "right"],
                "additionalProperties": False,
            },
            "record_L": {"type": "array", "items": _RECORD_ENTRY, "minItems": 1},
            "record_R": {"type": "array", "items": _RECORD_ENTRY, "minItems": 1},
            "outcome": {
                "type": "object",
                "properties": {
                    "left": {"type": "string", "pattern": "^L[1-4]$"},
                    "right": {"type": "string", "pattern": "^R[1-4]$"},
                },
                "required": ["left", "right"],
                "additionalProperties": False,
            },
        },
        "required": ["hidden", "settings", "record_L", "record_R", "outcome"],
        "additionalProperties": False,
    },
}

JOINT_DISTRIBUTION = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "qfoundations/joint_distribution.json",
    "title": "Joint detector distribution",
    "type": "object",
    "properties": {
        "settings": {
            "type": "object",
            "properties": {"left": _SETTING, "right": _SETTING},
            "required": ["left", "right"],
        },
        "mode": {"enum": ["analytic", "montecarlo"]},
        "n": {"type": "integer", "minimum": 0},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "left": {"type": "string", "pattern": "^L[1-4]$"},
                    "right": {"type": "string", "pattern": "^R[1-4]$"},
                    "probability": {"type": "number", "minimum": 0, "maximum": 1},
                    "exact": {"type": "string"},
                    "count": {"type": "integer", "minimum": 0},
                },
                "required": ["left", "right", "probability"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["settings", "mode", "entries"],
    "additionalProperties": False,
}

EQUIVARIANCE_REPORT = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "qfoundations/equivariance_report.json",
    "title": "Trajectory ensemble diagnostics",
    "type": "object",
    "properties": {
        "statistic": {"type": "number", "minimum": 0},
        "threshold": {"type": "number", "exclusiveMinimum": 0},
        "verdict": {
            "title": "invalid if more than 1% of trajectories are absorbed or, in 1D, if "
                     "order_swaps > 0; else pass if statistic < threshold, else fail",
            "enum": ["pass", "fail", "invalid"],
        },
        "n": {"type": "integer", "minimum": 1},
        "n_absorbed": {"type": "integer", "minimum": 0},
        "order_swaps": {"title": "1D: pairs of trajectories that swap order between saved "
                                 "steps; null in 2D", "type": ["integer", "null"], "minimum": 0},
        "norm_drift": {"type": "number", "minimum": 0},
        "final_time": {"type": "number"},
    },
    "required": ["statistic", "threshold", "verdict", "n", "n_absorbed"],
    "additionalProperties": False,
}

CHSH_RESULT = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "qfoundations/chsh_result.json",
    "title": "CHSH evaluation",
    "type": "object",
    "properties": {
        "s_max": {"type": "number"},
        "settings": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 4,
            "maxItems": 4,
        },
        "grid_value": {"type": "number"},
        "grid_settings": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 4,
            "maxItems": 4,
        },
        "exact_value": {"type": ["string", "null"]},
        "local_model_max": {"type": "number"},
        "local_models": {"type": "integer", "minimum": 1},
        "monte_carlo": {
            "type": ["object", "null"],
            "properties": {
                "estimate": {"type": "number"},
                "standard_error": {"type": "number", "minimum": 0},
                "n_per_setting": {"type": "integer", "minimum": 1},
            },
            "required": ["estimate", "standard_error", "n_per_setting"],
        },
    },
    "required": ["s_max", "settings", "grid_value", "grid_settings", "local_model_max"],
    "additionalProperties": False,
}

# inline copy so validators need no $ref resolution machinery
_TEST_REPORT_INLINE = {k: v for k, v in TEST_REPORT.items() if not k.startswith("$")}

CLAIMS_SUITE = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "qfoundations/claims_suite.json",
    "title": "Claims suite results",
    "type": "object",
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "claims": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "claim": {"type": "string"},
                    "expected_verdict": {"enum": ["violated", "satisfied", "inconclusive"]},
                    "report": _TEST_REPORT_INLINE,
                    "matches": {"type": "boolean"},
                },
                "required": ["claim", "expected_verdict", "report", "matches"],
                "additionalProperties": False,
            },
        },
        "all_match": {"type": "boolean"},
    },
    "required": ["seed", "claims", "all_match"],
    "additionalProperties": False,
}

MANIFEST = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "qfoundations/manifest.json",
    "title": "Run manifest",
    "type": "object",
    "properties": {
        "scenario": {"type": "string"},
        "mode": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "config": {"type": "object"},
        "files": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "path": {"type": "string"},
                    "sha256": _DIGEST,
                    "bytes": {"type": "integer", "minimum": 0},
                },
                "required": ["path", "sha256", "bytes"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["scenario", "mode", "seed", "config", "files"],
    "additionalProperties": False,
}

SCHEMAS = {
    "scenario_config": SCENARIO_CONFIG,
    "test_report": TEST_REPORT,
    "path_records": PATH_RECORDS,
    "joint_distribution": JOINT_DISTRIBUTION,
    "equivariance_report": EQUIVARIANCE_REPORT,
    "chsh_result": CHSH_RESULT,
    "claims_suite": CLAIMS_SUITE,
    "manifest": MANIFEST,
}


def write_schemas(directory: str) -> list[str]:
    """Write every schema as <name>.json under `directory`; returns paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, schema in sorted(SCHEMAS.items()):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", newline="\n") as fh:
            json.dump(schema, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


# keyword -> (the comparison that fails, jsonschema's wording of it)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}
_TYPES = {"string": str, "boolean": bool, "array": list, "object": dict, "null": type(None),
          "number": numbers.Number, "integer": int}
# what `errors` checks; it skips the annotations $schema, $id and title
KEYWORDS = frozenset({*_BOUNDS, "type", "enum", "pattern", "items", "prefixItems", "minItems",
                      "maxItems", "uniqueItems", "properties", "required", "additionalProperties"})


def _is(kind: str, doc) -> bool:
    """Whether `doc` has JSON type `kind`: a bool is never a number, and an
    integral float is an integer."""
    if kind in ("integer", "number") and isinstance(doc, bool):
        return False
    return isinstance(doc, _TYPES[kind]) or kind == "integer" and isinstance(doc, float) and doc.is_integer()


def _equal(a, b) -> bool:
    """JSON equality: a bool equals no number; arrays and objects compare by item."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _unique(doc: list) -> bool:
    """Whether no two items of `doc` are JSON-equal, found as jsonschema finds
    it: items that Python can sort (no bool among them) are compared only to
    their neighbour in sorted order, so [[1], [True], [1]] passes, since
    Python sorts [True] between the two [1]s."""
    try:
        if any(isinstance(item, bool) for item in doc):
            raise TypeError
        ordered = sorted(doc)
    except TypeError:
        return not any(_equal(a, b) for i, a in enumerate(doc) for b in doc[i + 1:])
    return not any(map(_equal, ordered, ordered[1:]))


def errors(schema: dict, doc, path: str = "$"):
    """Yield (JSON path, message) for each way `doc` breaks `schema`, worded
    and, within one path, ordered as by jsonschema's Draft 2020-12 validator.
    Every keyword in KEYWORDS is checked, also after a type error."""
    for key, want in schema.items():
        if key == "type":
            kinds = [want] if isinstance(want, str) else want
            if not any(_is(kind, doc) for kind in kinds):
                yield path, f"{doc!r} is not of type {', '.join(map(repr, kinds))}"
        elif key == "enum" and not any(_equal(each, doc) for each in want):
            yield path, f"{doc!r} is not one of {want!r}"
        elif key in _BOUNDS and _is("number", doc) and _BOUNDS[key][0](doc, want):
            yield path, f"{doc!r} is {_BOUNDS[key][1]} {want!r}"
        elif key == "pattern" and isinstance(doc, str) and not re.search(want, doc):
            yield path, f"{doc!r} does not match {want!r}"
        elif key in ("prefixItems", "items") and isinstance(doc, list):
            prefix = len(schema.get("prefixItems", ()))
            for i, item in enumerate(doc):
                if (i < prefix) == (key == "prefixItems"):
                    yield from errors(want[i] if i < prefix else want, item, f"{path}[{i}]")
        elif key == "minItems" and isinstance(doc, list) and len(doc) < want:
            yield path, f"{doc!r} {'should be non-empty' if want == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(doc, list) and len(doc) > want:
            yield path, f"{doc!r} {'is expected to be empty' if want == 0 else 'is too long'}"
        elif key == "uniqueItems" and want and isinstance(doc, list) and not _unique(doc):
            yield path, f"{doc!r} has non-unique elements"
        elif key == "properties" and isinstance(doc, dict):
            for name, sub in want.items():
                if name in doc:
                    yield from errors(sub, doc[name], f"{path}.{name}")
        elif key == "required" and isinstance(doc, dict):
            yield from ((path, f"{name!r} is a required property") for name in want if name not in doc)
        elif key == "additionalProperties" and want is False and isinstance(doc, dict):
            extras = sorted((k for k in doc if k not in schema.get("properties", {})), key=str)
            if extras:
                yield path, "Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
