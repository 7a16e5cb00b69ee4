"""Validate CLI output documents against the report schema of the code under test.

    python3 validate.py SCHEMA LIST_FILE

LIST_FILE holds one document path per line.  Prints a JSON object mapping
each invalid path to its first error.  Uses `jsonschema`, the CLI's own
dependency, so it runs with the interpreter that runs the CLI.
"""

import json
import sys

import jsonschema


def main(schema_path: str, list_path: str) -> int:
    with open(schema_path) as fh:
        schema = json.load(fh)
    validator = jsonschema.validators.validator_for(schema)(schema)
    with open(list_path) as fh:
        paths = fh.read().split("\n")
    invalid = {}
    for path in filter(None, paths):
        with open(path) as fh:
            error = jsonschema.exceptions.best_match(validator.iter_errors(json.load(fh)))
        if error is not None:
            invalid[path] = error.message
    print(json.dumps(invalid))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
