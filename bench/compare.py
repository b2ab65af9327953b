"""List the answers that differ between two benchmark result files.

    python3 bench/compare.py bench/results/frontier-seed1-trace0.json OTHER.json

Each operation's answer fingerprint (status, certified, pattern, J_upper
to 4 digits, outer iterations and sweeps; exit code for verify) is
compared field by field.  Exits 0 when every answer agrees, 1 otherwise.
"""

import json
import sys


def load_answers(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["answers"]


def differences(old, new):
    """Lines describing every operation or field that differs."""
    lines = []
    for op_id in sorted(set(old) | set(new)):
        if op_id not in new:
            lines.append(f"{op_id}: only in the first file")
        elif op_id not in old:
            lines.append(f"{op_id}: only in the second file")
        else:
            for key in sorted(set(old[op_id]) | set(new[op_id])):
                a, b = old[op_id].get(key), new[op_id].get(key)
                if a != b:
                    lines.append(f"{op_id}: {key} {a} -> {b}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = differences(load_answers(argv[0]), load_answers(argv[1]))
    for line in lines:
        print(line)
    print(f"{len(lines)} difference(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
