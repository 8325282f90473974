"""One fresh-process library set-up, timed by its parent.

Reads a JSON header line (``shapes`` and byte ``sizes``) and then the
input bytes from stdin, before importing anything from the package.
It then imports :mod:`repro`, constructs one parser per shape, and
parses and serialises each input.  It prints one JSON line with the
SHA-256 of each Feather result, which the parent checks against its
own parse.
"""

import hashlib
import json
import sys


def main() -> None:
    header = json.loads(sys.stdin.buffer.readline())
    blobs = [sys.stdin.buffer.read(size) for size in header["sizes"]]
    from common import feather_of, SHAPES
    digests = [hashlib.sha256(feather_of(blob, SHAPES[shape].options))
               .hexdigest()
               for shape, blob in zip(header["shapes"], blobs)]
    print(json.dumps({"digests": digests}), flush=True)


if __name__ == "__main__":
    main()
