"""Time lcframe's set-up in a fresh process.

Usage: python3 setup_probe.py SRC_DIR FILE.surf...

Reads the .surf files, then times ``import lcframe`` plus building a
SurfaceDef from every text (parse, symbolic derivatives, closure
compilation), and prints the seconds taken.
"""

import json
import sys
import time


def main(argv):
    src, paths = argv[0], argv[1:]
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    start = time.perf_counter()
    sys.path.insert(0, src)
    from lcframe.surface import SurfaceDef

    for text in texts:
        SurfaceDef.from_dict(json.loads(text))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
