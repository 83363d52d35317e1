"""Child of the traced pass: the column codec with numpy forced off.

Run as ``REPRO_NO_NUMPY=1 python codec_pure.py FRAMES.bcap``.  Decodes
and re-encodes every batch frame of the file with the stdlib-``array``
backend, checks the bytes come back identical, and prints one JSON
object: ``{"decode_s": ..., "encode_s": ..., "identical": ...}``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.columnar import decode_batch, encode_batch, have_numpy  # noqa: E402
from repro.runtime.replay import iter_binary_frames, read_binary_header  # noqa: E402


def main(path: str) -> int:
    if have_numpy():
        print("codec_pure.py must run with REPRO_NO_NUMPY=1", file=sys.stderr)
        return 2
    with open(path, "rb") as stream:
        read_binary_header(stream)
        frames = list(iter_binary_frames(stream))
    start = time.perf_counter()
    batches = [decode_batch(frame) for frame in frames]
    decoded = time.perf_counter()
    encoded = [encode_batch(batch) for batch in batches]
    end = time.perf_counter()
    print(json.dumps({
        "decode_s": decoded - start,
        "encode_s": end - decoded,
        "identical": encoded == frames,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
