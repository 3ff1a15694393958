"""The one CSV writer: floats as %.17g, lines ended by \\r\\n, as csv.writer
writes numeric rows."""

import numpy as np

#: rows formatted by one string operation; bounds the text held at once
BLOCK_ROWS = 256


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length real columns under ``header``, BLOCK_ROWS rows at a time."""
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            block = np.column_stack([c[start : start + BLOCK_ROWS] for c in columns])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
