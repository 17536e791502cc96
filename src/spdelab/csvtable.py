"""CSV tables with np.savetxt(fmt="%.18e", delimiter=",")'s bytes, from the
standard library alone.  Run as a script, this is a writer process, which
never imports numpy: it reads tables from stdin, each a line "rows columns
path-bytes header" and then the path and the rows' float64 values as raw
bytes, and writes each to its path.  A failed write ends it with exit
status 1 and the error's message on stderr.
"""
import os
import sys

#: table rows formatted per `%` operation, so no table's text is held whole
CHUNK_ROWS = 128


def write_table(path: str, header: str, data, n_cols: int) -> None:
    """Write a header line, then the row-major float64 values in `data`, a
    C-contiguous buffer such as their raw bytes, n_cols a row."""
    values = memoryview(data).cast("B").cast("d")
    line = ",".join(("%.18e",) * n_cols) + "\n"
    chunk = CHUNK_ROWS * n_cols
    with open(path, "w", encoding="latin1") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(values), chunk):
            part = values[lo:lo + chunk]
            fh.write(line * (len(part) // n_cols) % tuple(part))


if __name__ == "__main__":
    for head in sys.stdin.buffer:
        n_rows, n_cols, n_path, header = head[:-1].decode("latin1").split(" ", 3)
        path = os.fsdecode(sys.stdin.buffer.read(int(n_path)))
        try:
            write_table(path, header, sys.stdin.buffer.read(8 * int(n_rows) * int(n_cols)),
                        int(n_cols))
        except OSError as exc:
            sys.exit(str(exc))
