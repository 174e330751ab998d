"""The one telemetry.csv writer, `write_csv`, and both ends of the pipe
that streams a long log to it in a writer process.

    python -I -S _csv_sink.py <path> <name>...

`sim.Telemetry` writes a short log inline; a long one it streams, through
a `CsvWriter`, to this script in a fresh interpreter while the loop runs.
The script's arguments are the file and its column names; its stdin
carries frames, each an 8-byte little-endian length and that many bytes:
chunks of rows as native float64 values, row-major, then an empty frame
that ends the stream.  If the stream ends without the empty frame, the
partial file is deleted and the script exits with status 1, the error on
stderr.  The module imports only the standard library, so the process
starts without numpy; `sim` imports it only when a log is written.
"""
import array
import os
import struct
import sys

FRAME_LEN = struct.Struct("<q")
# The pipe to a writer, where the OS lets it grow (Linux's F_SETPIPE_SZ,
# up to the fs.pipe-max-size sysctl): on a 2-core host the 11.5 s UAV run
# spends 1-3 ms in its 47 sends at 1 MiB, 17-22 ms at the default 64 KiB.
_PIPE_BYTES = 1 << 20


def format_rows(values, ncol: int) -> str:
    """CSV lines of `values`, a flat row-major sequence of floats with
    `ncol` a row: every value as repr(float), "," between values and a
    newline after each row."""
    strs = list(map(repr, values))
    # zip(*[iter(strs)] * ncol) yields the rows
    return "\n".join(map(",".join, zip(*[iter(strs)] * ncol))) + "\n"


def write_csv(path, names, chunks):
    """Write the header line of the column `names`, then `format_rows` of
    each of `chunks` (flat row-major float sequences).  If writing or
    `chunks` fails, the partial file is deleted and the error raised."""
    ncol = len(names)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        try:
            fh.write(",".join(names) + "\n")
            for chunk in chunks:
                fh.write(format_rows(chunk, ncol))
        except BaseException:
            fh.close()
            os.remove(path)
            raise


class CsvWriter:
    """The writer process of one telemetry.csv, fed frames through its
    stdin.  A writer that has exited takes no more frames; `close`
    reports its failure."""

    def __init__(self, path, header):
        import subprocess
        self.path = os.fspath(path)
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__), self.path,
             *header],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            import fcntl
            fcntl.fcntl(self.proc.stdin.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (ImportError, AttributeError, OSError):
            pass    # the default pipe: the same bytes, more blocking
        self.exited = False

    def send(self, payload):
        """Send one frame: `payload` is bytes or a C-contiguous array."""
        if self.exited:
            return
        try:
            self.proc.stdin.write(FRAME_LEN.pack(memoryview(payload).nbytes))
            self.proc.stdin.write(payload)
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.exited = True

    def close(self, complete: bool):
        """End the stream with its end frame (`complete`) or without it, so
        the writer deletes its partial file; wait for the writer.  OSError
        if a complete stream's writer failed."""
        if complete:
            self.send(b"")
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        err = self.proc.stderr.read().decode(errors="replace").strip()
        self.proc.stderr.close()
        if self.proc.wait() and complete:
            raise OSError(f"telemetry writer of {self.path} failed: "
                          f"{err.splitlines()[-1] if err else 'no message'}")


def _frames(stream):
    """The rows of each frame before the end frame, as flat float lists;
    EOFError if the stream stops first."""
    while True:
        head = stream.read(FRAME_LEN.size)
        if len(head) != FRAME_LEN.size:
            raise EOFError("the stream ended without its end frame")
        (n,) = FRAME_LEN.unpack(head)
        if n == 0:
            return
        body = stream.read(n)
        if len(body) != n:
            raise EOFError("the stream ended inside a frame")
        yield array.array("d", body).tolist()


if __name__ == "__main__":
    write_csv(sys.argv[1], sys.argv[2:], _frames(sys.stdin.buffer))
