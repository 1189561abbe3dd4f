"""``python -m repro.analysis.census`` prints each ``src/repro`` function the
product runs call, as ``path:line qualname`` (DESIGN.md "A test is not a
customer"), then an ``# INCOMPLETE`` line and exit status 1 per failed run.
``benchmarks/`` runs in quick mode with pytest-benchmark's timer off (it pauses
profilers) and rewrites ``bench_results/`` and ``BENCH_*.json``; ``bench/`` runs
at smoke size.  Forked children dump their set from a wrapped ``os._exit``."""

import contextlib
import os
import pathlib
import runpy
import shutil
import sys
import tempfile
from inspect import CO_NEWLOCALS

ROOT = pathlib.Path(__file__).resolve().parents[3]
SRC = str(ROOT / "src" / "repro") + os.sep


class Census:
    """Records while entered; :meth:`names` then adds every exited child's."""

    def __init__(self) -> None:
        self.seen, self.dumps = set(), tempfile.mkdtemp(prefix="repro-census-")

    def _mine(self) -> set[str]:
        return {f"{c.co_filename[len(SRC):]}:{c.co_firstlineno} {c.co_qualname}" for c in self.seen
                if c.co_filename.startswith(SRC) and c.co_flags & CO_NEWLOCALS}  # no class bodies

    def __enter__(self) -> "Census":
        self._exit, add = os._exit, self.seen.add

        def child_exit(status: int) -> None:
            sys.setprofile(None)
            with contextlib.suppress(OSError):  # a child outliving the census just exits
                pathlib.Path(self.dumps, str(os.getpid())).write_text("\n".join(self._mine()))
            self._exit(status)

        os._exit = child_exit
        sys.setprofile(lambda frame, event, _arg: event == "call" and add(frame.f_code))
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        os._exit = self._exit

    def names(self) -> set[str]:
        found = self._mine()
        for dump in pathlib.Path(self.dumps).iterdir():
            found.update(dump.read_text().splitlines())
        shutil.rmtree(self.dumps)
        return found


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Entered before the imports: some functions run only at import time.
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sys.stderr), Census() as census:
        import pytest
        from bench import run
        from repro.crypto import numtheory
        from repro.scenarios import congestion
        ok = {"benchmarks": not pytest.main(["-p", "no:cacheprovider", "--benchmark-disable",
                                             str(ROOT / "benchmarks")])}
        ok["bench"] = all([(p := run.end_to_end_pass(w, 42, 0.0, run.SIZES["smoke"])).correct and not p.failed
                           for w in run.WORKLOADS.values()])
        for path in sorted((ROOT / "examples").glob("*.py")):  # a failing example raises
            runpy.run_path(str(path), run_name="__main__")
        ok["congestion"] = not congestion.main(["--smoke", "--seed", "11", "--out", out])
        numtheory._HELPERS.close()  # the helpers exit, and dump, now
    names = sorted(census.names())
    print("\n".join(names + [f"# {len(names)} functions"]
                    + [f"# INCOMPLETE: {family} failed" for family, passed in ok.items() if not passed]))
    return 0 if all(ok.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
