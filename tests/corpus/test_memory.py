"""Memory-cap regression: a million-instruction trace must stream.

The acceptance criterion for streaming generation is that trace length is
no longer bounded by resident memory: a 10^6-instruction workload
simulates to completion while peak RSS stays far below what materialising
the same trace demonstrably costs (~100 MB; streamed runs measure ~30 MB).
The run happens in a fresh subprocess that reports its own peak, so the
number reflects this workload alone, not whatever the test session
already touched.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).parents[2] / "src"
LENGTH = 1_000_000
#: twice the measured ~30 MB streamed peak, well below the ~100 MB a
#: materialised run of the same recipe costs (six resident columns)
CAP_MB = 64

#: The child's own peak RSS in MB.  A spawned child's ``ru_maxrss``
#: starts at the spawning process's resident size (Linux carries the
#: pre-exec high-water mark across exec), so inside a large test session
#: it would measure the session; ``VmHWM`` counts the new image alone.
_PEAK_MB = textwrap.dedent(
    """
    import resource

    def peak_mb():
        try:
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    """
)

_SCRIPT = _PEAK_MB + textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from repro.isa.stream import StreamingTrace
    from repro.uarch.config import core_config
    from repro.uarch.run import run_standalone
    from tests.corpus.fixture import compute_only_spec

    mix = compute_only_spec().build_mix()
    trace = StreamingTrace(mix, {length}, seed=11)
    result = run_standalone(core_config("gcc"), trace)
    assert result.instructions == {length}, result.instructions
    print(f"{{result.ipc:.6f}} {{peak_mb():.1f}}")
    """
)


def test_million_instruction_trace_streams_under_the_rss_cap():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(src=str(SRC), length=LENGTH)],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parents[2],
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ipc, peak_mb = proc.stdout.split()
    assert float(ipc) > 0
    assert float(peak_mb) < CAP_MB, (
        f"streaming run peaked at {peak_mb} MB (cap {CAP_MB} MB): "
        "the trace is being materialised somewhere"
    )


@pytest.mark.slow
def test_cap_is_not_vacuous_materialised_run_exceeds_it():
    """The companion measurement: materialising the same recipe busts the
    cap, so the assertion above genuinely distinguishes the two paths."""
    script = _PEAK_MB + textwrap.dedent(
        """
        import sys
        sys.path.insert(0, {src!r})
        from repro.isa.generator import generate_trace
        from tests.corpus.fixture import compute_only_spec

        trace = generate_trace(
            compute_only_spec().build_mix(), {length}, seed=11
        )
        trace.decoded()
        print(f"{{peak_mb():.1f}}")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script.format(src=str(SRC), length=LENGTH)],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parents[2],
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip()) > CAP_MB
