"""Time the set-up a fresh interpreter pays before its first frame.

    python3 perfbench/setup_probe.py <src dir> <camera.json> <run.json>

Imports jointtrack from <src dir>, loads both configs with the public
loaders and constructs a TrackingSession; prints the elapsed seconds and
then the calibration kernel's time in this interpreter (see
calibration.py), measured after the set-up so that it does not import
numpy first.
"""

import sys
import time

start = time.perf_counter()
src, camera_path, run_path = sys.argv[1:4]
sys.path.insert(0, src)

import jointtrack  # noqa: E402

setup = jointtrack.load_camera_config(camera_path)
config = jointtrack.load_run_config(run_path)
jointtrack.TrackingSession(setup.camera, setup.ground, config, setup.extrinsics)
elapsed = time.perf_counter() - start

from calibration import kernel_s  # noqa: E402

print(repr(elapsed), repr(kernel_s()))
