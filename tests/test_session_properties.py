"""Properties of TrackingSession.process_frame on drawn frame sequences.

Each sequence walks a few people over the ground in front of the camera and
turns them into detections the way a noisy detector would: some joints
missing, some pixels NaN, boxes that do not fit, box-only clutter, a
re-identification hint that is right, wrong, out of range or absent, and
time steps that are regular, long, zero, backwards or NaN. Whatever the
input, every frame must keep the session's promises:

- a frame that reports Tracking has a finite target_xy, and only then one;
- matches, spawned and unmatched_detections partition the detections;
- track ids are unique;
- only NonMonotonicTimestampError escapes, for a frame whose timestamp is
  not finite or does not advance, and after one the session goes on to
  accept the next frame. A detection that cannot place the target,
  whatever its pixels, is skipped rather than raised.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtrack.association import BoundingBox
from jointtrack.config import CameraSetup, RunConfig
from jointtrack.errors import NonMonotonicTimestampError
from jointtrack.geometry import JOINT_ORDER, joint_position, project_points
from jointtrack.pipeline import Detection, Frame, JointDetection, SessionStatus, TrackingSession
from jointtrack.prior import PriorModel

SETUP = CameraSetup.from_dict(
    {
        "fx": 500.0,
        "fy": 500.0,
        "cx": 320.0,
        "cy": 240.0,
        "image_width": 640,
        "image_height": 480,
        "camera_height_m": 1.2,
        "tilt_rad": 0.1,
    }
)
HEIGHTS = PriorModel(h_neck=1.45, h_hip=0.92, h_knee=0.48).heights

time_steps = st.one_of(
    st.floats(0.02, 0.05),
    st.floats(0.02, 0.05),
    st.floats(0.02, 0.05),
    st.floats(0.3, 3.0),
    st.sampled_from([1e-6, 0.0, -0.02, float("nan")]),
)


def person_detection(draw, gx, gy):
    """One person's detection at ground point (gx, gy), or None when the
    person is not in front of the camera."""
    ankle = SETUP.ground.to_camera(gx, gy)
    if ankle[2] <= 0.2:
        return None
    pixels = project_points(SETUP.camera, joint_position(ankle, SETUP.ground, HEIGHTS))
    pixels = pixels + np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=8, max_size=8))).reshape(4, 2)
    joints = {}
    for kind, pixel in zip(JOINT_ORDER, pixels):
        if draw(st.integers(0, 9)) < 2:
            continue  # occluded or not detected
        if draw(st.integers(0, 29)) == 0:
            pixel = np.array([draw(st.sampled_from([np.nan, pixel[0]])), np.nan])
        joints[kind] = JointDetection(pixel=pixel, confidence=draw(st.floats(0.0, 1.0)))
    width = 500.0 * 0.5 / ankle[2] * draw(st.floats(0.7, 1.3))
    top, bottom = pixels[:, 1].min(), pixels[:, 1].max()
    box = BoundingBox(
        u=float(pixels[3, 0]) + draw(st.floats(-10.0, 10.0)),
        v=float(0.5 * (top + bottom)),
        w=float(width),
        h=float(max(bottom - top, 1.0)),
    )
    return Detection(box=box, joints=joints)


def clutter_detection(draw):
    box = BoundingBox(
        u=draw(st.floats(0.0, 640.0)),
        v=draw(st.floats(0.0, 480.0)),
        w=draw(st.floats(5.0, 300.0)),
        h=draw(st.floats(5.0, 480.0)),
    )
    joints = {}
    if draw(st.booleans()):
        kind = draw(st.sampled_from(JOINT_ORDER))
        pixel = np.array([draw(st.floats(-50.0, 700.0)), draw(st.floats(-50.0, 600.0))])
        joints[kind] = JointDetection(pixel=pixel, confidence=draw(st.floats(0.0, 1.0)))
    return Detection(box=box, joints=joints)


@st.composite
def frame_sequences(draw):
    people = [
        [draw(st.floats(-2.0, 2.0)), draw(st.floats(-0.5, 8.0))]
        for _ in range(draw(st.integers(1, 3)))
    ]
    velocities = [[draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))] for _ in people]
    frames, t = [], draw(st.floats(0.0, 10.0))
    for _ in range(draw(st.integers(1, 40))):
        step = draw(time_steps)
        stamp = t + step
        if math.isfinite(stamp):
            t = stamp
        for pos, vel in zip(people, velocities):
            if math.isfinite(step) and step > 0:
                pos[0] += vel[0] * min(step, 3.0)
                pos[1] += vel[1] * min(step, 3.0)
        detections = []
        for pos in people:
            if draw(st.integers(0, 9)) < 8:
                det = person_detection(draw, pos[0], pos[1])
                if det is not None:
                    detections.append(det)
        detections += [clutter_detection(draw) for _ in range(draw(st.integers(0, 2)))]
        order = draw(st.permutations(range(len(detections))))
        detections = [detections[i] for i in order]
        hint = draw(st.one_of(st.none(), st.none(), st.integers(-1, len(detections) + 1)))
        frames.append(Frame(timestamp=stamp, detections=detections, reid_target_hint=hint))
    return frames


def check_result(frame, result):
    if result.status is SessionStatus.TRACKING:
        assert result.target_location is not None
        assert np.isfinite(result.target_location).all()
    else:
        assert result.target_location is None
    used = [j for _, j in result.matches] + [j for _, j in result.spawned]
    used += list(result.unmatched_detections)
    assert sorted(used) == list(range(len(frame.detections)))
    ids = [track.id for track in result.tracks]
    assert len(ids) == len(set(ids))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(frame_sequences(), st.booleans())
def test_process_frame_keeps_its_promises(frames, preloaded_prior):
    config = RunConfig(prior=PriorModel() if preloaded_prior else None)
    session = TrackingSession(SETUP.camera, SETUP.ground, config, SETUP.extrinsics)
    latest = -1.0  # before every drawn timestamp
    accepted = None  # the session's last accepted timestamp
    for frame in frames:
        t = frame.timestamp
        if math.isfinite(t):
            latest = max(latest, t)
        try:
            result = session.process_frame(frame)
        except NonMonotonicTimestampError:
            assert not math.isfinite(t) or (accepted is not None and t <= accepted)
            # The session takes the next frame, here one with no detections.
            latest += 0.04
            probe = Frame(timestamp=latest)
            check_result(probe, session.process_frame(probe))
            accepted = latest
            continue
        accepted = t
        check_result(frame, result)
