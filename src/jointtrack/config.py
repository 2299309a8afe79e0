"""Configuration files: camera setup and run tunables.

Camera config (JSON), parsed once at startup; a key not shown below is
an error, and the image size must be integers, which are not rounded:

    {
      "fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
      "image_width": 640, "image_height": 480,
      "camera_height_m": 1.2, "tilt_rad": 0.1,
      "robot_offset_m": [0.0, 0.0, 0.0]        # optional, camera position
    }                                           # in the robot frame

Run config (JSON) carries every tunable with the defaults below; a fitted
prior model may be embedded under "prior" to skip full-body bootstrapping.
A key not shown below, at the top level or in "prior", is an error, and
the lifecycle counters (max_misses, confirm_hits, tentative_max_misses)
must be integers; they are not rounded. Only an absent or null "prior"
means no prior:

    {
      "gate_px": 80.0, "max_misses": 15, "confirm_hits": 3,
      "tentative_max_misses": 3, "min_confidence": 0.3,
      "use_joints": ["neck", "hip", "knee", "ankle"],
      "initial_position_sigma_m": 0.5, "initial_velocity_sigma_ms": 1.0,
      "ukf": {"alpha": 0.5, "beta": 2.0, "kappa": 0.0,
              "process_accel_sigma": 2.0,
              "joint_pixel_sigma": {"neck": 4.0, "hip": 6.0,
                                     "knee": 8.0, "ankle": 10.0}},
      "prior": {"h_neck": 1.4, "h_hip": 0.95, "h_knee": 0.5,
                "body_width": 0.5}              # optional
    }
"""

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, TypeVar

import numpy as np

from .errors import ConfigError, JointTrackError
from .files import open_text, write_text
from .geometry import (
    JOINT_ORDER,
    CameraModel,
    GroundPlane,
    JointKind,
    RobotExtrinsics,
    ground_plane_from_tilt,
)
from .prior import PriorModel
from .ukf import UkfParams

DEFAULT_GATE_PX = 80.0
DEFAULT_MAX_MISSES = 15
DEFAULT_CONFIRM_HITS = 3
DEFAULT_TENTATIVE_MAX_MISSES = 3
DEFAULT_MIN_CONFIDENCE = 0.3
DEFAULT_INITIAL_POSITION_SIGMA = 0.5
DEFAULT_INITIAL_VELOCITY_SIGMA = 1.0

T = TypeVar("T")


def _image_size(data: Mapping[str, Any], name: str) -> int:
    """data[name] as an int; by RunConfig's rule for its counters, it must
    be an int or a numpy integer, not a bool, and nothing rounds it."""
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CameraSetup:
    """Camera intrinsics plus its relation to ground and robot frames."""

    camera: CameraModel
    ground: GroundPlane
    extrinsics: RobotExtrinsics

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CameraSetup":
        unknown = sorted(data.keys() - _CAMERA_KEYS)
        if unknown:  # a misspelled key would otherwise leave its default
            raise ValueError(f"unknown camera key(s): {', '.join(unknown)}")
        camera = CameraModel(
            fx=float(data["fx"]),
            fy=float(data["fy"]),
            cx=float(data["cx"]),
            cy=float(data["cy"]),
            image_width=_image_size(data, "image_width"),
            image_height=_image_size(data, "image_height"),
        )
        tilt = float(data["tilt_rad"])
        ground = ground_plane_from_tilt(float(data["camera_height_m"]), tilt)
        offset = np.asarray(data.get("robot_offset_m", (0.0, 0.0, 0.0)), dtype=float)
        return cls(camera=camera, ground=ground, extrinsics=RobotExtrinsics(offset=offset, tilt=tilt))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fx": self.camera.fx,
            "fy": self.camera.fy,
            "cx": self.camera.cx,
            "cy": self.camera.cy,
            "image_width": self.camera.image_width,
            "image_height": self.camera.image_height,
            "camera_height_m": self.ground.gamma,
            "tilt_rad": self.extrinsics.tilt,
            "robot_offset_m": list(self.extrinsics.offset),
        }


@dataclass(frozen=True)
class RunConfig:
    """Pipeline tunables; every field has a sensible default.

    gate_px and the initial sigmas must be finite and positive, like
    ukf's noise sigmas; a NaN gate would match nothing, without an error.
    The lifecycle counters (max_misses, confirm_hits,
    tentative_max_misses) must be ints or numpy integers, not bools, of at
    least 1.
    """

    gate_px: float = DEFAULT_GATE_PX
    max_misses: int = DEFAULT_MAX_MISSES
    confirm_hits: int = DEFAULT_CONFIRM_HITS
    tentative_max_misses: int = DEFAULT_TENTATIVE_MAX_MISSES
    min_confidence: float = DEFAULT_MIN_CONFIDENCE
    initial_position_sigma: float = DEFAULT_INITIAL_POSITION_SIGMA
    initial_velocity_sigma: float = DEFAULT_INITIAL_VELOCITY_SIGMA
    use_joints: Tuple[JointKind, ...] = JOINT_ORDER
    ukf: UkfParams = field(default_factory=UkfParams)
    prior: Optional[PriorModel] = None

    def __post_init__(self):
        for name in ("gate_px", "initial_position_sigma", "initial_velocity_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_misses", "confirm_hits", "tentative_max_misses"):
            value = getattr(self, name)
            # `value < 1` alone passes a NaN, which then never ends a track.
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if not 0 <= self.min_confidence <= 1:
            raise ValueError("min_confidence must be in [0, 1]")
        if not self.use_joints:
            raise ValueError("use_joints may not be empty")
        object.__setattr__(
            self, "use_joints", tuple(JointKind(k) for k in self.use_joints)
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        unknown = sorted(data.keys() - _RUN_CONFIG_KEYS)
        if unknown:  # a misspelled key would otherwise leave its default
            raise ValueError(f"unknown run config key(s): {', '.join(unknown)}")
        ukf_data = dict(data.get("ukf", {}))
        sigma = ukf_data.pop("joint_pixel_sigma", None)
        if sigma is not None:
            ukf_data["joint_pixel_sigma"] = {
                JointKind.from_label(name): float(v) for name, v in sigma.items()
            }
        prior_data = data.get("prior")
        return cls(
            gate_px=float(data.get("gate_px", DEFAULT_GATE_PX)),
            max_misses=data.get("max_misses", DEFAULT_MAX_MISSES),
            confirm_hits=data.get("confirm_hits", DEFAULT_CONFIRM_HITS),
            tentative_max_misses=data.get("tentative_max_misses", DEFAULT_TENTATIVE_MAX_MISSES),
            min_confidence=float(data.get("min_confidence", DEFAULT_MIN_CONFIDENCE)),
            initial_position_sigma=float(
                data.get("initial_position_sigma_m", DEFAULT_INITIAL_POSITION_SIGMA)
            ),
            initial_velocity_sigma=float(
                data.get("initial_velocity_sigma_ms", DEFAULT_INITIAL_VELOCITY_SIGMA)
            ),
            use_joints=tuple(
                JointKind.from_label(name)
                for name in data.get("use_joints", [k.label for k in JOINT_ORDER])
            ),
            ukf=UkfParams(**ukf_data),
            # Only an absent key or null means no prior; {} or 0 is an error.
            prior=None if prior_data is None else PriorModel.from_dict(prior_data),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "gate_px": self.gate_px,
            "max_misses": self.max_misses,
            "confirm_hits": self.confirm_hits,
            "tentative_max_misses": self.tentative_max_misses,
            "min_confidence": self.min_confidence,
            "initial_position_sigma_m": self.initial_position_sigma,
            "initial_velocity_sigma_ms": self.initial_velocity_sigma,
            "use_joints": [k.label for k in self.use_joints],
            "ukf": {
                "alpha": self.ukf.alpha,
                "beta": self.ukf.beta,
                "kappa": self.ukf.kappa,
                "process_accel_sigma": self.ukf.process_accel_sigma,
                "joint_pixel_sigma": {
                    k.label: self.ukf.joint_pixel_sigma[k] for k in JOINT_ORDER
                },
            },
        }
        if self.prior is not None:
            out["prior"] = self.prior.to_dict()
        return out


_CAMERA_KEYS = frozenset(
    ("fx", "fy", "cx", "cy", "image_width", "image_height", "camera_height_m", "tilt_rad",
     "robot_offset_m")
)
_RUN_CONFIG_KEYS = frozenset(RunConfig().to_dict()) | {"prior"}


def load_json(path, parse: Callable[[Any], T]) -> T:
    """parse applied to the JSON value in the file at path.

    Raises:
        FileIoError: the file could not be opened.
        ConfigError: the file is not JSON, or parse rejects its value (a
            missing field, a value of the wrong type or out of range); the
            message names the path and the cause.
    """
    with open_text(path) as fh:
        try:
            return parse(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        except KeyError as exc:
            raise ConfigError(f"{path}: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError, JointTrackError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def load_camera_config(path) -> CameraSetup:
    return load_json(path, CameraSetup.from_dict)


def load_run_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    return load_json(path, RunConfig.from_dict)


def save_run_config(path, config: RunConfig) -> None:
    """Persist a run config (e.g. with a freshly fitted prior) for reuse."""
    write_text(path, json.dumps(config.to_dict(), indent=2) + "\n")
