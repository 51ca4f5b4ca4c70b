"""Exception hierarchy.

Two top-level branches so the CLI can map failures onto exit codes:
input problems (bad files, bad config, bad arguments) exit with 2,
computation problems exit with 3.
"""


class AirtwinError(Exception):
    """Base class for all package errors."""


class InputError(AirtwinError):
    """Invalid input: files, configuration, or argument combinations."""


class ComputationError(AirtwinError):
    """A computation could not be carried out on otherwise valid input."""


class SceneSchemaError(InputError):
    """Scene (or pattern table / mapping) file failed to parse or violates the schema."""


class SceneValidationError(InputError):
    """Scene parsed fine but violates a semantic invariant; message names the field."""


class EmptyGridError(InputError):
    """Voxelization produced zero voxels."""


class EmptySetError(InputError):
    """An operation that needs at least one sample received none."""


class SizeError(InputError):
    """A dataset is too small for the requested operation."""


class BoundsError(InputError):
    """A steering angle lies outside its sub-beam's bounds (or off its lattice)."""


class IncompleteAssignmentError(InputError):
    """A beam assignment does not cover every sub-beam of the scene."""


class UnknownCellError(InputError):
    """A cell id was referenced that does not exist in the scene."""


class ConfigurationError(InputError):
    """Inconsistent optimizer configuration (e.g. an empty candidate set)."""


class LayerError(InputError):
    """Requested altitude does not correspond to any voxel layer of the grid."""


class DimensionError(InputError):
    """Two fields that must share a grid do not."""


class SingularityError(ComputationError):
    """An evaluation point coincides with a site, or is too close to it for a finite path loss."""
