"""Joint image denoising/interpolation as mixed-graph MAP filtering."""

from .denoisers import (
    KernelParams,
    bilateral_matrix,
    gaussian_matrix,
    identity_operator,
    nlm_matrix,
    sinkhorn_balance,
)
from .graphcore import (
    DenoiserOperator,
    DirectedInterpGraph,
    RandomWalkView,
    UndirectedGraph,
    certify_denoiser,
    denoiser_to_laplacian,
    glr,
    gsv,
    interpolator_to_adjacency,
)
from .interpolators import (
    Homography,
    InterpolatorOperator,
    PatchJob,
    Rotation,
    pad_full_rank,
    tile_image,
)
from .jointsolver import (
    BlockSystem,
    JointSolution,
    SolverWeights,
    block_inverse,
    derive_operators,
    joint_nonseparable,
    joint_separable,
    map_denoise,
    map_interpolate,
)
from .pipeline import (
    ExperimentConfig,
    ImageBuffer,
    PsnrCurve,
    add_gaussian_noise,
    load_image,
    psnr,
    run_experiment,
    save_image,
    synthetic_texture,
)

__version__ = "0.1.0"
