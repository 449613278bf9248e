"""Schedule-robust online class-incremental learning over embeddings."""

from .adapt import (
    AdaptConfig,
    AdaptedPredictor,
    AdapterParams,
    adadelta_step,
    adapt,
    forward,
    init_adapter,
    init_head,
    load_predictor,
    loss_and_grads,
    save_predictor,
    write_training_curve,
)
from .embeddings import (
    EmbeddingTable,
    SyntheticSpec,
    load_embeddings,
    normalize,
    save_embeddings,
    synthesize,
)
from .errors import (
    AdaptError,
    ClassIdError,
    ConfigError,
    DataError,
    DegenerateInputError,
    FormatError,
    LinAlgFailure,
    NoClassError,
    ScrollError,
    ShapeError,
    StreamReuseError,
)
from .harness import (
    DataConfig,
    ExperimentConfig,
    RobustnessReport,
    RunReport,
    buffer_study,
    execute,
    robustness_sweep,
    run,
    write_study_summary,
)
from .learners import LinearHead, NccState, RidgeState, load_state, save_state
from .replay import (
    ReplayBuffer,
    herding_order,
    load_buffer,
    save_buffer,
    write_moment_csv,
)
from .schedules import Batch, Schedule, ScheduleSpec, build_schedule, iter_batches

__version__ = "0.1.0"
