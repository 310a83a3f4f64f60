"""Dual-view contrastive pre-training and structure prompt tuning for graphs."""

from .autodiff import (
    AdamState,
    CsrMatrix,
    Tape,
    Tensor,
    absolute,
    adam_step,
    add,
    backward,
    dropout,
    masked_infonce,
    matmul,
    mul,
    relu,
    row_sum,
    rsqrt,
    spmm,
    transpose,
)
from .data import (
    Checkpoint,
    SplitSpec,
    export_weight_matrix,
    generate_sbm,
    load_checkpoint,
    load_node_dataset,
    load_tu_dataset,
    mask_training_labels,
    sample_k_shot,
    save_checkpoint,
    save_node_dataset,
)
from .encoders import EncoderParams, freeze, gnn_forward, init_encoder_params, mlp_forward
from .errors import (
    ContractError,
    DataError,
    DimensionError,
    FormatError,
    NumericError,
    ParameterError,
    PspError,
)
from .graph import (
    GraphData,
    LabeledSet,
    NormalizedPromptOperator,
    PromptedGraph,
    SelfLoopedBase,
    build_csr,
    gcn_normalize,
    mean_readout,
)
from .inference import class_mean_rows, evaluate, predict
from .parallel import fork_map
from .pretrain import PretrainConfig, ntxent_pretrain_loss, pretrain
from .prompt import (
    PromptConfig,
    TaskContext,
    accuracy,
    init_edge_weights,
    prompt_loss,
    prompt_tune,
    prompted_layer,
    prototype_embeddings,
    restrict_edge_ratio,
    task_context,
)

__version__ = "0.1.0"
