"""Dual-view contrastive pre-training and structure prompt tuning for graphs."""

import importlib.util
import sys

import numpy

# `import scipy.sparse` runs `from numpy import *` (its vendored array_api_compat),
# which imports every lazy numpy submodule. psp reads neither of these, so each
# body runs only on first attribute access; numpy.ma stays eager, np.unique reads it
_DEFERRED = ("numpy.testing", "numpy.f2py")
for _name in _DEFERRED:
    if _name not in sys.modules:  # a caller may hold the real module already
        _spec = importlib.util.find_spec(_name)
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_name] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_name])
        # on numpy too, whose __getattr__ would otherwise import it again and recurse
        setattr(numpy, _name.split(".")[1], sys.modules[_name])

from .autodiff import AdamState, FitRecord, adam_step, masked_infonce
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
from .encoders import (
    PARAM_NAMES,
    EncoderParams,
    encoder_vjp,
    gnn_forward,
    init_encoder_params,
    mlp_forward,
)
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
    PromptedGraph,
    build_csr,
    gcn_normalize,
    mean_readout,
    self_looped,
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
