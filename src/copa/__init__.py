"""Taxonomy of recurring debate arguments, motion matching and evaluation.

The package stores classes of principled arguments (CoPAs), matches new
(action, topic) motions against them with several classifiers plus their
ensemble, instantiates the matched claims, and evaluates everything in a
leave-one-motion-out protocol.
"""

from .kb import (
    Action,
    ActionRegistry,
    Claim,
    CoPA,
    CopaStats,
    Dataset,
    Motion,
    ParseError,
    Stance,
    Syllogism,
    UnknownStance,
    ValidationError,
    build_syllogism,
    copa_stats,
    instantiate_claim,
    load_dataset,
    save_dataset,
)
from .textsim import (
    DomainError,
    EmbeddingStore,
    SimilarityContext,
    SimilarityKind,
    TfIdfModel,
    UnknownTopic,
    WikiCorpus,
    avg_idf_in_article,
    embed_term,
    hypergeom_pvalue,
    set_similarity,
    similarity_block,
    term_similarity,
    topic_related_titles,
)
from .features import (
    FEATURE_NAMES,
    EmptyTrainingSet,
    FeatureTable,
    Standardizer,
    compute_features,
    motion_features,
    standardize,
)
from .classifiers import (
    BAModel,
    DimensionMismatch,
    LogRegModel,
    NBClassifier,
    NBModel,
    ScoreMatrix,
    TopicSentenceCorpus,
    W2VClassifier,
    W2VTable,
    ensemble,
    logreg_fit,
    predict_ba,
    predict_feature_lr,
    predict_knn,
    predict_nb,
    predict_w2v,
    train_ba,
    train_feature_lr,
    train_nb,
    train_w2v_lr,
)
from .evaluation import (
    EvalConfig,
    LengthMismatch,
    PAt1Point,
    PRPoint,
    baseline_largest,
    cohen_kappa,
    default_threshold_grid,
    leave_one_out,
    method_inputs,
    p_at_1_curve,
    pr_curve,
    score_motion,
)

__version__ = "0.1.0"
