"""Gender classification from eye-normalized face patterns.

Pipeline pieces: pattern normalization (geometry), local texture/gradient
descriptors (descriptors), an SMO-trained RBF SVM (svm), two-stage score
fusion (stacking), evaluation protocols with the accompanying statistics
(evaluation, stats), plus manifest/feature/model file handling and a
synthetic corpus generator for desk-scale experiments.
"""

__version__ = "0.1.0"

from .errors import ConfigurationError, DataError, ParseError, PartialFailure
from .geometry import (F_PATTERN, HS_PATTERN, MAX_GAUSSIAN_VARIANCE,
                       MAX_MOTION_LENGTH, PATTERN_VARIANTS, NoiseSpec,
                       PatternSpec, SimilarityTransform, add_noise, downscale,
                       eye_transform, normalize_pattern, pattern_eyes,
                       prepare_pattern, to_gray)
from .pgm import load_gray, read_pgm, write_pgm
from .dataset import (ADULT_GROUPS, AGE_GROUPS, DAGO_MIN_EYE_DISTANCE,
                      GENDERS, FoldPlan, Manifest, Sample, adults_mask,
                      dago_mask, load_folds, load_manifest, make_folds,
                      save_folds, save_manifest)
from .features import FeatureMatrix, load_features, save_features
from .descriptors import (DESCRIPTOR_IDS, NEIGHBOR_OFFSETS, U2_TABLE, extract_descriptor,
                          grid_histogram, hog, lbp_code_map, losib, lsp_code_map, nilbp_code_map)
from .pca import PcaModel, pca_fit
from .svm import (ScoreMatrix, SvmModel, SvmParams, cv_scores, default_grid,
                  grid_search, load_model, load_scores, save_model,
                  save_scores, svm_fit)
from .stacking import (CANONICAL_STAGES, S_CONFIGS, FirstStageSpec,
                       StackedModel, load_stacked, oof_scores,
                       save_stacked, stack_fit, stack_scores)
from .stats import StatTestResult, chi2_sf, jarque_bera, kruskal_wallis
from .evaluation import (EvalReport, StageData, auc_trapezoid,
                         error_breakdown, evaluate, mean_pattern, roc_curve,
                         run_crossdb, run_kfold, save_report, save_roc)
from .synth import synth_corpus, synth_sample
