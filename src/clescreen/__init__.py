"""Patch-based texture classification and probability fusion for
circular-field endomicroscopy images."""

__version__ = "0.1.0"

from .core import (ArtifactRect, CleImage, DatasetManifest, ImageRecord,
                   StatsReport, dataset_stats, load_image, load_manifest,
                   save_image, save_manifest)
from .patching import (PatchCoords, exclude_artifacts, patch_grid,
                       resize_half, whiten_values)
from .wholeimage import (CompressedImage, SquareCrop, max_square_crop,
                         percentile_compress, resize_to, rotate)
from .features import (GlcmConfig, LbpConfig, glcm, haralick_features,
                       image_row, lbp_histogram)
from .classify import (LogisticModel, augment_rotations, balance_classes,
                       train_logistic)
from .forest import (RandomForestModel, load_forest, save_forest,
                     train_random_forest)
from .fusion import (FusionMaps, ImageProbability, build_maps,
                     export_probability_map, image_probability)
from .evaluation import (EvalReport, RunConfig, confusion_metrics,
                         describe_records, lopo_folds, prepare_records,
                         represent, roc_auc, run_cv)
from .synth import SynthConfig, generate_dataset

__all__ = [name for name in dir() if not name.startswith("_")]
