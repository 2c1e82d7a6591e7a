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
from .fusion import FusionMaps, ImageProbability, build_maps, image_probability
from .evaluation import (EvalReport, RecordPlan, RunConfig,
                         confusion_metrics, describe_records, lopo_folds,
                         plan_records, roc_auc, run_cv)

# Only frame generation needs scipy (`synth`'s distance transform), so
# `synth` loads on first use: a `cv` or any other command that reads
# frames never imports scipy.
_SYNTH_NAMES = ("SynthConfig", "generate_dataset", "synth")

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += _SYNTH_NAMES


def __getattr__(name: str):
    if name not in _SYNTH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # import_module, not `from . import synth`: the latter asks this
    # package for `synth` first, which would call back into here.
    synth = importlib.import_module(".synth", __name__)
    return synth if name == "synth" else getattr(synth, name)
