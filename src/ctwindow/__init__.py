"""CT window normalization strategies and their evaluation apparatus.

Core pieces: CTV volume I/O, fixed and stochastic tissue-window
normalization, paired spatial augmentation, dice metrics, Wilcoxon/FDR
method comparison, and a synthetic-phantom intensity-shift sweep. The
voxel hot loops are plain NumPy (``ctwindow._kernels``); the package is
pure Python and installs without a compiler.
"""

from ._kernels import BACKEND  # always "numpy"; perfbench/child.py reads it
from .augmentation import AugmentConfig, augment_pair
from .metrics import (DiceRecord, SummaryStats, dice, dice_table, multi_label_dice,
                      read_dice_csv, summarize, write_dice_csv)
from .simulation import (Band, BandSegmenter, ExperimentConfig, FitParams, OrganSpec,
                         PhantomConfig, StrategySpec, SweepRow, derive_seed,
                         fit_band_segmenter, generate_phantom, reference_experiment,
                         run_experiment, run_shift_sweep, write_sweep_csv)
from .stats import (ComparisonRow, WilcoxonResult, ZeroDifferencesError,
                    compare_methods, fdr_bh, wilcoxon_signed_rank,
                    write_comparison_csv, write_comparison_metadata)
from .volume import (CtVolume, CtvFormatError, LabelVolume, Slice2D,
                     extract_slice, load_label_volume, load_volume,
                     save_label_volume, save_volume, shift_intensity,
                     stack_slices)
from .windowing import (SOFT_TISSUE, STRATEGIES, WHOLE_RANGE, SwnParams, WindowSampler,
                        WindowSpec, W_MIN, apply_window, normalize_for_testing,
                        normalize_for_training, strategy_window)

__version__ = "0.1.0"
